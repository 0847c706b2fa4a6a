"""Full model: input harmonization, hourglass stack, classification head.

Two harmonization schemes are supported. ``projection`` runs one 1x1
convolution per node type to bring every feature vector to the model width
before any graph operation. ``per-cluster-gcn`` gives each feature cluster
its own spatial weight matrix in the first STGCN layer and folds
cross-cluster spatial edges into the temporal adjacency. Both run the same
grouped projection, :func:`harmonize_projection`, keyed by node type or by
cluster; in the per-cluster case its kernels are the first layer's
``ws{c}``, and that layer, having no ``ws`` of its own, mixes the projected
rows as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .config import DictCodec
from .errors import ConfigurationError, ValidationError
from .graph import StgSequence, build_adjacency
from .hourglass import (
    DecoderLevelParams,
    EncoderLevelParams,
    HourglassBlockParams,
    build_level_adjacency,
    head_forward,
    stack_forward,
)
from .layers import (
    StgcnLayerParams,
    flat_presence,
    harmonize_projection,
    pooling_matrix,
    subtract_mean,
)
from .layers import spatial_project  # noqa: F401  (perfbench/tracing.py wraps it here)
from .tensor import DTYPE, Tape, Tensor


@dataclass(frozen=True)
class ModelConfig(DictCodec):
    cluster_feature_lens: Tuple[int, ...]
    num_classes: int
    head_mode: str = "single"  # "single" | "multi"
    d_model: int = 512
    harmonization: str = "per-cluster-gcn"  # or "projection"
    node_type_clusters: Tuple[Tuple[str, int], ...] = ()  # projection mode only
    span: int = 3
    levels: int = 1
    stride: int = 2
    stack_depth: int = 1
    skip: bool = True
    decoder_stgcn: bool = False
    center_input: bool = True
    gcn_bias: bool = False

    def __post_init__(self):
        if min(self.d_model, self.num_classes, *self.cluster_feature_lens) < 1:
            raise ConfigurationError("d_model, num_classes and cluster_feature_lens must be >= 1")
        if any(not 0 <= c < len(self.cluster_feature_lens) for _, c in self.node_type_clusters):
            raise ConfigurationError("node_type_clusters names a cluster that does not exist")
        if self.span < 1:
            raise ConfigurationError("span must be >= 1")
        if self.harmonization not in ("projection", "per-cluster-gcn"):
            raise ConfigurationError(f"unknown harmonization {self.harmonization!r}")
        if self.head_mode not in ("single", "multi"):
            raise ConfigurationError(f"unknown head mode {self.head_mode!r}")
        if self.harmonization == "projection" and not self.node_type_clusters:
            raise ConfigurationError("projection mode needs node_type_clusters")
        if self.levels < 0 or self.stride < 1 or self.stack_depth < 1:
            raise ConfigurationError("bad hourglass geometry")


def _fan_in_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int):
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


class StgcnModel:
    """Parameter container plus the taped forward pass over one sequence."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.params: Dict[str, np.ndarray] = {}
        rng = np.random.default_rng(seed)
        d = cfg.d_model
        k = cfg.stride  # strided conv kernel size matches the stride

        if cfg.harmonization == "projection":
            for node_type, cluster in cfg.node_type_clusters:
                d_in = cfg.cluster_feature_lens[cluster]
                self._add(rng, f"proj/{node_type}", (d_in, d), d_in)

        for b in range(cfg.stack_depth):
            hetero_first = cfg.harmonization == "per-cluster-gcn" and b == 0
            for l in range(cfg.levels):
                first = hetero_first and l == 0
                self._add_stgcn(rng, f"block{b}/enc{l}", first)
                self._add(rng, f"block{b}/enc{l}/conv", (k, d, d), k * d)
            self._add_stgcn(rng, f"block{b}/bottleneck", hetero_first and cfg.levels == 0)
            for l in range(cfg.levels):
                self._add(rng, f"block{b}/dec{l}/deconv", (k, d, d), d)
                if cfg.decoder_stgcn:
                    self._add_stgcn(rng, f"block{b}/dec{l}", False)
        self._add(rng, "head/w", (d, cfg.num_classes), d)
        self.params["head/b"] = np.zeros(cfg.num_classes, dtype=DTYPE)

    def _add(self, rng, path: str, shape, fan_in: int) -> None:
        self.params[path] = _fan_in_uniform(rng, shape, fan_in)

    def _add_stgcn(self, rng, prefix: str, heterogeneous: bool) -> None:
        cfg = self.cfg
        d = cfg.d_model
        if heterogeneous:
            for c, d_in in enumerate(cfg.cluster_feature_lens):
                self._add(rng, f"{prefix}/ws{c}", (d_in, d), d_in)
        else:
            self._add(rng, f"{prefix}/ws", (d, d), d)
        self._add(rng, f"{prefix}/wt", (d, d), d)
        if cfg.gcn_bias:
            self.params[f"{prefix}/bias"] = np.zeros(d, dtype=DTYPE)

    # -- forward -----------------------------------------------------------

    def _layer_params(self, taped: Dict[str, Tensor], prefix: str) -> StgcnLayerParams:
        # no ``ws`` for the per-cluster first layer: its rows arrive projected
        w_s = taped.get(f"{prefix}/ws")
        return StgcnLayerParams(
            w_s={} if w_s is None else {0: w_s},
            w_t=taped[f"{prefix}/wt"],
            bias=taped.get(f"{prefix}/bias"),
        )

    def prepare_levels(self, seq: StgSequence):
        """Precompute normalized per-level adjacency for repeated forwards."""
        cross = self.cfg.harmonization == "per-cluster-gcn"
        adj = build_adjacency(seq, self.cfg.span, cross_cluster_in_temporal=cross)
        return build_level_adjacency(adj, self.cfg.levels, self.cfg.stride)

    def forward_taped(self, seq: StgSequence, levels=None):
        """Run the model on one sequence; returns (tape, taped params, scores)."""
        cfg = self.cfg
        if seq.num_classes != cfg.num_classes:
            raise ValidationError(
                f"sequence has {seq.num_classes} classes, model expects {cfg.num_classes}"
            )
        lens = tuple(c.feature_len for c in sorted(seq.clusters, key=lambda c: c.cluster_id))
        if lens != cfg.cluster_feature_lens:
            raise ValidationError(
                f"cluster feature lengths {lens} do not match model {cfg.cluster_feature_lens}"
            )
        if levels is None:
            levels = self.prepare_levels(seq)
        presence = flat_presence(seq)

        tape = Tape()
        taped = {path: tape.watch(arr) for path, arr in self.params.items()}
        blocks = [
            HourglassBlockParams(
                encoder=[
                    EncoderLevelParams(
                        stgcn=self._layer_params(taped, f"block{b}/enc{l}"),
                        conv_kernel=taped[f"block{b}/enc{l}/conv"],
                    )
                    for l in range(cfg.levels)
                ],
                bottleneck=self._layer_params(taped, f"block{b}/bottleneck"),
                decoder=[
                    DecoderLevelParams(
                        deconv_kernel=taped[f"block{b}/dec{l}/deconv"],
                        stgcn=self._layer_params(taped, f"block{b}/dec{l}")
                        if cfg.decoder_stgcn
                        else None,
                    )
                    for l in range(cfg.levels)
                ],
            )
            for b in range(cfg.stack_depth)
        ]

        if cfg.harmonization == "projection":
            kernels = {t: taped[f"proj/{t}"] for t, _ in cfg.node_type_clusters}
            h = harmonize_projection(seq, kernels)
        else:
            first = "block0/enc0" if cfg.levels >= 1 else "block0/bottleneck"
            kernels = {c: taped[f"{first}/ws{c}"] for c in range(len(lens))}
            h = harmonize_projection(seq, kernels, group_by="cluster_id")
        if cfg.center_input:
            h = subtract_mean(h, presence, seq.num_tracks)
        h = stack_forward(h, levels, blocks, cfg.stride, skip=cfg.skip)
        pool = pooling_matrix(presence, seq.num_tracks)
        scores = head_forward(h, pool, taped["head/w"], taped["head/b"])
        return tape, taped, scores

    def forward_scores(self, seq: StgSequence) -> np.ndarray:
        """Per-timestep class scores (T x C) as a plain array."""
        _, _, scores = self.forward_taped(seq)
        return scores.data
