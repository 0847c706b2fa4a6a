"""Full model: input harmonization, hourglass stack, classification head.

Two harmonization schemes are supported. ``projection`` runs one 1x1
convolution per node type to bring every feature vector to the model width
before any graph operation. ``per-cluster-gcn`` gives each feature cluster
its own spatial weight matrix in the first STGCN layer and folds
cross-cluster spatial edges into the temporal adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tensor as tn
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
    spatial_project,
    subtract_mean,
)
from .tensor import DTYPE, Tape, Tensor


@dataclass(frozen=True)
class ModelConfig:
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

    def to_dict(self) -> dict:
        return {
            "cluster_feature_lens": list(self.cluster_feature_lens),
            "num_classes": self.num_classes,
            "head_mode": self.head_mode,
            "d_model": self.d_model,
            "harmonization": self.harmonization,
            "node_type_clusters": [list(p) for p in self.node_type_clusters],
            "span": self.span,
            "levels": self.levels,
            "stride": self.stride,
            "stack_depth": self.stack_depth,
            "skip": self.skip,
            "decoder_stgcn": self.decoder_stgcn,
            "center_input": self.center_input,
            "gcn_bias": self.gcn_bias,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            cluster_feature_lens=tuple(d["cluster_feature_lens"]),
            num_classes=d["num_classes"],
            head_mode=d.get("head_mode", "single"),
            d_model=d.get("d_model", 512),
            harmonization=d.get("harmonization", "per-cluster-gcn"),
            node_type_clusters=tuple(
                (str(t), int(c)) for t, c in d.get("node_type_clusters", [])
            ),
            span=d.get("span", 3),
            levels=d.get("levels", 1),
            stride=d.get("stride", 2),
            stack_depth=d.get("stack_depth", 1),
            skip=d.get("skip", True),
            decoder_stgcn=d.get("decoder_stgcn", False),
            center_input=d.get("center_input", True),
            gcn_bias=d.get("gcn_bias", False),
        )


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

    def _layer_params(
        self, taped: Dict[str, Tensor], prefix: str, total_rows: int,
        cluster_rows: Optional[Dict[int, np.ndarray]] = None,
    ) -> StgcnLayerParams:
        if f"{prefix}/ws" in taped:
            w_s = {0: taped[f"{prefix}/ws"]}
            rows = {0: np.arange(total_rows, dtype=np.intp)}
        else:
            w_s = {
                c: taped[f"{prefix}/ws{c}"]
                for c in range(len(self.cfg.cluster_feature_lens))
            }
            rows = cluster_rows
        return StgcnLayerParams(
            w_s=w_s,
            w_t=taped[f"{prefix}/wt"],
            cluster_rows=rows,
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
        N = seq.num_tracks
        total = N * seq.num_steps
        cross = cfg.harmonization == "per-cluster-gcn"
        if levels is None:
            levels = self.prepare_levels(seq)
        presence = flat_presence(seq)

        tape = Tape()
        taped = {path: tape.watch(arr) for path, arr in self.params.items()}
        blocks = []
        for b in range(cfg.stack_depth):
            enc = [
                EncoderLevelParams(
                    stgcn=self._layer_params(taped, f"block{b}/enc{l}", total),
                    conv_kernel=taped[f"block{b}/enc{l}/conv"],
                )
                for l in range(cfg.levels)
                if not (cross and b == 0 and l == 0)
            ]
            if cross and b == 0 and cfg.levels >= 1:
                # placeholder; level 0 of block 0 is handled by first_layer
                enc.insert(
                    0,
                    EncoderLevelParams(
                        stgcn=None,  # type: ignore[arg-type]
                        conv_kernel=taped["block0/enc0/conv"],
                    ),
                )
            blocks.append(
                HourglassBlockParams(
                    encoder=enc,
                    bottleneck=self._layer_params(
                        taped, f"block{b}/bottleneck", total
                    ) if not (cross and b == 0 and cfg.levels == 0) else None,
                    decoder=[
                        DecoderLevelParams(
                            deconv_kernel=taped[f"block{b}/dec{l}/deconv"],
                            stgcn=self._layer_params(taped, f"block{b}/dec{l}", total)
                            if cfg.decoder_stgcn
                            else None,
                        )
                        for l in range(cfg.levels)
                    ],
                )
            )

        first_layer = None
        if cfg.harmonization == "projection":
            kernels = {t: taped[f"proj/{t}"] for t, _ in cfg.node_type_clusters}
            h = harmonize_projection(seq, kernels)
            if cfg.center_input:
                h = subtract_mean(h, presence, N)
        else:
            from .layers import cluster_row_index

            # cluster rows are track-major, matching the concatenated features
            raw = {
                c: (idx, Tensor(np.concatenate(
                    [tr.features for tr in seq.tracks if tr.cluster_id == c], axis=0
                )))
                for c, idx in cluster_row_index(seq).items()
            }
            prefix = "block0/enc0" if cfg.levels >= 1 else "block0/bottleneck"
            wt_first = taped[f"{prefix}/wt"]
            bias_first = taped.get(f"{prefix}/bias")

            def first_layer(_h, ns, nt):
                proj = spatial_project(
                    [(raw[c][0], raw[c][1], taped[f"{prefix}/ws{c}"]) for c in sorted(raw)],
                    total,
                )
                if cfg.center_input:
                    proj = subtract_mean(proj, presence, N)
                h_s = tn.banded_matmul(ns, proj)
                out = tn.banded_matmul(nt, tn.matmul(h_s, wt_first))
                if bias_first is not None:
                    out = tn.add(out, bias_first)
                return tn.relu(out)

            h = Tensor(np.zeros((total, 1), dtype=DTYPE))  # ignored by first_layer

        h = stack_forward(
            h, levels, blocks, cfg.stride, skip=cfg.skip, first_layer=first_layer
        )
        pool = pooling_matrix(presence, N)
        scores = head_forward(h, pool, taped["head/w"], taped["head/b"])
        return tape, taped, scores

    def forward_scores(self, seq: StgSequence) -> np.ndarray:
        """Per-timestep class scores (T x C) as a plain array."""
        _, _, scores = self.forward_taped(seq)
        return scores.data
