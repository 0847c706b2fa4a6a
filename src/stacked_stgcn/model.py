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

Training and inference run one forward body on different parameter sets:
taped parameters for training, and for inference the untaped
:func:`fold_parameters` set, in which each layer does one weight product
and the first layer none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
        if len(dict(self.node_type_clusters)) != len(self.node_type_clusters):
            raise ConfigurationError("node_type_clusters names a node type twice")
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


def parameter_table(cfg: ModelConfig) -> Dict[str, Tuple[Tuple[int, ...], Optional[int]]]:
    """Every parameter's path -> (shape, fan-in), in the order they are drawn.

    A fan-in of ``None`` marks a zero-initialized bias, which draws nothing.
    Initialization draws from this table and checkpoint loading checks
    against it.
    """
    d = cfg.d_model
    k = cfg.stride  # strided conv kernel size matches the stride
    table: Dict[str, Tuple[Tuple[int, ...], Optional[int]]] = {}

    def stgcn(prefix: str, heterogeneous: bool) -> None:
        if heterogeneous:
            for c, d_in in enumerate(cfg.cluster_feature_lens):
                table[f"{prefix}/ws{c}"] = ((d_in, d), d_in)
        else:
            table[f"{prefix}/ws"] = ((d, d), d)
        table[f"{prefix}/wt"] = ((d, d), d)
        if cfg.gcn_bias:
            table[f"{prefix}/bias"] = ((d,), None)

    if cfg.harmonization == "projection":
        for node_type, cluster in cfg.node_type_clusters:
            d_in = cfg.cluster_feature_lens[cluster]
            table[f"proj/{node_type}"] = ((d_in, d), d_in)
    for b in range(cfg.stack_depth):
        hetero_first = cfg.harmonization == "per-cluster-gcn" and b == 0
        for l in range(cfg.levels):
            stgcn(f"block{b}/enc{l}", hetero_first and l == 0)
            table[f"block{b}/enc{l}/conv"] = ((k, d, d), k * d)
        stgcn(f"block{b}/bottleneck", hetero_first and cfg.levels == 0)
        for l in range(cfg.levels):
            table[f"block{b}/dec{l}/deconv"] = ((k, d, d), d)
            if cfg.decoder_stgcn:
                stgcn(f"block{b}/dec{l}", False)
    table["head/w"] = ((d, cfg.num_classes), d)
    table["head/b"] = ((cfg.num_classes,), None)
    return table


def _first_layer(cfg: ModelConfig) -> str:
    return "block0/enc0" if cfg.levels >= 1 else "block0/bottleneck"


def _harmonization_kernels(cfg: ModelConfig) -> Dict[object, str]:
    """Projection kernel path per node type, or per cluster (the first layer's ``ws{c}``)."""
    if cfg.harmonization == "projection":
        return {t: f"proj/{t}" for t, _ in cfg.node_type_clusters}
    return {c: f"{_first_layer(cfg)}/ws{c}" for c in range(len(cfg.cluster_feature_lens))}


def fold_parameters(cfg: ModelConfig, params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The parameters inference runs on: each chain of weight products as one.

    A layer computes ``relu(A_t (A_s H W_s) W_t + b)``. Nothing nonlinear
    sits between its two weights, and the graph mixes rows while the weights
    mix columns, so every layer keeps one ``wt`` = W_s W_t and no ``ws``.
    The first layer's rows come straight from the harmonization kernels
    (centering and A_s mix rows only), so its weights fold into them,
    ``proj/{type}`` W_s W_t or ``ws{c}`` W_t, and it keeps neither.
    """
    out = dict(params)
    for key in params:
        if key.endswith("/wt") and f"{key[:-3]}/ws" in out:
            out[key] = out.pop(f"{key[:-3]}/ws") @ params[key]
    first_wt = out.pop(f"{_first_layer(cfg)}/wt")
    for path in _harmonization_kernels(cfg).values():
        out[path] = params[path] @ first_wt
    return out


class ParameterStore(dict):
    """Parameter path -> writable float32 array; each item assignment bumps ``version``.

    Read-only or non-float32 arrays are stored as float32 copies, others as
    they are. Other dict mutators (``update``, ``pop``, ...) are not counted.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        super().__init__()
        self.version = 0
        for path, arr in arrays.items():
            self[path] = arr

    def __setitem__(self, path: str, arr) -> None:
        arr = np.asarray(arr)
        if arr.dtype != DTYPE or not arr.flags.writeable:
            arr = np.array(arr, dtype=DTYPE)
        super().__setitem__(path, arr)
        self.version += 1


class StgcnModel:
    """A :class:`ParameterStore` plus the forward pass over one sequence.

    ``forward_taped`` runs it on taped parameters, for training.
    ``forward_scores`` runs the same forward on the untaped
    :func:`fold_parameters` set, built once per store version.
    """

    def __init__(self, cfg: ModelConfig, seed: int):
        rng = np.random.default_rng(seed)
        self._set(cfg, {
            path: np.zeros(shape, dtype=DTYPE) if fan_in is None
            else _fan_in_uniform(rng, shape, fan_in)
            for path, (shape, fan_in) in parameter_table(cfg).items()
        })

    @classmethod
    def from_params(cls, cfg: ModelConfig, params: Dict[str, np.ndarray]) -> "StgcnModel":
        """A model holding ``params``, checked against ``cfg``'s parameter table; draws nothing."""
        table = parameter_table(cfg)
        stray = sorted(set(table) ^ set(params))
        if stray:
            state = "missing" if stray[0] in table else "not in the model config"
            raise ValidationError(f"parameter {stray[0]!r} is {state}")
        for path, (shape, _) in table.items():
            if params[path].shape != shape:
                raise ValidationError(
                    f"parameter {path!r} has shape {params[path].shape}, "
                    f"the model config implies {shape}"
                )
        model = cls.__new__(cls)
        model._set(cfg, {path: params[path] for path in table})
        return model

    def _set(self, cfg: ModelConfig, params: Dict[str, np.ndarray]) -> None:
        self.cfg = cfg
        self.params = ParameterStore(params)
        self._folded: Tuple[Optional[ParameterStore], int, Dict[str, Tensor]] = (None, 0, {})

    # -- forward -----------------------------------------------------------

    @staticmethod
    def _layer_params(params: Dict[str, Tensor], prefix: str) -> StgcnLayerParams:
        # no ``ws``: the rows arrive projected (per-cluster first layer) or
        # the weights are folded; no ``wt``: folded into the kernels as well
        w_s = params.get(f"{prefix}/ws")
        return StgcnLayerParams(
            w_s={} if w_s is None else {0: w_s},
            w_t=params.get(f"{prefix}/wt"),
            bias=params.get(f"{prefix}/bias"),
        )

    def prepare_levels(self, seq: StgSequence):
        """Precompute normalized per-level adjacency for repeated forwards."""
        cross = self.cfg.harmonization == "per-cluster-gcn"
        adj = build_adjacency(seq, self.cfg.span, cross_cluster_in_temporal=cross)
        return build_level_adjacency(adj, self.cfg.levels, self.cfg.stride)

    def _forward(self, seq: StgSequence, params: Dict[str, Tensor], levels) -> Tensor:
        """Class scores (T x C) of ``seq`` under ``params``, taped or not."""
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
        blocks = [
            HourglassBlockParams(
                encoder=[
                    EncoderLevelParams(
                        stgcn=self._layer_params(params, f"block{b}/enc{l}"),
                        conv_kernel=params[f"block{b}/enc{l}/conv"],
                    )
                    for l in range(cfg.levels)
                ],
                bottleneck=self._layer_params(params, f"block{b}/bottleneck"),
                decoder=[
                    DecoderLevelParams(
                        deconv_kernel=params[f"block{b}/dec{l}/deconv"],
                        stgcn=self._layer_params(params, f"block{b}/dec{l}")
                        if cfg.decoder_stgcn
                        else None,
                    )
                    for l in range(cfg.levels)
                ],
            )
            for b in range(cfg.stack_depth)
        ]

        kernels = {key: params[path] for key, path in _harmonization_kernels(cfg).items()}
        group_by = "node_type" if cfg.harmonization == "projection" else "cluster_id"
        h = harmonize_projection(seq, kernels, group_by=group_by)
        if cfg.center_input:
            h = subtract_mean(h, presence, seq.num_tracks)
        h = stack_forward(h, levels, blocks, cfg.stride, skip=cfg.skip)
        pool = pooling_matrix(presence, seq.num_tracks)
        return head_forward(h, pool, params["head/w"], params["head/b"])

    def forward_taped(self, seq: StgSequence, levels=None):
        """Run the model on one sequence; returns (tape, taped params, scores)."""
        tape = Tape()
        taped = {path: tape.watch(arr) for path, arr in self.params.items()}
        return tape, taped, self._forward(seq, taped, levels)

    def _inference_params(self) -> Dict[str, Tensor]:
        """The folded parameters as untaped tensors, rebuilt when the store's version moves."""
        store, version, _ = self._folded
        if store is not self.params or version != self.params.version:
            self._folded = (None, 0, {})  # free the stale view before folding anew
            folded = fold_parameters(self.cfg, self.params)
            view = {path: Tensor(arr) for path, arr in folded.items()}
            self._folded = (self.params, self.params.version, view)
        return self._folded[2]

    def forward_scores(self, seq: StgSequence) -> np.ndarray:
        """Per-timestep class scores (T x C) as a plain array, without a tape."""
        return self._forward(seq, self._inference_params(), None).data
