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

The forward splits into a row prefix (harmonization and centering, which
act within a timestep) and a window body (the hourglass stack and the
head). Decoders are transposed convolutions and skip adds only, so the head
pools the last block's bottleneck and skips and runs that block's decoder
on the pooled rows (see :func:`stacked_stgcn.hourglass.head_forward`).
Training runs both on one :class:`~stacked_stgcn.graph.Window` with taped
parameters. Inference runs them untaped on the :func:`fold_parameters` set,
in which the prefix does the first layer's weight product, each layer after
an encoder conv none and every other layer one. :meth:`StgcnModel.score_windows`
runs the prefix once per sequence; every window, taped or not, gets its own
levels from :meth:`StgcnModel.prepare_levels` and runs the body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as tn
from .blocks import allocatable, fits_in_memory
from .config import INT64_MAX, DictCodec
from .errors import ConfigurationError, ValidationError
from .graph import StgSequence, Window, build_adjacency
from .hourglass import (
    EncoderLevelParams,
    HourglassBlockParams,
    build_level_adjacency,
    head_forward,
    hourglass_encode,
    stack_forward,
)
from .layers import StgcnLayerParams, harmonize_projection, pooling_matrix, subtract_mean
from .layers import flat_presence, spatial_project  # noqa: F401  (perfbench/tracing.py wraps them)
from .tensor import DTYPE, Tape, Tensor, check_finite


# a level-l step spans stride ** l input steps, an int64 count: at stride >= 2
# that allows at most 62 levels, and the same bound holds at stride 1
MAX_LEVELS = 62


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
    # skip, decoder_stgcn and gcn_bias are kept because every checkpoint header
    # holds them; any other value is refused
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
        if self.levels > MAX_LEVELS or self.stride**self.levels > INT64_MAX:
            raise ConfigurationError(
                f"levels must be <= {MAX_LEVELS}, and stride ** levels must fit in int64"
            )
        if not self.skip:
            raise ConfigurationError("skip: every decoder level adds its skip; must be true")
        if self.decoder_stgcn:
            raise ConfigurationError("decoder_stgcn: decoders have no STGCN layers; must be false")
        if self.gcn_bias:
            raise ConfigurationError("gcn_bias: STGCN layers have no bias; must be false")


def _fan_in_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int):
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=allocatable(shape, np.float64)).astype(DTYPE)


def parameter_table(cfg: ModelConfig) -> Dict[str, Tuple[Tuple[int, ...], Optional[int]]]:
    """Every parameter's path -> (shape, fan-in), in the order they are drawn.

    A fan-in of ``None`` marks a zero-initialized bias, which draws nothing.
    Initialization draws from this table and checkpoint loading checks
    against it. Past two blocks, their size is checked in closed form (the
    first block and each later one) before the loop over blocks runs.
    """
    if cfg.stack_depth > 2:
        one, two = (sum(math.prod(shape) for shape, _ in table.values())
                    for table in (parameter_table(replace(cfg, stack_depth=n)) for n in (1, 2)))
        floats = one + (cfg.stack_depth - 1) * (two - one)
        fits_in_memory(floats * np.dtype(DTYPE).itemsize, f"{cfg.stack_depth} hourglass blocks")
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


# the key of the first layer's weight in the folded set, applied by the prefix
PREFIX_WEIGHT = "prefix/w"


def fold_parameters(cfg: ModelConfig, params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The parameters inference runs on: each chain of linear maps as one.

    A layer computes ``relu(A_t (A_s H W_s) W_t)``. Nothing nonlinear
    sits between its two weights, and the graph mixes rows while the weights
    mix columns, so every layer keeps one weight W = W_s W_t (its ``wt``)
    and no ``ws``. Two kinds of layer keep none. The first layer's rows
    come straight from the prefix (harmonization and centering mix no
    columns), so its W moves there, as :data:`PREFIX_WEIGHT`. A layer after
    an encoder conv takes the conv's output only, so its W folds into the
    conv kernel, K_j W for each tap j.
    """
    out = dict(params)
    for key in params:
        if key.endswith("/wt") and f"{key[:-3]}/ws" in out:
            out[key] = out.pop(f"{key[:-3]}/ws") @ params[key]
    out[PREFIX_WEIGHT] = out.pop(f"{_first_layer(cfg)}/wt")
    for b in range(cfg.stack_depth):
        for l in range(cfg.levels):
            after = f"block{b}/enc{l + 1}" if l + 1 < cfg.levels else f"block{b}/bottleneck"
            conv = f"block{b}/enc{l}/conv"
            out[conv] = params[conv] @ out.pop(f"{after}/wt")
    return out


class ParameterStore(dict):
    """Parameter path -> writable float32 array; each item assignment bumps ``version``.

    Read-only, non-float32 or non-C-contiguous arrays are stored as C-order
    float32 copies, others as they are. Other dict mutators (``update``,
    ``pop``, ...) are not counted. Assignment does not check finiteness:
    updates (``sgd_step``) and loads (:meth:`StgcnModel.from_params`) do.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        super().__init__()
        self.version = 0
        for path, arr in arrays.items():
            self[path] = arr

    def __setitem__(self, path: str, arr) -> None:
        arr = np.asarray(arr)
        if arr.dtype != DTYPE or not arr.flags.writeable or not arr.flags.c_contiguous:
            arr = np.array(arr, dtype=DTYPE, order="C")
        super().__setitem__(path, arr)
        self.version += 1


class StgcnModel:
    """A :class:`ParameterStore` plus the forward pass over one sequence.

    ``forward_taped`` runs it on one window with taped parameters, for training.
    ``score_windows`` runs the same forward on the untaped
    :func:`fold_parameters` set, built once per store version, over many
    windows of one sequence; ``forward_scores`` is its one-window case.
    """

    def __init__(self, cfg: ModelConfig, seed: int):
        rng = np.random.default_rng(seed)
        self._set(cfg, {
            path: np.zeros(allocatable(shape, DTYPE), dtype=DTYPE) if fan_in is None
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
            check_finite(params[path], f"parameter {path!r}")
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
        # the weights are folded; no ``wt``: the first layer's went to the
        # prefix, or the layer's went into the encoder conv before it
        w_s = params.get(f"{prefix}/ws")
        return StgcnLayerParams(
            w_s={} if w_s is None else {0: w_s},
            w_t=params.get(f"{prefix}/wt"),
        )

    def prepare_levels(self, window: Window):
        """The window's normalized per-level adjacency, for one forward or several."""
        cross = self.cfg.harmonization == "per-cluster-gcn"
        return build_level_adjacency(build_adjacency(window, self.cfg.span, cross),
                                     self.cfg.levels, self.cfg.stride)

    def _check(self, seq: StgSequence) -> None:
        cfg = self.cfg
        if seq.mode != cfg.head_mode:
            raise ValidationError(f"sequence has label mode {seq.mode!r}, model {cfg.head_mode!r}")
        if seq.num_classes != cfg.num_classes:
            raise ValidationError(
                f"sequence has {seq.num_classes} classes, model expects {cfg.num_classes}"
            )
        lens = tuple(c.feature_len for c in sorted(seq.clusters, key=lambda c: c.cluster_id))
        if lens != cfg.cluster_feature_lens:
            raise ValidationError(
                f"cluster feature lengths {lens} do not match model {cfg.cluster_feature_lens}"
            )

    def _prefix(self, window: Window, params) -> Tensor:
        """Harmonized and centered rows of ``window``.

        On folded parameters the rows also get the first layer's weight.
        """
        cfg = self.cfg
        kernels = {key: params[path] for key, path in _harmonization_kernels(cfg).items()}
        group_by = "node_type" if cfg.harmonization == "projection" else "cluster_id"
        h = harmonize_projection(window, kernels, group_by=group_by)
        if cfg.center_input:
            h = subtract_mean(h, window.presence)
        w = params.get(PREFIX_WEIGHT)  # folded parameters only
        return h if w is None else tn.matmul(h, w)

    def _blocks(self, params: Dict[str, Tensor]) -> List[HourglassBlockParams]:
        cfg = self.cfg
        return [
            HourglassBlockParams(
                encoder=[
                    EncoderLevelParams(
                        stgcn=self._layer_params(params, f"block{b}/enc{l}"),
                        conv_kernel=params[f"block{b}/enc{l}/conv"],
                    )
                    for l in range(cfg.levels)
                ],
                bottleneck=self._layer_params(params, f"block{b}/bottleneck"),
                decoder=[params[f"block{b}/dec{l}/deconv"] for l in range(cfg.levels)],
            )
            for b in range(cfg.stack_depth)
        ]

    def _body(self, h: Tensor, levels, presence: np.ndarray, params) -> Tensor:
        """Class scores of one window's prefix rows ``h``, given its levels and presence grid.

        No ReLU follows the last block's decoder, so :func:`head_forward`
        runs it on pooled rows.
        """
        cfg = self.cfg
        blocks = self._blocks(params)
        h = stack_forward(h, levels, blocks[:-1], cfg.stride)
        h, skips = hourglass_encode(h, levels, blocks[-1], cfg.stride)
        pools = [pooling_matrix(presence, cfg.stride**l) for l in range(cfg.levels + 1)]
        decoder = [(pools[l], blocks[-1].decoder[l], skips[l]) for l in reversed(range(cfg.levels))]
        scores = head_forward(h, pools[-1], params["head/w"], params["head/b"], decoder, cfg.stride)
        check_finite(scores.data, "scores")  # before any crop or mask drops a row
        return scores

    def forward_taped(self, window: Window, levels=None):
        """Tape, taped params and scores of one window, on its :meth:`prepare_levels` if given."""
        self._check(window.seq)
        if levels is None:
            levels = self.prepare_levels(window)
        tape = Tape()
        taped = {path: tape.watch(arr) for path, arr in self.params.items()}
        h = self._prefix(window, taped)
        return tape, taped, self._body(h, levels, window.presence, taped)

    def _inference_params(self) -> Dict[str, Tensor]:
        """The folded parameters as untaped tensors, rebuilt when the store's version moves."""
        store, version, _ = self._folded
        if store is not self.params or version != self.params.version:
            self._folded = (None, 0, {})  # free the stale view before folding anew
            folded = fold_parameters(self.cfg, self.params)
            view = {path: Tensor(arr) for path, arr in folded.items()}
            self._folded = (self.params, self.params.version, view)
        return self._folded[2]

    def score_windows(
        self, seq: StgSequence, starts: Sequence[int], window: int
    ) -> List[np.ndarray]:
        """Class scores (window x C) of each window [start, start+window) of ``seq``, untaped.

        The prefix rows are computed once per sequence, in window-length
        chunks of steps; each window takes its rows from them and builds
        its own levels (:meth:`prepare_levels`). A sequence shorter than
        the window has one window, from 0, which
        :class:`~stacked_stgcn.graph.Window` zero-pads past T.
        """
        self._check(seq)
        if window < 1:
            raise ValidationError("window must be >= 1")
        params, T = self._inference_params(), seq.num_steps
        shape = (max(T, window) * seq.num_tracks, self.cfg.d_model)
        rows = np.zeros(allocatable(shape, DTYPE), dtype=DTYPE)
        for lo in range(0, T, window):
            chunk = Window(seq, lo, min(window, T - lo))
            rows[chunk.flat_rows] = self._prefix(chunk, params).data
        scores = []
        for start in starts:
            win = Window(seq, start, window)
            h = Tensor(rows[win.flat_rows])
            scores.append(self._body(h, self.prepare_levels(win), win.presence, params).data)
        return scores

    def forward_scores(self, seq: StgSequence) -> np.ndarray:
        """Per-timestep class scores (T x C) as a plain array, without a tape."""
        return self.score_windows(seq, [0], seq.num_steps)[0]
