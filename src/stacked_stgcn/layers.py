"""Adjacency normalization and the generalized spatio-temporal GCN layer.

The layer factors into a spatial graph convolution inside each timestep
(one weight matrix per feature cluster, so clusters may carry features of
different lengths) followed by a temporal graph convolution across
timesteps, with ReLU applied only after the temporal step. The degenerate
form with fixed grid-like temporal connections collapses both weight
matrices into a single spatial convolution.

Adjacency, centering and pooling are constant block arrays (see
:mod:`stacked_stgcn.blocks`) applied with :func:`stacked_stgcn.tensor.banded_matmul`:
spatial adjacency and centering are block-diagonal, temporal adjacency is a
band of half-width span, and mean-pooling has one output row per timestep
(``phases`` of them per block when pooling a subsampled level).
A dense N_t x N_t matrix is accepted wherever adjacency is, as the one-block
case T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import blocks
from . import tensor as tn
from .errors import ConfigurationError, ContractError, DimensionError
from .graph import StgSequence, Window
from .tensor import DTYPE, Tensor


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Self-loop augmented symmetric normalization D^-1/2 (I+A) D^-1/2.

    ``a`` is a square matrix or a (T, 2b+1, N, N) block array; the result
    has the same layout. Isolated nodes get degree 1 from the self loop, so
    no division by zero.
    """
    a = np.asarray(a)
    out = blocks.normalize_symmetric(blocks.as_blocks(a)).astype(DTYPE)
    return out[0, 0] if a.ndim == 2 else out


@dataclass
class StgcnLayerParams:
    """Weights of one STGCN layer.

    ``w_s`` maps cluster id to that cluster's spatial weight matrix
    (d_cluster x d_model); ``cluster_rows`` maps cluster id to the flat
    node-time rows it owns, and is needed only with more than one cluster.
    An empty ``w_s`` means the input rows are already projected (by
    :func:`harmonize_projection`). ``w_t`` is the temporal weight matrix
    (d_model x d_out); ``None`` means the rows are already in the output
    basis, as when inference applies the first layer's weight to the
    prefix rows or folds a layer's weight into the conv before it.
    ``bias`` is optional and off by default.
    """

    w_s: Dict[int, Tensor]
    w_t: Optional[Tensor]
    cluster_rows: Dict[int, np.ndarray] = field(default_factory=dict)
    bias: Optional[Tensor] = None


def _track_rows(tracks: np.ndarray, num_tracks: int, num_steps: int) -> np.ndarray:
    """Flat node-time rows of the given tracks, track-major (track, then time)."""
    return (tracks[:, None] + np.arange(num_steps)[None, :] * num_tracks).reshape(-1)


def cluster_row_index(seq: StgSequence) -> Dict[int, np.ndarray]:
    """Flat node-time row indices per cluster, for a given sequence."""
    N, T = seq.num_tracks, seq.num_steps
    clusters = np.asarray([tr.cluster_id for tr in seq.tracks])
    return {
        c: _track_rows(np.flatnonzero(clusters == c), N, T)
        for c in dict.fromkeys(clusters.tolist())
    }


def assemble_rows(pieces: Sequence[Tuple[np.ndarray, Tensor]], total_rows: int) -> Tensor:
    """Scatter row blocks back into flat node-time order, as one recorded op.

    ``pieces`` pairs each block of rows with the flat indices those rows
    belong to; together the indices must cover 0..total_rows-1 exactly once.
    Each block's gradient is the upstream gradient's rows at its indices.
    """
    index = [np.asarray(idx, dtype=np.intp) for idx, _ in pieces]
    if len(pieces) == 1 and np.array_equal(index[0], np.arange(total_rows)):
        return pieces[0][1]
    if not np.array_equal(np.sort(np.concatenate(index)), np.arange(total_rows)):
        raise DimensionError("row pieces must partition the node-time index set")
    out = np.empty((total_rows,) + pieces[0][1].shape[1:], dtype=DTYPE)
    for idx, (_, rows) in zip(index, pieces):
        out[idx] = rows.data
    # the record keeps the index arrays only, not the pieces
    return tn.record(out, [rows for _, rows in pieces], lambda gout: [gout[idx] for idx in index])


def spatial_project(
    inputs: Sequence[Tuple[np.ndarray, Tensor, Tensor]], total_rows: int
) -> Tensor:
    """Per-cluster projection H W_s, reassembled into flat node-time order.

    Each entry is (flat row indices, feature rows, weight matrix); clusters
    may have different input widths but share the output width.
    """
    pieces = [(idx, tn.matmul(rows, w)) for idx, rows, w in inputs]
    return assemble_rows(pieces, total_rows)


def _project_uniform(h: Tensor, params: StgcnLayerParams) -> Tensor:
    total = h.shape[0]
    if not params.w_s:
        return h
    if len(params.w_s) == 1:
        (w,) = params.w_s.values()
        return tn.matmul(h, w)
    inputs = [
        (idx, tn.gather_rows(h, idx), params.w_s[c])
        for c, idx in params.cluster_rows.items()
    ]
    return spatial_project(inputs, total)


def _temporal_weight(h: Tensor, params: StgcnLayerParams) -> Tensor:
    return h if params.w_t is None else tn.matmul(h, params.w_t)


def _constant(a) -> np.ndarray:
    if isinstance(a, Tensor):
        if a.tape is not None:
            raise ContractError("adjacency must be a constant, not a taped tensor")
        return a.data
    return a


def stgcn_layer(h: Tensor, ns, nt, params: StgcnLayerParams) -> Tensor:
    """Generalized STGCN: temporal GCN over the spatial GCN's output.

    ``ns`` and ``nt`` are the normalized spatial and temporal adjacency, as
    block arrays or as dense N_t x N_t matrices (arrays or untaped tensors).
    Activation is ReLU after the temporal step only.
    """
    h_s = tn.banded_matmul(_constant(ns), _project_uniform(h, params))
    out = tn.banded_matmul(_constant(nt), _temporal_weight(h_s, params))
    if params.bias is not None:
        out = tn.add(out, params.bias)
    return tn.relu(out)


def stgcn_layer_grid(h: Tensor, ns, params: StgcnLayerParams) -> Tensor:
    """Degenerate form with fixed grid temporal connections: no temporal mixing."""
    h_s = tn.banded_matmul(_constant(ns), _project_uniform(h, params))
    out = _temporal_weight(h_s, params)
    if params.bias is not None:
        out = tn.add(out, params.bias)
    return tn.relu(out)


def harmonize_projection(window: Window, kernels: Dict, group_by: str = "node_type") -> Tensor:
    """Map every node's features in ``window`` to a common width via per-group projections.

    Tracks are grouped by their ``group_by`` attribute (``node_type`` or
    ``cluster_id``) and each group owns one 1x1 convolution kernel (a plain
    matmul on the feature vector). Each group's input is its tracks'
    :meth:`~stacked_stgcn.graph.Window.padded` feature rows, track-major, so
    absent nodes and steps past T keep zero rows.
    """
    seq, N, L = window.seq, window.seq.num_tracks, window.length
    groups: Dict[object, List[int]] = {}
    for n, tr in enumerate(seq.tracks):
        groups.setdefault(getattr(tr, group_by), []).append(n)
    inputs = []
    for key, track_ids in groups.items():
        if key not in kernels:
            raise ConfigurationError(f"no projection kernel for {group_by} {key!r}")
        kernel = kernels[key]
        widths = {seq.tracks[n].features.shape[1] for n in track_ids} - {kernel.shape[0]}
        if widths:
            raise ConfigurationError(
                f"kernel for {key!r} expects width {kernel.shape[0]}, got {widths.pop()}"
            )
        feats = np.concatenate([window.padded(seq.tracks[n].features) for n in track_ids])
        inputs.append((_track_rows(np.asarray(track_ids), N, L), Tensor(feats), kernel))
    return spatial_project(inputs, N * L)


def _presence_counts(presence: np.ndarray):
    """Presence as (T, N) floats, and the count of present nodes per timestep (min 1)."""
    p = presence.astype(np.float64)
    return p, np.maximum(p.sum(axis=1), 1.0)


def centering_matrix(presence: np.ndarray) -> np.ndarray:
    """(T, 1, N, N) blocks that subtract the per-timestep mean over present nodes.

    ``presence`` is the (T, N) grid, as :attr:`~stacked_stgcn.graph.Window.presence`
    gives it. Absent rows map to zero.
    """
    p, count = _presence_counts(presence)
    mat = p[:, :, None] * (np.eye(p.shape[1]) - p[:, None, :] / count[:, None, None])
    return blocks.block_diagonal(mat.astype(DTYPE))


def subtract_mean(h: Tensor, presence: np.ndarray) -> Tensor:
    """Per timestep and channel, subtract the mean over the nodes the (T, N) grid marks present."""
    return tn.banded_matmul(centering_matrix(presence), h)


def flat_presence(seq: StgSequence) -> np.ndarray:
    """Presence mask flattened in timestep-major node-time order."""
    return seq.presence.reshape(-1)


def pooling_matrix(presence: np.ndarray, phases: int = 1) -> np.ndarray:
    """(ceil(T/phases), 1, phases, N) blocks mean-pooling the present nodes of a (T, N) grid.

    Row p of block u pools timestep u * phases + p, so the blocks map the
    rows of a sequence subsampled by ``phases`` onto the timesteps each of
    its steps spans. A row is zero when no node is present, and past T.
    """
    p, count = _presence_counts(presence)
    T, N = p.shape
    pool = np.zeros(blocks.allocatable((-(-T // phases) * phases, N), DTYPE), dtype=DTYPE)
    pool[:T] = p / count[:, None]
    return blocks.block_diagonal(pool.reshape(-1, phases, N))
