"""Spatio-temporal graph sequences: node tracks, presence masks, adjacency.

A sequence holds one track per graph node. Tracks live over all T timesteps
with a boolean presence mask, a column of the sequence's (T, N) grid;
feature rows are zero wherever a node is absent. Spatial edges connect two
tracks within one timestep; temporal edges connect (track, t) to
(track', t + delta) with delta >= 1 and may skip timesteps to bridge
deformation (missed detections, occlusion, nodes that appear or
disappear). Each edge list is one flat table with a row per edge (the COO
layout), checked once, when the sequence is built.

Flattening convention: the node-time index of (track n, timestep t) is
``t * N + n`` (timestep-major), so temporal subsampling selects contiguous
blocks of rows.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import blocks
from .config import DictCodec, atomic_write, binary_array, json_array, read_json
from .errors import ValidationError
from .tensor import DTYPE, dump_tensor, load_tensor

NODE_TYPES = ("actor", "object", "scene", "action", "other")


@dataclass(frozen=True)
class FeatureCluster(DictCodec):
    cluster_id: int
    feature_len: int


@dataclass(frozen=True)
class NodeTrack:
    track_id: str
    node_type: str
    cluster_id: int
    features: np.ndarray  # (T, feature_len) float32, zero rows where absent
    presence: np.ndarray  # (T,) 0/1; in a sequence, a read-only column of its presence grid


@dataclass(frozen=True)
class StgSequence:
    """A graph sequence, checked by :func:`validate_sequence` when it is built.

    Edge rows may come as any array-like (arrays, tuples, JSON lists); they
    are stored once as read-only float64 arrays with whole-number indices.
    Presence and label masks (0, 1, true or false) are stored as bool,
    presence once, as the read-only (T, N) grid ``presence``. The first
    window cut from a sequence orders each edge table by start step, once,
    so that every window finds its rows by binary search.
    """

    num_steps: int
    num_classes: int
    mode: str  # "single" | "multi"
    clusters: Tuple[FeatureCluster, ...]
    tracks: Tuple[NodeTrack, ...]
    spatial_edges: np.ndarray   # (E_s, 4) rows (t, i, j, w)
    temporal_edges: np.ndarray  # (E_t, 5) rows (i, t_i, j, t_j, w)
    labels: np.ndarray      # (T,) int for single, (T, C) {0,1} for multi
    label_mask: np.ndarray  # (T,) bool
    presence: np.ndarray = field(init=False, repr=False, compare=False)  # (T, N) bool

    def __post_init__(self):
        for name, width in (("spatial_edges", 4), ("temporal_edges", 5)):
            object.__setattr__(self, name, _edge_table(getattr(self, name), width, name))
        presence, label_mask = validate_sequence(self)
        presence.flags.writeable = False
        tracks = tuple(replace(tr, presence=presence[:, n]) for n, tr in enumerate(self.tracks))
        for name, value in (("presence", presence), ("label_mask", label_mask), ("tracks", tracks)):
            object.__setattr__(self, name, value)

    @property
    def num_tracks(self) -> int:
        return len(self.tracks)

    @functools.cached_property
    def _step_index(self) -> Tuple["_StepIndex", "_StepIndex"]:
        """The spatial and temporal tables' :class:`_StepIndex`, built on first use."""
        N, T = self.num_tracks, self.num_steps
        spatial, temporal = (e[:4].astype(np.int64)
                             for e in _edge_ends(self.spatial_edges, self.temporal_edges))
        i, t, j, _ = spatial
        keep = i != j  # build_adjacency drops spatial self loops
        lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        n1, t1, n2, t2 = temporal
        return (_StepIndex.of(t, (t[keep] * N + lo) * N + hi),
                _StepIndex.of(t1, ((n1 * T + t1) * N + n2) * T + t2))


@dataclass(frozen=True)
class Window:
    """Timesteps [start, start+length) of a sequence: a range-checked view that copies nothing.

    ``length`` defaults to the rest of the sequence. Only a window from 0 may
    run past T (the one window of a shorter sequence). This class is the one
    place that pads past T: there every per-step array reads zero, so the
    steps are absent, featureless and masked out.
    """

    seq: StgSequence
    start: int = 0
    length: Optional[int] = None

    def __post_init__(self):
        length = self.seq.num_steps - self.start if self.length is None else self.length
        if self.start < 0 or length < 1 or self.start + length > max(self.seq.num_steps, length):
            raise ValidationError("window out of range")
        object.__setattr__(self, "length", length)

    @property
    def steps(self) -> slice:
        return slice(self.start, self.start + self.length)

    @property
    def flat_rows(self) -> slice:
        """The window's rows in the sequence's flat node-time order."""
        N = self.seq.num_tracks
        return slice(self.start * N, (self.start + self.length) * N)

    def padded(self, rows: np.ndarray) -> np.ndarray:
        """The window's steps of a per-step array (T leading), zero past T; a view inside T."""
        part = rows[self.steps]
        if len(part) == self.length:
            return part
        out = np.zeros(blocks.allocatable((self.length, *part.shape[1:]), part.dtype), part.dtype)
        out[: len(part)] = part
        return out

    @property
    def labels(self) -> np.ndarray:
        return self.padded(self.seq.labels)

    @property
    def label_mask(self) -> np.ndarray:
        return self.padded(self.seq.label_mask)

    @property
    def presence(self) -> np.ndarray:
        """The window's (length, N) rows of the presence grid; a read-only view inside T."""
        return self.padded(self.seq.presence)

    def sequence(self) -> StgSequence:
        """The window copied into a sequence of its own; edges re-indexed, crossers dropped."""
        rows = _window_rows(self)
        spatial, temporal = (table[np.sort(r)] for table, r in zip(
            (self.seq.spatial_edges, self.seq.temporal_edges), rows))  # in table order
        return replace(
            self.seq,
            num_steps=self.length,
            tracks=tuple(replace(tr, features=np.array(self.padded(tr.features)),
                                 presence=self.padded(tr.presence))
                         for tr in self.seq.tracks),
            spatial_edges=spatial - (self.start, 0, 0, 0),
            temporal_edges=temporal - (0, self.start, 0, self.start, 0),
            labels=np.array(self.labels),
            label_mask=np.array(self.label_mask),
        )


@dataclass(frozen=True)
class AdjacencyPair:
    """Raw (un-normalized) spatial and temporal adjacency in block layout.

    Each matrix is a (T, 2b+1, N, N) block array (see :mod:`stacked_stgcn.blocks`)
    whose entry ``[t, b + delta, i, j]`` is the weight between (track i,
    timestep t) and (track j, timestep t + delta). Spatial adjacency is
    block-diagonal over timesteps (b = 0); temporal adjacency has band
    b = min(span, T - 1). Absent nodes have all-zero rows and columns in both.
    """

    a_s: np.ndarray
    a_t: np.ndarray
    num_tracks: int
    num_steps: int


def _edge_table(rows, width: int, name: str) -> np.ndarray:
    """Rows of ``width`` finite numbers, whole but for the weight, as a read-only float64 copy."""
    try:
        table = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
        raise ValidationError(f"{name}: rows must hold {width} numbers each ({exc})") from exc
    if table.shape == (0,):
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValidationError(f"{name}: expected rows of {width} numbers, got shape {table.shape}")
    bad = table != np.round(table)
    bad[:, -1] = False  # weights may be fractional
    bad |= ~np.isfinite(table)
    if bad.any():
        k = int(np.argmax(bad.reshape(-1))) // width
        raise ValidationError(f"{name}: row {k} {table[k].tolist()} is not finite or not whole")
    table.flags.writeable = False  # a copy: the caller's array stays the caller's
    return table


@dataclass(frozen=True)
class _StepIndex:
    """One edge table's row numbers sorted by start step (8 bytes per edge).

    ``distinct`` says that no two edges, self loops aside, join the same two
    node-time points, so no two write the same block entry, mirrors included.
    """

    steps: np.ndarray  # (E,) int32 start steps, ascending
    order: np.ndarray  # (E,) int32 row numbers, stably sorted by start step
    distinct: bool

    @classmethod
    def of(cls, starts: np.ndarray, ends: np.ndarray) -> "_StepIndex":
        """Rows with start steps ``starts``, and one integer per edge naming its two ends."""
        order = np.argsort(starts, kind="stable").astype(np.int32)
        ends = np.sort(ends)
        return cls(starts[order].astype(np.int32), order, not (ends[1:] == ends[:-1]).any())

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Row numbers of the edges that start in steps [start, stop), by start step."""
        lo, hi = np.searchsorted(self.steps, (start, stop))
        return self.order[lo:hi]


def _window_rows(window: Window) -> Tuple[np.ndarray, np.ndarray]:
    """Row numbers of the spatial and temporal edges with both ends in the window's steps."""
    seq, stop = window.seq, window.start + window.length
    spatial, temporal = (index.rows(window.start, stop) for index in seq._step_index)
    # t_i < t_j, so a temporal edge that starts inside lies inside when it ends before stop
    return spatial, temporal[seq.temporal_edges[temporal, 3] < stop]


def _edge_ends(spatial: np.ndarray, temporal: np.ndarray):
    """Edge tables as (5, E) arrays n1, t1, n2, t2, w: edges join (n1, t1) and (n2, t2)."""
    return spatial.T[[1, 0, 2, 0, 3]], temporal.T[[0, 1, 2, 3, 4]]


def validate_sequence(seq: StgSequence) -> Tuple[np.ndarray, np.ndarray]:
    """The (T, N) presence grid and the label mask as bool, or ValidationError.

    Edges are checked a column at a time against the presence grid; the
    error names the first edge, in row order, that breaks one.
    """
    T, N = seq.num_steps, seq.num_tracks
    if seq.mode not in ("single", "multi"):
        raise ValidationError(f"unknown label mode {seq.mode!r}")
    if not N:
        raise ValidationError("sequence has no tracks")
    lens = {c.cluster_id: c.feature_len for c in seq.clusters}
    columns = []
    for tr in seq.tracks:
        if tr.cluster_id not in lens:
            raise ValidationError(f"track {tr.track_id} references unknown cluster {tr.cluster_id}")
        if tr.node_type not in NODE_TYPES:
            raise ValidationError(f"track {tr.track_id} has unknown node type {tr.node_type!r}")
        if tr.features.shape != (T, lens[tr.cluster_id]):
            raise ValidationError(
                f"track {tr.track_id}: features shape {tr.features.shape} "
                f"!= ({T}, {lens[tr.cluster_id]})"
            )
        if tr.presence.shape != (T,):
            raise ValidationError(f"track {tr.track_id}: bad presence shape")
        columns.append(binary_array(tr.presence, f"track {tr.track_id}: presence"))
        if not np.isfinite(tr.features).all():
            raise ValidationError(f"track {tr.track_id}: non-finite feature value")
        if np.any(tr.features[~columns[-1]] != 0):
            raise ValidationError(f"track {tr.track_id}: nonzero features at absent timesteps")
    presence = np.stack(columns, axis=1)
    # one absent row and column past the end, where out-of-range edge ends are looked up
    present = np.pad(presence.T, ((0, 1), (0, 1)))
    bounds = np.array([[N], [T], [N], [T]])
    reasons = ("has a negative weight", "is out of range", "must advance in time",
               "touches an absent node")
    edges = _edge_ends(seq.spatial_edges, seq.temporal_edges)
    for kind, ends, gap in zip(("spatial", "temporal"), edges, (0, 1)):
        n1, t1, n2, t2, w = ends
        inside = (0 <= ends[:4]) & (ends[:4] < bounds)
        cell = np.where(inside, ends[:4], bounds).astype(np.intp)
        ok = (
            w >= 0,
            inside.all(axis=0),
            t2 - t1 >= gap,
            present[cell[0], cell[1]] & present[cell[2], cell[3]],
        )
        bad = ~np.logical_and.reduce(ok)
        if bad.any():
            k = int(np.argmax(bad))
            reason = next(r for r, passed in zip(reasons, ok) if not passed[k])
            raise ValidationError(
                f"{kind} edge ({n1[k]:.0f},{t1[k]:.0f})->({n2[k]:.0f},{t2[k]:.0f}) {reason}"
            )
    if seq.mode == "single":
        if seq.labels.shape != (T,):
            raise ValidationError("single-label mode needs a (T,) label vector")
        if not np.isin(seq.labels, np.arange(seq.num_classes)).all():
            raise ValidationError("label index out of range or not whole")
    else:
        if seq.labels.shape != (T, seq.num_classes) or not np.isin(seq.labels, (0, 1)).all():
            raise ValidationError("multi-label mode needs a (T, C) binary matrix")
    if seq.label_mask.shape != (T,):
        raise ValidationError("bad label_mask shape")
    return presence, binary_array(seq.label_mask, "label_mask")


def build_adjacency(
    window: Window, span: int, cross_cluster_in_temporal: bool = False
) -> AdjacencyPair:
    """Raw spatial and temporal adjacency of ``window``.

    Edges with both ends inside the window are kept, shifted by its start,
    so the blocks equal those of its :meth:`Window.sequence` copy. A_s
    carries intra-cluster spatial edges, block-diagonal over time. A_t
    carries temporal edges with gap delta in [1, span] in a band of
    half-width min(span, length - 1) (see :class:`AdjacencyPair`); when
    ``cross_cluster_in_temporal`` is set, spatial edges between tracks of
    different clusters are folded into A_t instead of A_s. Weights are
    symmetrized by max.
    """
    if span < 1:
        raise ValidationError("span must be >= 1")
    seq, start, L, N = window.seq, window.start, window.length, window.seq.num_tracks
    a_s = blocks.zeros(L, 0, N, DTYPE)
    a_t = blocks.zeros(L, span, N, DTYPE)
    cluster = np.asarray([tr.cluster_id for tr in seq.tracks])
    # pick the window's rows first: only they are copied and converted
    rows = _window_rows(window)
    picked = _edge_ends(seq.spatial_edges[rows[0]], seq.temporal_edges[rows[1]])
    for ends, index in zip(picked, seq._step_index):
        i, t, j, u = ends[:4].astype(np.intp) - [[0], [start], [0], [start]]  # window steps
        w, delta = ends[4].astype(DTYPE), u - t
        # spatial self loops are dropped; the normalization adds its own
        keep = ((i != j) | (delta > 0)) & (delta <= span)
        to_t = keep & ((delta > 0) | (cross_cluster_in_temporal & (cluster[i] != cluster[j])))
        to_s = keep & ~to_t
        put = blocks.set_symmetric if index.distinct else blocks.raise_symmetric
        put(a_s, t[to_s], 0, i[to_s], j[to_s], w[to_s])
        put(a_t, t[to_t], delta[to_t], i[to_t], j[to_t], w[to_t])
    return AdjacencyPair(a_s=a_s, a_t=a_t, num_tracks=N, num_steps=L)


def apply_deformation(
    seq: StgSequence, drop_schedule: Sequence[Tuple[int, int]]
) -> StgSequence:
    """Mark (track, timestep) pairs absent and strip their incident edges."""
    T, N = seq.num_steps, seq.num_tracks
    points = np.asarray(drop_schedule, dtype=np.intp).reshape(-1, 2)
    outside = ~((0 <= points) & (points < (N, T))).all(axis=1)
    if outside.any():
        n, t = points[np.argmax(outside)].tolist()
        raise ValidationError(f"drop point ({n},{t}) out of range")
    if not len(points):
        return seq
    dropped = np.zeros((N, T), dtype=bool)
    dropped[points[:, 0], points[:, 1]] = True
    tracks = tuple(
        replace(tr, presence=tr.presence & ~hit, features=np.where(hit[:, None], 0, tr.features))
        if hit.any() else tr
        for tr, hit in zip(seq.tracks, dropped)
    )
    tables = (seq.spatial_edges, seq.temporal_edges)
    spatial, temporal = (
        rows[~(dropped[i, t] | dropped[j, u])]
        for rows, (i, t, j, u) in zip(
            tables, (ends[:4].astype(np.intp) for ends in _edge_ends(*tables)))
    )
    return replace(seq, tracks=tracks, spatial_edges=spatial, temporal_edges=temporal)


def slice_sequence(seq: StgSequence, start: int, length: int) -> StgSequence:
    """Crop to timesteps [start, start+length): the :meth:`Window.sequence` copy."""
    if start < 0 or start + length > seq.num_steps:
        raise ValidationError("window out of range")
    return Window(seq, start, length).sequence()


def pad_sequence(seq: StgSequence, length: int) -> StgSequence:
    """Zero-pad to ``length`` timesteps, as the :meth:`Window.sequence` copy pads them."""
    if length < seq.num_steps:
        raise ValidationError("pad target shorter than sequence")
    return Window(seq, 0, length).sequence()


# ---------------------------------------------------------------------------
# STGS on-disk format: manifest.json + one feature blob per track


def spatial_edge_rows(per_step, num_steps: int) -> list:
    """Per-timestep ``[i, j, w]`` lists, as JSON holds them, as rows ``[t, i, j, w]``."""
    if not isinstance(per_step, list) or len(per_step) != num_steps:
        raise ValidationError("spatial_edges must list one edge set per timestep")
    try:
        return [[t, *edge] for t, edges in enumerate(per_step) for edge in edges]
    except TypeError as exc:
        raise ValidationError(f"spatial_edges: malformed edge set ({exc})") from exc


def _json_rows(rows: np.ndarray) -> list:
    """Edge rows as JSON lists: the index columns as ints, the weight as a float."""
    out = rows.astype(object)
    out[:, :-1] = rows[:, :-1].astype(np.int64)
    return out.tolist()


@dataclass(frozen=True)
class _TrackEntry(DictCodec):
    track_id: str
    node_type: str
    cluster_id: int
    presence: list
    blob: str


@dataclass(frozen=True)
class _StgsManifest(DictCodec):
    """``manifest.json`` of an STGS directory; the large arrays stay JSON lists."""

    format: str
    T: int
    C: int
    mode: str
    clusters: Tuple[FeatureCluster, ...]
    tracks: Tuple[_TrackEntry, ...]
    spatial_edges: list  # per timestep, [i, j, w] rows
    temporal_edges: list  # [i, t_i, j, t_j, w] rows
    labels: list
    label_mask: list


def save_stgs(seq: StgSequence, directory: str) -> None:
    """Write the track blobs, then the manifest, each through :func:`atomic_write`."""
    os.makedirs(directory, exist_ok=True)
    for n, tr in enumerate(seq.tracks):
        with atomic_write(os.path.join(directory, f"track_{n}.bin"), "wb") as fh:
            dump_tensor(fh, tr.features)
    spatial, t = seq.spatial_edges, seq.spatial_edges[:, 0]
    manifest = _StgsManifest(
        format="stgs-1",
        T=seq.num_steps,
        C=seq.num_classes,
        mode=seq.mode,
        clusters=seq.clusters,
        tracks=tuple(
            _TrackEntry(tr.track_id, tr.node_type, tr.cluster_id,
                        tr.presence.tolist(), f"track_{n}.bin")
            for n, tr in enumerate(seq.tracks)
        ),
        spatial_edges=[_json_rows(spatial[t == k, 1:]) for k in range(seq.num_steps)],
        temporal_edges=_json_rows(seq.temporal_edges),
        labels=seq.labels.tolist(),
        label_mask=seq.label_mask.tolist(),
    )
    with atomic_write(os.path.join(directory, "manifest.json")) as fh:
        json.dump(manifest.to_dict(), fh, indent=1)


def load_stgs(directory: str) -> StgSequence:
    doc = read_json(os.path.join(directory, "manifest.json"))
    if not isinstance(doc, dict) or doc.get("format") != "stgs-1":
        raise ValidationError(f"not an STGS manifest: {directory}")
    where = f"STGS manifest {directory}"
    m = _StgsManifest.from_dict(doc, where)
    try:
        tracks = []
        for k, entry in enumerate(m.tracks):
            blob = os.path.join(directory, entry.blob)
            try:
                with open(blob, "rb") as fh:
                    features = load_tensor(fh)
            except (OSError, ValueError) as exc:  # missing, or truncated header, extents or data
                raise ValidationError(f"track blob {blob}: {exc}") from exc
            tracks.append(NodeTrack(entry.track_id, entry.node_type, entry.cluster_id, features,
                                    json_array(entry.presence, bool, f"tracks[{k}].presence")))
        return StgSequence(
            num_steps=m.T,
            num_classes=m.C,
            mode=m.mode,
            clusters=m.clusters,
            tracks=tuple(tracks),
            spatial_edges=spatial_edge_rows(m.spatial_edges, m.T),
            temporal_edges=m.temporal_edges,
            labels=json_array(m.labels, np.int64 if m.mode == "single" else DTYPE, "labels"),
            label_mask=json_array(m.label_mask, bool, "label_mask"),
        )
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
