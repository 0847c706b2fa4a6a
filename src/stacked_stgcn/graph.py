"""Spatio-temporal graph sequences: node tracks, presence masks, adjacency.

A sequence holds one track per graph node. Tracks live over all T timesteps
with a boolean presence mask; feature rows are zero wherever a node is
absent. Spatial edges connect two tracks within one timestep; temporal edges
connect (track, t) to (track', t + delta) with delta >= 1 and may skip
timesteps to bridge deformation (missed detections, occlusion, nodes that
appear or disappear).

Flattening convention: the node-time index of (track n, timestep t) is
``t * N + n`` (timestep-major), so temporal subsampling selects contiguous
blocks of rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from . import blocks
from .errors import ValidationError
from .tensor import DTYPE, dump_tensor, load_tensor

NODE_TYPES = ("actor", "object", "scene", "action", "other")

SpatialEdge = Tuple[int, int, float]           # (track_i, track_j, weight)
TemporalEdge = Tuple[int, int, int, int, float]  # (track_i, t_i, track_j, t_j, weight)


@dataclass(frozen=True)
class FeatureCluster:
    cluster_id: int
    feature_len: int


@dataclass(frozen=True)
class NodeTrack:
    track_id: str
    node_type: str
    cluster_id: int
    features: np.ndarray  # (T, feature_len) float32, zero rows where absent
    presence: np.ndarray  # (T,) bool


@dataclass(frozen=True)
class StgSequence:
    num_steps: int
    num_classes: int
    mode: str  # "single" | "multi"
    clusters: Tuple[FeatureCluster, ...]
    tracks: Tuple[NodeTrack, ...]
    spatial_edges: Tuple[Tuple[SpatialEdge, ...], ...]  # one tuple per timestep
    temporal_edges: Tuple[TemporalEdge, ...]
    labels: np.ndarray      # (T,) int for single, (T, C) {0,1} for multi
    label_mask: np.ndarray  # (T,) bool

    @property
    def num_tracks(self) -> int:
        return len(self.tracks)

    def present(self, track: int, t: int) -> bool:
        return bool(self.tracks[track].presence[t])


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


def flat_index(track: int, t: int, num_tracks: int) -> int:
    return t * num_tracks + track


def validate_sequence(seq: StgSequence) -> None:
    """Raise ValidationError if any sequence invariant is broken."""
    T, N = seq.num_steps, seq.num_tracks
    if seq.mode not in ("single", "multi"):
        raise ValidationError(f"unknown label mode {seq.mode!r}")
    lens = {c.cluster_id: c.feature_len for c in seq.clusters}
    for n, tr in enumerate(seq.tracks):
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
        if np.any(tr.features[~tr.presence] != 0):
            raise ValidationError(f"track {tr.track_id}: nonzero features at absent timesteps")
    if len(seq.spatial_edges) != T:
        raise ValidationError("spatial_edges must list one edge set per timestep")
    for t, edges in enumerate(seq.spatial_edges):
        for i, j, w in edges:
            if w < 0:
                raise ValidationError(f"negative spatial edge weight at t={t}")
            if not (0 <= i < N and 0 <= j < N):
                raise ValidationError(f"spatial edge ({i},{j}) out of range at t={t}")
            if not (seq.present(i, t) and seq.present(j, t)):
                raise ValidationError(f"spatial edge ({i},{j}) touches absent node at t={t}")
    for i, ti, j, tj, w in seq.temporal_edges:
        if w < 0:
            raise ValidationError("negative temporal edge weight")
        if not (0 <= i < N and 0 <= j < N and 0 <= ti < T and 0 <= tj < T):
            raise ValidationError(f"temporal edge ({i},{ti})->({j},{tj}) out of range")
        if not 1 <= tj - ti:
            raise ValidationError("temporal edges must advance in time (t_j > t_i)")
        if not (seq.present(i, ti) and seq.present(j, tj)):
            raise ValidationError(f"temporal edge ({i},{ti})->({j},{tj}) touches absent node")
    if seq.mode == "single":
        if seq.labels.shape != (T,):
            raise ValidationError("single-label mode needs a (T,) label vector")
        if np.any((seq.labels < 0) | (seq.labels >= seq.num_classes)):
            raise ValidationError("label index out of range")
    else:
        if seq.labels.shape != (T, seq.num_classes):
            raise ValidationError("multi-label mode needs a (T, C) binary matrix")
    if seq.label_mask.shape != (T,):
        raise ValidationError("bad label_mask shape")


def build_adjacency(
    seq: StgSequence,
    span: int,
    cross_cluster_in_temporal: bool = False,
) -> AdjacencyPair:
    """Assemble raw spatial and temporal adjacency for a validated sequence.

    A_s carries intra-cluster spatial edges, block-diagonal over time. A_t
    carries temporal edges with gap delta in [1, span] in a band of half-width
    min(span, T - 1) (see :class:`AdjacencyPair`); when
    ``cross_cluster_in_temporal`` is set, spatial edges between tracks of
    different clusters are folded into A_t instead of A_s. Weights are
    symmetrized by max.
    """
    if span < 1:
        raise ValidationError("span must be >= 1")
    validate_sequence(seq)
    T, N = seq.num_steps, seq.num_tracks
    a_s = blocks.zeros(T, 0, N, DTYPE)
    a_t = blocks.zeros(T, span, N, DTYPE)
    t = np.repeat(np.arange(T), [len(edges) for edges in seq.spatial_edges])
    i, j, w = _edge_columns(list(chain.from_iterable(seq.spatial_edges)), 3)
    keep = i != j
    t, i, j, w = t[keep], i[keep], j[keep], w[keep]
    cross = np.zeros(t.shape, dtype=bool)
    if cross_cluster_in_temporal:
        cluster = np.asarray([tr.cluster_id for tr in seq.tracks])
        cross = cluster[i] != cluster[j]
    blocks.raise_symmetric(a_s, t[~cross], 0, i[~cross], j[~cross], w[~cross])
    blocks.raise_symmetric(a_t, t[cross], 0, i[cross], j[cross], w[cross])
    i, ti, j, tj, w = _edge_columns(seq.temporal_edges, 5)
    near = tj - ti <= span
    blocks.raise_symmetric(a_t, ti[near], (tj - ti)[near], i[near], j[near], w[near])
    return AdjacencyPair(a_s=a_s, a_t=a_t, num_tracks=N, num_steps=T)


def _edge_columns(edges: Sequence[tuple], width: int) -> List[np.ndarray]:
    """Columns of ``width``-tuples: indices as intp, the last (the weight) as float32."""
    table = np.fromiter(
        chain.from_iterable(edges), dtype=np.float64, count=width * len(edges)
    ).reshape(-1, width)
    return [table[:, c].astype(np.intp) for c in range(width - 1)] + [
        table[:, -1].astype(DTYPE)
    ]


def apply_deformation(
    seq: StgSequence, drop_schedule: Sequence[Tuple[int, int]]
) -> StgSequence:
    """Mark (track, timestep) pairs absent and strip their incident edges."""
    T, N = seq.num_steps, seq.num_tracks
    dropped = set()
    for n, t in drop_schedule:
        if not (0 <= n < N and 0 <= t < T):
            raise ValidationError(f"drop point ({n},{t}) out of range")
        dropped.add((n, t))
    if not dropped:
        return seq
    tracks = []
    for n, tr in enumerate(seq.tracks):
        hit = [t for (m, t) in dropped if m == n]
        if not hit:
            tracks.append(tr)
            continue
        presence = tr.presence.copy()
        features = tr.features.copy()
        presence[hit] = False
        features[hit] = 0
        tracks.append(replace(tr, presence=presence, features=features))
    spatial = tuple(
        tuple(e for e in edges if (e[0], t) not in dropped and (e[1], t) not in dropped)
        for t, edges in enumerate(seq.spatial_edges)
    )
    temporal = tuple(
        e for e in seq.temporal_edges
        if (e[0], e[1]) not in dropped and (e[2], e[3]) not in dropped
    )
    return replace(
        seq, tracks=tuple(tracks), spatial_edges=spatial, temporal_edges=temporal
    )


def slice_sequence(seq: StgSequence, start: int, length: int) -> StgSequence:
    """Crop to timesteps [start, start+length); edges re-indexed, crossers dropped."""
    if start < 0 or start + length > seq.num_steps:
        raise ValidationError("window out of range")
    sl = slice(start, start + length)
    tracks = tuple(
        replace(tr, features=tr.features[sl].copy(), presence=tr.presence[sl].copy())
        for tr in seq.tracks
    )
    temporal = tuple(
        (i, ti - start, j, tj - start, w)
        for (i, ti, j, tj, w) in seq.temporal_edges
        if start <= ti and tj < start + length
    )
    return replace(
        seq,
        num_steps=length,
        tracks=tracks,
        spatial_edges=seq.spatial_edges[sl],
        temporal_edges=temporal,
        labels=seq.labels[sl].copy(),
        label_mask=seq.label_mask[sl].copy(),
    )


def pad_sequence(seq: StgSequence, length: int) -> StgSequence:
    """Zero-pad to ``length`` timesteps; padded steps are absent and masked out."""
    T = seq.num_steps
    if length < T:
        raise ValidationError("pad target shorter than sequence")
    if length == T:
        return seq
    extra = length - T
    tracks = tuple(
        replace(
            tr,
            features=np.vstack(
                [tr.features, np.zeros((extra, tr.features.shape[1]), dtype=DTYPE)]
            ),
            presence=np.concatenate([tr.presence, np.zeros(extra, dtype=bool)]),
        )
        for tr in seq.tracks
    )
    if seq.mode == "single":
        labels = np.concatenate([seq.labels, np.zeros(extra, dtype=seq.labels.dtype)])
    else:
        labels = np.vstack(
            [seq.labels, np.zeros((extra, seq.num_classes), dtype=seq.labels.dtype)]
        )
    return replace(
        seq,
        num_steps=length,
        tracks=tracks,
        spatial_edges=seq.spatial_edges + tuple(() for _ in range(extra)),
        labels=labels,
        label_mask=np.concatenate([seq.label_mask, np.zeros(extra, dtype=bool)]),
    )


# ---------------------------------------------------------------------------
# STGS on-disk format: manifest.json + one feature blob per track


def save_stgs(seq: StgSequence, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": "stgs-1",
        "T": seq.num_steps,
        "C": seq.num_classes,
        "mode": seq.mode,
        "clusters": [
            {"cluster_id": c.cluster_id, "feature_len": c.feature_len}
            for c in seq.clusters
        ],
        "tracks": [
            {
                "track_id": tr.track_id,
                "node_type": tr.node_type,
                "cluster_id": tr.cluster_id,
                "presence": [bool(p) for p in tr.presence],
                "blob": f"track_{n}.bin",
            }
            for n, tr in enumerate(seq.tracks)
        ],
        "spatial_edges": [
            [[i, j, float(w)] for (i, j, w) in edges] for edges in seq.spatial_edges
        ],
        "temporal_edges": [
            [i, ti, j, tj, float(w)] for (i, ti, j, tj, w) in seq.temporal_edges
        ],
        "labels": seq.labels.tolist(),
        "label_mask": [bool(m) for m in seq.label_mask],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    for n, tr in enumerate(seq.tracks):
        with open(os.path.join(directory, f"track_{n}.bin"), "wb") as fh:
            dump_tensor(fh, tr.features)


_MANIFEST_KEYS = (
    "T", "C", "mode", "clusters", "tracks", "spatial_edges", "temporal_edges",
    "labels", "label_mask",
)
_CLUSTER_KEYS = ("cluster_id", "feature_len")
_TRACK_KEYS = ("track_id", "node_type", "cluster_id", "presence", "blob")


def _require_keys(entries, keys, where: str) -> None:
    """Raise ValidationError naming the first of ``keys`` some entry lacks."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected a JSON object, got {type(entry).__name__}")
        for key in keys:
            if key not in entry:
                raise ValidationError(f"{where}: missing key {key!r}")


def load_stgs(directory: str) -> StgSequence:
    with open(os.path.join(directory, "manifest.json")) as fh:
        m = json.load(fh)
    if not isinstance(m, dict) or m.get("format") != "stgs-1":
        raise ValidationError(f"not an STGS manifest: {directory}")
    where = f"STGS manifest {directory}"
    _require_keys([m], _MANIFEST_KEYS, where)
    _require_keys(m["clusters"], _CLUSTER_KEYS, f"{where}, cluster")
    _require_keys(m["tracks"], _TRACK_KEYS, f"{where}, track")
    T, C, mode = m["T"], m["C"], m["mode"]
    clusters = tuple(
        FeatureCluster(c["cluster_id"], c["feature_len"]) for c in m["clusters"]
    )
    tracks = []
    for entry in m["tracks"]:
        blob = os.path.join(directory, entry["blob"])
        with open(blob, "rb") as fh:
            try:
                features = load_tensor(fh)
            except ValueError as exc:  # truncated header, extents or data
                raise ValidationError(f"track blob {blob}: {exc}") from exc
        tracks.append(
            NodeTrack(
                track_id=entry["track_id"],
                node_type=entry["node_type"],
                cluster_id=entry["cluster_id"],
                features=features,
                presence=np.asarray(entry["presence"], dtype=bool),
            )
        )
    if mode == "single":
        labels = np.asarray(m["labels"], dtype=np.int64)
    else:
        labels = np.asarray(m["labels"], dtype=DTYPE)
    seq = StgSequence(
        num_steps=T,
        num_classes=C,
        mode=mode,
        clusters=clusters,
        tracks=tuple(tracks),
        spatial_edges=tuple(
            tuple((int(i), int(j), float(w)) for i, j, w in edges)
            for edges in m["spatial_edges"]
        ),
        temporal_edges=tuple(
            (int(i), int(ti), int(j), int(tj), float(w))
            for i, ti, j, tj, w in m["temporal_edges"]
        ),
        labels=labels,
        label_mask=np.asarray(m["label_mask"], dtype=bool),
    )
    validate_sequence(seq)
    return seq
