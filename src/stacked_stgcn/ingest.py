"""Ingestion of precomputed per-segment feature tables into STGS sequences.

The expected table is a JSON document with actor and object tracks, one
feature row per temporal segment (skeleton features for actors, appearance
and geometry features for objects), optional edge weight lists, and one
label per segment. Actor tracks form cluster 0 and object tracks cluster 1;
feature lengths are taken from the data and must be consistent per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .config import DictCodec, json_array, read_json
from .errors import ValidationError
from .graph import FeatureCluster, NodeTrack, StgSequence, spatial_edge_rows
from .tensor import DTYPE


@dataclass(frozen=True)
class _TableTrack(DictCodec):
    features: list  # one row per segment
    id: Optional[str] = None


@dataclass(frozen=True)
class _Table(DictCodec):
    segments: int
    num_classes: int
    actors: Tuple[_TableTrack, ...] = ()
    objects: Tuple[_TableTrack, ...] = ()
    spatial_edges: Optional[list] = None  # per segment, [i, j, w] rows
    temporal_edges: Optional[list] = None  # [i, t_i, j, t_j, w] rows
    labels: Optional[list] = None  # one per segment; all 0 when absent


def ingest_cad120_style(doc: dict, where: str = "ingest table") -> StgSequence:
    """Build a two-cluster sequence (actor skeleton, object appearance) from tables."""
    table = _Table.from_dict(doc, where)
    T = table.segments
    if T < 1:
        raise ValidationError("need at least one segment")
    if not table.actors and not table.objects:
        raise ValidationError("no tracks in input table")

    tracks: List[NodeTrack] = []
    cluster_lens = {}
    for kind, entries, cluster_id in (("actor", table.actors, 0), ("object", table.objects, 1)):
        for k, entry in enumerate(entries):
            feats = json_array(entry.features, DTYPE, f"{where}: {kind}s[{k}].features")
            if feats.ndim != 2 or len(feats) != T:
                raise ValidationError(f"{kind} {entry.id!r}: need {T} feature rows")
            if cluster_lens.setdefault(cluster_id, feats.shape[1]) != feats.shape[1]:
                raise ValidationError(
                    f"{kind} feature length {feats.shape[1]} inconsistent with "
                    f"cluster length {cluster_lens[cluster_id]}"
                )
            tracks.append(
                NodeTrack(
                    track_id=f"{kind}{len(tracks)}" if entry.id is None else entry.id,
                    node_type=kind,
                    cluster_id=cluster_id,
                    features=feats,
                    presence=np.ones(T, dtype=bool),
                )
            )
    clusters = tuple(
        FeatureCluster(cid, length) for cid, length in sorted(cluster_lens.items())
    )

    raw_spatial = table.spatial_edges
    spatial = np.zeros((0, 4)) if raw_spatial is None else spatial_edge_rows(raw_spatial, T)

    temporal = table.temporal_edges
    if temporal is None:
        # default: chain every track to itself across consecutive segments
        n, t = np.nonzero(np.ones((len(tracks), T - 1), dtype=bool))
        temporal = np.column_stack([n, t, n, t + 1, np.ones(n.size)])

    return StgSequence(
        num_steps=T,
        num_classes=table.num_classes,
        mode="single",
        clusters=clusters,
        tracks=tuple(tracks),
        spatial_edges=spatial,
        temporal_edges=temporal,
        labels=json_array([0] * T if table.labels is None else table.labels, np.int64,
                          f"{where}: labels"),
        label_mask=np.ones(T, dtype=bool),
    )


def ingest_cad120_file(path: str) -> StgSequence:
    return ingest_cad120_style(read_json(path), f"ingest table {path}")
