"""Ingestion of precomputed per-segment feature tables into STGS sequences.

The expected table is a JSON document with actor and object tracks, one
feature row per temporal segment (skeleton features for actors, appearance
and geometry features for objects), optional edge weight lists, and one
label per segment. Actor tracks form cluster 0 and object tracks cluster 1;
feature lengths are taken from the data and must be consistent per cluster.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from .errors import ValidationError
from .graph import FeatureCluster, NodeTrack, StgSequence, validate_sequence
from .tensor import DTYPE


def _track_features(entry: dict, T: int, kind: str) -> np.ndarray:
    rows = entry.get("features")
    if not isinstance(rows, list) or len(rows) != T:
        raise ValidationError(f"{kind} {entry.get('id')!r}: need {T} feature rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{kind} {entry.get('id')!r}: ragged feature rows")
    return np.asarray(rows, dtype=DTYPE)


def ingest_cad120_style(table: dict) -> StgSequence:
    """Build a two-cluster sequence (actor skeleton, object appearance) from tables."""
    try:
        T = int(table["segments"])
        num_classes = int(table["num_classes"])
    except KeyError as exc:
        raise ValidationError(f"missing required field {exc}") from exc
    if T < 1:
        raise ValidationError("need at least one segment")
    actors = table.get("actors", [])
    objects = table.get("objects", [])
    if not actors and not objects:
        raise ValidationError("no tracks in input table")

    tracks: List[NodeTrack] = []
    cluster_lens = {}
    for kind, entries, cluster_id, node_type in (
        ("actor", actors, 0, "actor"),
        ("object", objects, 1, "object"),
    ):
        for entry in entries:
            feats = _track_features(entry, T, kind)
            if cluster_id in cluster_lens and cluster_lens[cluster_id] != feats.shape[1]:
                raise ValidationError(
                    f"{kind} feature length {feats.shape[1]} inconsistent with "
                    f"cluster length {cluster_lens[cluster_id]}"
                )
            cluster_lens[cluster_id] = feats.shape[1]
            tracks.append(
                NodeTrack(
                    track_id=str(entry.get("id", f"{kind}{len(tracks)}")),
                    node_type=node_type,
                    cluster_id=cluster_id,
                    features=feats,
                    presence=np.ones(T, dtype=bool),
                )
            )
    clusters = tuple(
        FeatureCluster(cid, length) for cid, length in sorted(cluster_lens.items())
    )

    raw_spatial = table.get("spatial_edges")
    if raw_spatial is None:
        spatial = tuple(() for _ in range(T))
    else:
        if len(raw_spatial) != T:
            raise ValidationError("spatial_edges must list one edge set per segment")
        spatial = tuple(
            tuple((int(i), int(j), float(w)) for i, j, w in edges)
            for edges in raw_spatial
        )

    raw_temporal = table.get("temporal_edges")
    if raw_temporal is None:
        # default: chain every track to itself across consecutive segments
        temporal = tuple(
            (n, t, n, t + 1, 1.0) for n in range(len(tracks)) for t in range(T - 1)
        )
    else:
        temporal = tuple(
            (int(i), int(ti), int(j), int(tj), float(w))
            for i, ti, j, tj, w in raw_temporal
        )

    labels = np.asarray(table.get("labels", [0] * T), dtype=np.int64)
    seq = StgSequence(
        num_steps=T,
        num_classes=num_classes,
        mode="single",
        clusters=clusters,
        tracks=tuple(tracks),
        spatial_edges=spatial,
        temporal_edges=temporal,
        labels=labels,
        label_mask=np.ones(T, dtype=bool),
    )
    validate_sequence(seq)
    return seq


def ingest_cad120_file(path: str) -> StgSequence:
    with open(path) as fh:
        return ingest_cad120_style(json.load(fh))
