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
from .graph import FeatureCluster, NodeTrack, StgSequence, spatial_edge_rows
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
    spatial = np.zeros((0, 4)) if raw_spatial is None else spatial_edge_rows(raw_spatial, T)

    temporal = table.get("temporal_edges")
    if temporal is None:
        # default: chain every track to itself across consecutive segments
        n, t = np.nonzero(np.ones((len(tracks), T - 1), dtype=bool))
        temporal = np.column_stack([n, t, n, t + 1, np.ones(n.size)])

    labels = np.asarray(table.get("labels", [0] * T), dtype=np.int64)
    return StgSequence(
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


def ingest_cad120_file(path: str) -> StgSequence:
    with open(path) as fh:
        try:
            table = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return ingest_cad120_style(table)
