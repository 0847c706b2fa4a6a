"""Synthetic graph-sequence generation for desk-scale verification.

Each generated sequence carries class-conditional Gaussian node features:
every (class, track) pair has a fixed mean vector shared across the dataset,
and each timestep's features are that mean plus isotropic noise. Labels
change at random segment boundaries, so the per-timestep label is recoverable
from the features by a nearest-mean classifier, which serves as the Bayes
oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .blocks import allocatable
from .config import DictCodec
from .errors import ValidationError
from .graph import NODE_TYPES, FeatureCluster, NodeTrack, StgSequence
from .tensor import DTYPE


@dataclass(frozen=True)
class SynthConfig(DictCodec):
    num_classes: int = 5
    cluster_feature_lens: Tuple[int, ...] = (8, 12)
    tracks_per_cluster: int = 1
    t_range: Tuple[int, int] = (30, 80)
    segment_len_range: Tuple[int, int] = (6, 15)
    noise: float = 0.3
    mean_scale: float = 1.0
    spatial_eps: float = 0.1
    temporal_span: int = 3
    temporal_weight: float = 1.0
    mode: str = "single"

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if min(self.cluster_feature_lens, default=0) < 1:
            raise ValidationError("need at least 1 feature cluster, each of length >= 1")
        if self.tracks_per_cluster < 1:
            raise ValidationError("need at least 1 track per cluster")
        if self.t_range[0] < 1 or self.t_range[1] < self.t_range[0]:
            raise ValidationError("bad t_range")
        if self.segment_len_range[0] < 1 or self.segment_len_range[1] < self.segment_len_range[0]:
            raise ValidationError("bad segment_len_range")
        if self.noise < 0 or self.spatial_eps < 0 or self.temporal_span < 1:
            raise ValidationError("degenerate synthesis parameters")

    @property
    def num_tracks(self) -> int:
        return len(self.cluster_feature_lens) * self.tracks_per_cluster


def make_class_means(cfg: SynthConfig, rng: np.random.Generator) -> List[List[np.ndarray]]:
    """Per-class, per-track mean vectors; shared across a dataset."""
    means = []
    for _ in range(cfg.num_classes):
        row = []
        for ci, flen in enumerate(cfg.cluster_feature_lens):
            for _ in range(cfg.tracks_per_cluster):
                row.append(
                    (cfg.mean_scale * rng.standard_normal(allocatable((flen,), np.float64)))
                    .astype(DTYPE)
                )
        means.append(row)
    return means


def _segment_labels(T: int, cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    labels = np.zeros(allocatable((T,), np.int64), dtype=np.int64)
    t = 0
    prev = -1
    while t < T:
        length = int(rng.integers(*cfg.segment_len_range, endpoint=True))
        cls = int(rng.integers(cfg.num_classes))
        while cls == prev and cfg.num_classes > 1:
            cls = int(rng.integers(cfg.num_classes))
        labels[t : t + length] = cls
        prev = cls
        t += length
    return labels


def synth_generate(
    cfg: SynthConfig,
    seed: int,
    means: Optional[List[List[np.ndarray]]] = None,
) -> Tuple[StgSequence, dict]:
    """Generate one labeled sequence; deterministic given seed and means.

    Returns the sequence and the generative parameters used (for oracle
    checks): the config as a dict and the class means as arrays. When
    ``means`` is None, fresh means are drawn from the same rng.
    """
    rng = np.random.default_rng(seed)
    if means is None:
        means = make_class_means(cfg, rng)
    T = int(rng.integers(*cfg.t_range, endpoint=True))
    N = cfg.num_tracks
    C = cfg.num_classes

    if cfg.mode == "single":
        labels = _segment_labels(T, cfg, rng)
        active = np.zeros(allocatable((T, C), bool), dtype=bool)
        active[np.arange(T), labels] = True
    else:
        active = np.zeros(allocatable((T, C), bool), dtype=bool)
        for c in range(C):
            t = 0
            on = bool(rng.random() < 0.3)
            while t < T:
                length = int(rng.integers(*cfg.segment_len_range, endpoint=True))
                active[t : t + length, c] = on
                on = not on
                t += length
        labels = active.astype(DTYPE)

    clusters = tuple(
        FeatureCluster(ci, flen) for ci, flen in enumerate(cfg.cluster_feature_lens)
    )
    tracks = []
    n = 0
    for ci, flen in enumerate(cfg.cluster_feature_lens):
        node_type = NODE_TYPES[ci % len(NODE_TYPES)]
        for k in range(cfg.tracks_per_cluster):
            base = np.zeros(allocatable((T, flen), np.float64), dtype=np.float64)
            for c in range(C):
                base[active[:, c]] += means[c][n]
            feats = base + cfg.noise * rng.standard_normal((T, flen))  # as large as base: checked
            tracks.append(
                NodeTrack(
                    track_id=f"c{ci}n{k}",
                    node_type=node_type,
                    cluster_id=ci,
                    features=feats.astype(DTYPE),
                    presence=np.ones(T, dtype=bool),
                )
            )
            n += 1

    # np.nonzero lists indices in row-major order: rows sorted by (t, i, j) and (n, t, gap)
    t, i, j = np.nonzero(np.broadcast_to(np.triu(np.ones((N, N), dtype=bool), 1), (T, N, N)))
    spatial = np.column_stack([t, i, j, np.full(t.size, cfg.spatial_eps)])
    inside = np.arange(T)[:, None] + np.arange(1, cfg.temporal_span + 1) < T  # (t, gap - 1)
    n, t, d = np.nonzero(np.broadcast_to(inside, (N,) + inside.shape))
    temporal = np.column_stack([n, t, n, t + d + 1, np.full(n.size, cfg.temporal_weight)])
    seq = StgSequence(
        num_steps=T,
        num_classes=C,
        mode=cfg.mode,
        clusters=clusters,
        tracks=tuple(tracks),
        spatial_edges=spatial,
        temporal_edges=temporal,
        labels=labels,
        label_mask=np.ones(T, dtype=bool),
    )
    return seq, {"config": cfg.to_dict(), "means": means}


def generate_dataset(
    cfg: SynthConfig, seed: int, count: int
) -> Tuple[List[StgSequence], dict]:
    """Generate ``count`` sequences sharing one set of class means, and their oracle."""
    children = np.random.SeedSequence(seed).spawn(count + 1)
    means = make_class_means(cfg, np.random.default_rng(children[0]))
    seqs = [
        synth_generate(cfg, int(child.generate_state(1)[0]), means=means)[0]
        for child in children[1:]
    ]
    return seqs, {"config": cfg.to_dict(), "means": means}


def bayes_predict(seq: StgSequence, means: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Nearest-mean classification per timestep using the true generative means."""
    T = seq.num_steps
    C = len(means)
    cost = np.zeros((T, C), dtype=np.float64)
    for n, tr in enumerate(seq.tracks):
        for c in range(C):
            diff = tr.features.astype(np.float64) - np.asarray(means[c][n], dtype=np.float64)
            cost[:, c] += np.where(tr.presence, (diff ** 2).sum(axis=1), 0.0)
    return cost.argmin(axis=1)


def sample_drop_schedule(
    seq: StgSequence,
    rate: float,
    rng: np.random.Generator,
    burst: int = 2,
) -> List[Tuple[int, int]]:
    """Random (track, timestep) drops covering ~``rate`` of all cells.

    Drops are sampled in short per-track bursts of ``burst`` consecutive
    timesteps, mimicking missed detections and occlusions that persist for a
    few frames.
    """
    if not 0 <= rate <= 1:
        raise ValidationError("drop rate must be in [0, 1]")
    N, T = seq.num_tracks, seq.num_steps
    target = int(round(rate * N * T))
    seen = set()
    schedule: List[Tuple[int, int]] = []
    while len(seen) < target:
        n = int(rng.integers(N))
        s = int(rng.integers(T))
        for t in range(s, min(s + burst, T)):
            if (n, t) not in seen:
                seen.add((n, t))
                schedule.append((n, t))
                if len(seen) >= target:
                    break
    return schedule
