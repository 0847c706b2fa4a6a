"""Sliding-window inference with overlap fusion, plus F1 and mAP metrics.

Windows of a fixed length slide over the sequence with a fixed hop (the
final window is flushed against the end); every covered timestep's fused
score is the uniform average over the windows covering it, so the fusion
weights at each timestep sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .graph import StgSequence, Window
from .graph import pad_sequence, slice_sequence  # noqa: F401  (perfbench/tracing.py wraps them)
from .model import StgcnModel
from .tensor import DTYPE


@dataclass(frozen=True)
class ScoreTimeline:
    scores: np.ndarray    # (T, C) fused scores; valid where coverage >= 1
    coverage: np.ndarray  # (T,) number of windows covering each timestep
    mode: str


def window_starts(t_total: int, window: int, hop: int) -> List[int]:
    """Window start offsets: 0, hop, 2*hop, ... plus a final flush at T-window."""
    if window < 1 or hop < 1:
        raise ValidationError("window and hop must be >= 1")
    if t_total <= window:
        return [0]
    starts = list(range(0, t_total - window + 1, hop))
    if starts[-1] != t_total - window:
        starts.append(t_total - window)
    return starts


def sliding_infer(
    seq: StgSequence, model: StgcnModel, window: int = 50, hop: int = 10
) -> ScoreTimeline:
    """Windowed forward passes fused into one per-timestep score timeline.

    A model with ``score_windows`` scores all windows in one call; any
    other model is called once per window with ``forward_scores`` on the
    window's :meth:`~stacked_stgcn.graph.Window.sequence` copy (the one
    window of a shorter sequence is zero-padded to ``window`` steps). A hop
    longer than the window would leave steps unscored, so it is refused.
    """
    if window < 1 or hop < 1:
        raise ValidationError("window and hop must be >= 1")
    if hop > window:
        raise ValidationError(f"hop {hop} exceeds window {window}: steps between windows "
                              "would go unscored")
    T, C = seq.num_steps, seq.num_classes
    total = np.zeros((T, C), dtype=np.float64)
    coverage = np.zeros(T, dtype=np.int64)
    starts = window_starts(T, window, hop)
    if hasattr(model, "score_windows"):
        windows = model.score_windows(seq, starts, window)
    else:
        windows = (model.forward_scores(Window(seq, start, window).sequence()) for start in starts)
    for start, scores in zip(starts, windows):
        stop = min(start + window, T)  # a padded window keeps its first T rows
        total[start:stop] += scores[: stop - start]
        coverage[start:stop] += 1
    fused = np.where(coverage[:, None] > 0, total / np.maximum(coverage[:, None], 1), 0.0)
    return ScoreTimeline(
        scores=fused.astype(DTYPE), coverage=coverage, mode=seq.mode
    )


# the multi-label protocol scores 25 equally spaced timesteps per sequence
EVAL_POINTS = 25


def select_eval_points(t_available: int, k: int = EVAL_POINTS) -> List[int]:
    """k equally spaced timestep indices over [0, T-1]; duplicates when T < k."""
    if t_available < 1:
        raise ValidationError("need at least one available timestep")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k == 1:
        return [0]
    return [int(round(i * (t_available - 1) / (k - 1))) for i in range(k)]


def f1_score(pred: Sequence[int], true: Sequence[int], num_classes: int) -> float:
    """Macro F1 over the classes present in the ground truth."""
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.shape != true.shape or pred.size == 0:
        raise ValidationError("predictions and ground truth must be equal, non-empty")
    return float(np.mean([m["f1"] for m in _per_class_prf(pred, true, num_classes).values()]))


def average_precision(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mean of precision at each positive hit in score-descending order.

    Ties keep their original order (stable sort).
    """
    order = np.argsort(-scores, kind="stable")
    hits = truth[order].astype(bool)
    if not hits.any():
        raise ValidationError("average precision needs at least one positive")
    ranks = np.flatnonzero(hits) + 1
    precision_at_hit = np.arange(1, len(ranks) + 1) / ranks
    return float(precision_at_hit.mean())


def mean_ap(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mean average precision over classes with at least one positive."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape or scores.ndim != 2:
        raise ValidationError("scores and truth must both be (M, C)")
    aps = []
    for c in range(scores.shape[1]):
        if truth[:, c].any():
            aps.append(average_precision(scores[:, c], truth[:, c]))
    if not aps:
        raise ValidationError("no positives in any class")
    return float(np.mean(aps))


# ---------------------------------------------------------------------------
# evaluation drivers


def label_segments(labels: np.ndarray) -> List[Tuple[int, int, int]]:
    """Maximal runs of a constant label as (start, end_exclusive, label)."""
    segs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            segs.append((start, t, int(labels[start])))
            start = t
    return segs


def segment_predictions(
    frame_pred: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tuple[List[int], List[int]]:
    """Majority-vote frame predictions within each ground-truth segment.

    Segments are runs of ``labels`` over the whole timeline; only the steps
    ``mask`` keeps vote, and a segment with none of them is dropped.
    """
    keep = np.ones(len(labels), dtype=bool) if mask is None else mask
    preds, truths = [], []
    for start, end, label in label_segments(labels):
        votes = frame_pred[start:end][keep[start:end]]
        if votes.size:
            preds.append(int(np.bincount(votes).argmax()))
            truths.append(label)
    return preds, truths


def evaluate_single(
    sequences: Sequence[StgSequence],
    model: StgcnModel,
    window: int = 50,
    hop: int = 10,
    per_frame: bool = False,
) -> dict:
    """Macro F1 for single-label data, per labeled segment by default."""
    preds: List[int] = []
    truths: List[int] = []
    num_classes = sequences[0].num_classes
    for seq in sequences:
        timeline = sliding_infer(seq, model, window=window, hop=hop)
        frame_pred = timeline.scores.argmax(axis=1)
        mask = seq.label_mask
        if per_frame:
            preds.extend(frame_pred[mask].tolist())
            truths.extend(seq.labels[mask].tolist())
        else:
            p, t = segment_predictions(frame_pred, seq.labels, mask)
            preds.extend(p)
            truths.extend(t)
    per_class = _per_class_prf(np.asarray(preds), np.asarray(truths), num_classes)
    return {
        "per_class": per_class,
        "macro_f1": f1_score(preds, truths, num_classes),
    }


def evaluate_multi(
    sequences: Sequence[StgSequence],
    model: StgcnModel,
    window: int = 50,
    hop: int = 10,
) -> dict:
    """mAP over score vectors sampled at :data:`EVAL_POINTS` equally spaced points per sequence.

    ``sequences`` in the result holds, per input sequence, the sampled
    ``eval_points``, their ``point_scores`` and the ``full_scores`` timeline.
    """
    all_scores, all_truth, details = [], [], []
    for seq in sequences:
        timeline = sliding_infer(seq, model, window=window, hop=hop)
        available = np.flatnonzero(seq.label_mask)
        points = [int(available[i]) for i in select_eval_points(len(available))]
        all_scores.append(timeline.scores[points])
        all_truth.append(seq.labels[points])
        details.append(
            {
                "eval_points": points,
                "point_scores": timeline.scores[points].tolist(),
                "full_scores": timeline.scores.tolist(),
            }
        )
    scores = np.vstack(all_scores)
    truth = np.vstack(all_truth)
    per_class = {}
    for c in range(scores.shape[1]):
        if truth[:, c].any():
            per_class[str(c)] = {"ap": average_precision(scores[:, c], truth[:, c])}
    return {"per_class": per_class, "mAP": mean_ap(scores, truth), "sequences": details}


def _per_class_prf(pred: np.ndarray, true: np.ndarray, num_classes: int) -> dict:
    """Precision, recall and F1 per class present in the ground truth."""
    out = {}
    for c in range(num_classes):
        tp = int(np.sum((pred == c) & (true == c)))
        fp = int(np.sum((pred == c) & (true != c)))
        fn = int(np.sum((pred != c) & (true == c)))
        if tp + fn == 0:
            continue  # class absent from ground truth
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        out[str(c)] = {"precision": precision, "recall": tp / (tp + fn),
                       "f1": 2 * tp / (2 * tp + fp + fn)}
    return out
