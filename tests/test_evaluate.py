"""Sliding-window fusion, evaluation-point selection, F1 and mAP metrics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_stgcn.errors import ValidationError
from stacked_stgcn.evaluate import (
    average_precision,
    evaluate_multi,
    evaluate_single,
    f1_score,
    label_segments,
    mean_ap,
    segment_predictions,
    select_eval_points,
    sliding_infer,
    window_starts,
)
from stacked_stgcn.graph import Window
from stacked_stgcn.synth import SynthConfig, synth_generate


class WindowByWindow:
    """Stub base: ``score_windows`` calls ``forward_scores`` on each window's copy.

    The one window of a sequence shorter than ``window`` is zero-padded.
    """

    def score_windows(self, seq, starts, window):
        return [self.forward_scores(Window(seq, start, window).sequence()) for start in starts]


class EchoModel(WindowByWindow):
    """Stub returning the one-hot ground truth of whatever window it is given."""

    def forward_scores(self, seq):
        out = np.zeros((seq.num_steps, seq.num_classes), dtype=np.float32)
        out[np.arange(seq.num_steps), seq.labels] = 1.0
        return out


class ConstModel(WindowByWindow):
    def __init__(self, value, num_classes):
        self.value = value
        self.num_classes = num_classes

    def forward_scores(self, seq):
        return np.full((seq.num_steps, self.num_classes), self.value, dtype=np.float32)


def sequence_of_length(T, num_classes=3, seed=0):
    cfg = SynthConfig(
        num_classes=num_classes, cluster_feature_lens=(3,), t_range=(T, T)
    )
    seq, _ = synth_generate(cfg, seed)
    return seq


# -- sliding window ----------------------------------------------------------


def test_window_starts_examples():
    assert window_starts(70, 50, 10) == [0, 10, 20]
    assert window_starts(50, 50, 10) == [0]
    assert window_starts(49, 50, 10) == [0]
    assert window_starts(55, 50, 10) == [0, 5]  # final window flushed to T-window


def test_single_window_identity():
    seq = sequence_of_length(50)
    timeline = sliding_infer(seq, EchoModel(), window=50, hop=10)
    expected = EchoModel().forward_scores(seq)
    assert np.array_equal(timeline.scores, expected)
    assert timeline.coverage.tolist() == [1] * 50


def test_fusion_weights_sum_to_one():
    # windows agree per timestep, so correct weights reproduce them exactly
    seq = sequence_of_length(70)
    timeline = sliding_infer(seq, EchoModel(), window=50, hop=10)
    expected = EchoModel().forward_scores(seq)
    assert np.array_equal(timeline.scores, expected)
    # t=25 is covered by the windows starting at 0, 10 and 20
    assert timeline.coverage[25] == 3
    starts = window_starts(70, 50, 10)
    coverage = np.zeros(70, dtype=int)
    for s in starts:
        coverage[s : s + 50] += 1
    assert np.array_equal(timeline.coverage, coverage)
    assert np.all(coverage >= 1)


def test_constant_model_constant_timeline():
    seq = sequence_of_length(83)
    timeline = sliding_infer(seq, ConstModel(2.5, 3), window=50, hop=10)
    assert np.all(timeline.scores == np.float32(2.5))


def test_short_sequence_padded_then_cropped():
    seq = sequence_of_length(20)
    timeline = sliding_infer(seq, EchoModel(), window=50, hop=10)
    assert timeline.scores.shape == (20, 3)
    assert np.array_equal(timeline.scores, EchoModel().forward_scores(seq))


def test_hop_longer_than_window_rejected():
    seq = sequence_of_length(70)
    assert window_starts(70, 20, 60) == [0, 50]  # steps 20..49 lie in no window
    with pytest.raises(ValidationError, match="hop 60 exceeds window 20"):
        sliding_infer(seq, EchoModel(), window=20, hop=60)
    timeline = sliding_infer(seq, EchoModel(), window=20, hop=20)  # abutting windows
    assert np.all(timeline.coverage >= 1)


@settings(max_examples=40, deadline=None)
@given(t_total=st.integers(1, 400), window=st.integers(1, 60), hop=st.integers(1, 30))
def test_window_starts_cover_everything(t_total, window, hop):
    hop = min(hop, window)  # overlapping windows; a hop beyond the window leaves gaps
    starts = window_starts(t_total, window, hop)
    length = min(window, t_total)
    coverage = np.zeros(t_total, dtype=int)
    for s in starts:
        coverage[s : s + length] += 1
    assert np.all(coverage >= 1)
    assert starts == sorted(set(starts))
    assert starts[-1] + window >= t_total


# -- evaluation points -------------------------------------------------------


def test_select_eval_points_cases():
    assert select_eval_points(25) == list(range(25))
    assert select_eval_points(49) == list(range(0, 49, 2))
    assert select_eval_points(1) == [0] * 25
    with pytest.raises(ValidationError):
        select_eval_points(0)


# -- F1 ----------------------------------------------------------------------


def test_f1_perfect_and_worst():
    assert f1_score([0, 1, 2], [0, 1, 2], 3) == 1.0
    assert f1_score([1, 1, 1], [0, 0, 0], 2) == 0.0


def test_f1_hand_case():
    assert abs(f1_score([0, 0, 1], [0, 1, 1], 2) - 2.0 / 3.0) < 1e-12


def test_f1_ignores_absent_classes():
    # class 2 never appears in the truth and must not dilute the macro mean
    with_extra = f1_score([0, 1], [0, 1], 3)
    assert with_extra == 1.0


def test_f1_empty_rejected():
    with pytest.raises(ValidationError):
        f1_score([], [], 2)


def test_f1_invariant_to_label_renaming(rng):
    pred = rng.integers(0, 4, 60)
    true = rng.integers(0, 4, 60)
    perm = np.array([2, 0, 3, 1])
    assert abs(
        f1_score(pred, true, 4) - f1_score(perm[pred], perm[true], 4)
    ) < 1e-12


# -- average precision -------------------------------------------------------


def test_ap_examples():
    assert average_precision(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0
    assert average_precision(np.array([0.1, 0.9]), np.array([1, 0])) == 0.5


def test_ap_needs_positives():
    with pytest.raises(ValidationError):
        average_precision(np.array([0.5]), np.array([0]))


def test_ap_stable_tie_order():
    scores = np.array([0.5, 0.5, 0.5])
    # the positive sits at original position 1, so stable order ranks it 2nd
    assert average_precision(scores, np.array([0, 1, 0])) == 0.5


def test_mean_ap_excludes_all_negative_classes():
    scores = np.array([[0.9, 0.8], [0.1, 0.2]])
    truth = np.array([[1, 0], [0, 0]])
    assert mean_ap(scores, truth) == 1.0
    with pytest.raises(ValidationError):
        mean_ap(scores, np.zeros_like(truth))


def test_map_invariant_to_monotone_transform(rng):
    scores = rng.random((30, 4))
    truth = (rng.random((30, 4)) < 0.3).astype(int)
    truth[0] = 1  # ensure every class has a positive
    a = mean_ap(scores, truth)
    b = mean_ap(3.0 * scores + 1.0, truth)
    assert abs(a - b) < 1e-12


# -- brute-force reference implementations -----------------------------------


def brute_force_f1(pred, true, num_classes):
    """Definition-based macro F1 (2TP / (2TP + FP + FN)) over classes in the truth."""
    values = []
    for c in range(num_classes):
        tp = fp = fn = 0
        for p, t in zip(pred, true):
            if p == c and t == c:
                tp += 1
            elif p == c:
                fp += 1
            elif t == c:
                fn += 1
        if tp + fn == 0:
            continue
        values.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return float(np.mean(values))


def brute_force_ap(scores, truth):
    """Mean precision at each positive when ranked by descending score."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if truth[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def test_metrics_match_brute_force(rng):
    for trial in range(100):
        n = int(rng.integers(2, 20))
        c = int(rng.integers(2, 5))
        pred = rng.integers(0, c, n)
        true = rng.integers(0, c, n)
        assert f1_score(pred, true, c) == brute_force_f1(pred.tolist(), true.tolist(), c)
        truth = (rng.random((n, c)) < 0.4).astype(int)
        truth[int(rng.integers(n)), :] = 1
        scores = np.round(rng.random((n, c)), 2)  # rounding forces ties
        expected = np.mean(
            [brute_force_ap(scores[:, j].tolist(), truth[:, j].tolist()) for j in range(c)]
        )
        assert abs(mean_ap(scores, truth) - expected) < 1e-9


# -- drivers -----------------------------------------------------------------


def test_label_segments_and_majority_vote():
    labels = np.array([0, 0, 0, 1, 1])
    assert label_segments(labels) == [(0, 3, 0), (3, 5, 1)]
    frame_pred = np.array([0, 0, 1, 1, 1])
    preds, truths = segment_predictions(frame_pred, labels)
    assert preds == [0, 1] and truths == [0, 1]


class FixedModel(WindowByWindow):
    """Stub scoring every step of a window by the one-hot of ``pred`` at that step."""

    def __init__(self, pred, num_classes):
        self.scores = np.eye(num_classes, dtype=np.float32)[pred]

    def forward_scores(self, seq):
        out = np.zeros((seq.num_steps, self.scores.shape[1]), dtype=np.float32)
        out[: len(self.scores)] = self.scores[: seq.num_steps]
        return out


def test_segments_do_not_merge_across_masked_gap():
    labels = np.array([0, 0, 1, 1, 0, 0])
    mask = np.array([1, 1, 0, 0, 1, 1], dtype=bool)
    frame_pred = np.array([0, 0, 1, 1, 1, 1])
    assert segment_predictions(frame_pred, labels, mask) == ([0, 1], [0, 0])
    seq = replace(sequence_of_length(6), labels=labels, label_mask=mask)
    result = evaluate_single([seq], FixedModel(frame_pred, seq.num_classes))
    # two class-0 segments, one predicted right: precision 1, recall 1/2
    assert result["per_class"]["0"]["recall"] == 0.5
    assert result["macro_f1"] == pytest.approx(2 / 3)


def test_evaluate_single_echo_model_is_perfect():
    seqs = [sequence_of_length(T, seed=i) for i, T in enumerate((40, 70))]
    result = evaluate_single(seqs, EchoModel())
    assert result["macro_f1"] == 1.0
    per_frame = evaluate_single(seqs, EchoModel(), per_frame=True)
    assert per_frame["macro_f1"] == 1.0


def test_evaluate_multi_echo_model_is_perfect():
    cfg = SynthConfig(
        num_classes=4, cluster_feature_lens=(3,), t_range=(60, 60), mode="multi"
    )
    seqs = [synth_generate(cfg, s)[0] for s in (0, 1)]

    class MultiEcho(WindowByWindow):
        def forward_scores(self, seq):
            return seq.labels.astype(np.float32)

    result = evaluate_multi(seqs, MultiEcho())
    assert result["mAP"] == 1.0
