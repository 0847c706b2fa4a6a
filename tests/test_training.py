"""Losses, schedule, optimizer, windowing, training loop, checkpoints."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_grad_close, finite_diff
from stacked_stgcn import training
from stacked_stgcn.errors import NumericalError, ValidationError
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, generate_dataset, synth_generate
from stacked_stgcn.tensor import Tape, Tensor, backward, dump_tensor
from stacked_stgcn.training import (
    TrainConfig,
    leave_one_group_out,
    load_checkpoint,
    masked_bce_loss,
    masked_ce_loss,
    save_checkpoint,
    sgd_step,
    step_lr,
    train,
    train_window_sample,
)


# -- losses ------------------------------------------------------------------


def test_bce_closed_form():
    loss = masked_bce_loss(
        Tensor([[0.0]]), np.array([[1.0]]), np.array([True])
    )
    assert abs(float(loss.data) - math.log(2.0)) < 1e-6


def test_bce_saturation():
    scores = Tensor([[20.0, -20.0]])
    targets = np.array([[1.0, 0.0]])
    loss = masked_bce_loss(scores, targets, np.array([True]))
    assert float(loss.data) < 1e-3


def test_ce_uniform_closed_form():
    scores = Tensor(np.full((2, 10), 0.7, dtype=np.float32))
    loss = masked_ce_loss(scores, np.array([3, 7]), np.array([True, True]))
    assert abs(float(loss.data) - math.log(10.0)) < 1e-6


def test_ce_confident_margin():
    scores = np.zeros((1, 4), dtype=np.float32)
    scores[0, 2] = 20.0
    loss = masked_ce_loss(Tensor(scores), np.array([2]), np.array([True]))
    assert float(loss.data) < 1e-3


def test_ce_out_of_range_label():
    with pytest.raises(ValidationError):
        masked_ce_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]), np.ones(2, dtype=bool))


def test_all_masked_rejected():
    with pytest.raises(ValidationError):
        masked_ce_loss(Tensor(np.zeros((2, 3))), np.array([0, 1]), np.zeros(2, dtype=bool))
    with pytest.raises(ValidationError):
        masked_bce_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.zeros(2, dtype=bool))


def test_losses_ignore_masked_positions(rng):
    scores = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
    labels = np.array([0, 2, 1, 1])
    mask = np.array([True, False, True, False])
    base_ce = float(masked_ce_loss(Tensor(scores), labels, mask).data)
    perturbed = scores.copy()
    perturbed[1] = 99.0
    perturbed[3] = -99.0
    assert float(masked_ce_loss(Tensor(perturbed), labels, mask).data) == base_ce

    targets = (rng.random((4, 3)) < 0.5).astype(np.float32)
    base_bce = float(masked_bce_loss(Tensor(scores), targets, mask).data)
    assert float(masked_bce_loss(Tensor(perturbed), targets, mask).data) == base_bce


@pytest.mark.parametrize("kind", ["ce", "bce"])
def test_loss_gradients_finite_difference(kind, rng):
    scores = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
    labels = rng.integers(0, 3, 5)
    targets = (rng.random((5, 3)) < 0.5).astype(np.float32)
    mask = np.array([True, True, False, True, True])

    def scalar(s):
        t = Tensor(s)
        if kind == "ce":
            return float(masked_ce_loss(t, labels, mask).data)
        return float(masked_bce_loss(t, targets, mask).data)

    tape = Tape()
    watched = tape.watch(scores)
    loss = (
        masked_ce_loss(watched, labels, mask)
        if kind == "ce"
        else masked_bce_loss(watched, targets, mask)
    )
    analytic = backward(tape, loss)[watched.tid]
    numeric = finite_diff(scalar, [scores], 0)
    assert_grad_close(analytic, numeric, context=f"{kind} loss")


# -- schedule and optimizer --------------------------------------------------


def test_step_lr_exact_values():
    cfg = TrainConfig(lr0=0.0004, sched_step=1, sched_drop=0.9)
    assert step_lr(0, cfg) == 0.0004
    assert abs(step_lr(2, cfg) - 0.000324) < 1e-12
    flat = TrainConfig(lr0=0.001, sched_step=5, sched_drop=1.0)
    assert all(step_lr(e, flat) == 0.001 for e in range(20))


def test_step_lr_holds_within_step():
    cfg = TrainConfig(lr0=0.001, sched_step=10, sched_drop=0.5)
    assert step_lr(9, cfg) == 0.001
    assert step_lr(10, cfg) == 0.0005


def test_sgd_zero_gradient_noop(rng):
    params = {"w": rng.uniform(-1, 1, (3, 3)).astype(np.float32)}
    before = params["w"].copy()
    sgd_step(params, {"w": np.zeros((3, 3), dtype=np.float32)}, lr=0.1)
    assert np.array_equal(params["w"], before)


def test_sgd_update_rule(rng):
    w = rng.uniform(-1, 1, (2, 2)).astype(np.float32)
    g = rng.uniform(-1, 1, (2, 2)).astype(np.float32)
    params = {"w": w.copy()}
    sgd_step(params, {"w": g}, lr=0.05)
    assert np.array_equal(params["w"], (w - np.float32(0.05) * g).astype(np.float32))


def test_sgd_momentum_is_heavy_ball(rng):
    w, g1, g2 = (rng.uniform(-1, 1, (2, 3)).astype(np.float32) for _ in range(3))
    params, velocity = {"w": w.copy()}, {}
    sgd_step(params, {"w": g1}, lr=0.1, momentum=0.9, velocity=velocity)
    sgd_step(params, {"w": g2}, lr=0.1, momentum=0.9, velocity=velocity)
    # v1 = g1, v2 = 0.9 v1 + g2, w2 = w - 0.1 v1 - 0.1 v2
    v2 = 0.9 * g1.astype(np.float64) + g2
    expected = w - 0.1 * g1.astype(np.float64) - 0.1 * v2
    np.testing.assert_allclose(velocity["w"], v2, rtol=0, atol=1e-6)
    np.testing.assert_allclose(params["w"], expected, rtol=0, atol=1e-6)


def test_sgd_rejects_nonpositive_lr():
    with pytest.raises(ValidationError):
        sgd_step({"w": np.zeros(1, dtype=np.float32)}, {"w": np.zeros(1, dtype=np.float32)}, 0.0)


# -- windowing ---------------------------------------------------------------


def small_sequence(T):
    cfg = SynthConfig(num_classes=2, cluster_feature_lens=(3,), t_range=(T, T))
    seq, _ = synth_generate(cfg, 1)
    return seq


def test_window_exact_length_passthrough():
    seq = small_sequence(50)
    assert train_window_sample(seq, 50, np.random.default_rng(0)) is seq


def test_window_pads_short_sequences():
    out = train_window_sample(small_sequence(30), 50, np.random.default_rng(0))
    assert out.num_steps == 50
    assert int(out.label_mask.sum()) == 30
    assert not out.label_mask[30:].any()


def test_window_crops_long_sequences():
    seq = small_sequence(120)
    starts = set()
    for trial in range(50):
        out = train_window_sample(seq, 50, np.random.default_rng(trial))
        assert out.num_steps == 50
        # the crop is a contiguous slice of the original labels
        found = [
            s for s in range(0, 71)
            if np.array_equal(seq.labels[s : s + 50], out.labels)
        ]
        assert found
        starts.add(found[0])
    assert min(starts) >= 0 and max(starts) <= 70
    a = train_window_sample(seq, 50, np.random.default_rng(7))
    b = train_window_sample(seq, 50, np.random.default_rng(7))
    assert np.array_equal(a.labels, b.labels)  # deterministic under seeded rng


# -- training loop -----------------------------------------------------------


TINY_MODEL = ModelConfig(
    cluster_feature_lens=(3,), num_classes=2, d_model=6, levels=1, stride=2,
    stack_depth=1, span=2,
)


def tiny_dataset(count=3):
    cfg = SynthConfig(
        num_classes=2, cluster_feature_lens=(3,), t_range=(12, 16),
        mean_scale=5.0, temporal_span=2,
    )
    seqs, _ = generate_dataset(cfg, 21, count)
    return seqs


def test_training_descends():
    data = tiny_dataset()
    cfg = TrainConfig(lr0=0.01, sched_step=1, sched_drop=1.0, max_window=16, epochs=6, seed=0)
    _, curve = train(data, TINY_MODEL, cfg)
    assert curve[-1].loss < curve[0].loss


def test_training_deterministic():
    data = tiny_dataset()
    cfg = TrainConfig(lr0=0.01, sched_step=1, sched_drop=0.9, max_window=16, epochs=3, seed=4)
    model_a, curve_a = train(data, TINY_MODEL, cfg)
    model_b, curve_b = train(data, TINY_MODEL, cfg)
    assert [p.loss for p in curve_a] == [p.loss for p in curve_b]
    for key in model_a.params:
        assert np.array_equal(model_a.params[key], model_b.params[key])


def test_training_updates_the_given_model_in_place():
    data = tiny_dataset(2)
    model = StgcnModel(TINY_MODEL, seed=0)
    arrays = dict(model.params)
    initial = {k: arr.copy() for k, arr in arrays.items()}
    cfg = TrainConfig(lr0=0.01, epochs=2, max_window=16, seed=0, momentum=0.5)
    trained, _ = train(data, TINY_MODEL, cfg, model=model)
    assert trained is model
    assert all(model.params[k] is arr for k, arr in arrays.items())
    assert not all(np.array_equal(initial[k], arr) for k, arr in arrays.items())


def test_training_mode_mismatch():
    data = tiny_dataset(1)
    cfg = TrainConfig(mode="multi", lr0=0.01, epochs=1)
    with pytest.raises(ValidationError):
        train(data, TINY_MODEL, cfg)


def test_training_aborts_on_numerical_blowup():
    data = tiny_dataset(1)
    model = StgcnModel(TINY_MODEL, seed=0)
    model.params["head/w"] = np.full_like(model.params["head/w"], np.inf)
    cfg = TrainConfig(lr0=0.01, epochs=1, max_window=16, seed=0)
    with pytest.raises(NumericalError):
        train(data, TINY_MODEL, cfg, model=model)


def test_training_writes_checkpoints_and_curve(tmp_path):
    data = tiny_dataset(2)
    cfg = TrainConfig(lr0=0.01, epochs=2, max_window=16, seed=0)
    train(data, TINY_MODEL, cfg, out_dir=str(tmp_path))
    assert (tmp_path / "epoch_0000.ckpt").exists()
    assert (tmp_path / "epoch_0001.ckpt").exists()
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,split,loss,metric"
    assert len(lines) == 3


def test_leave_one_group_out_four_folds():
    data = tiny_dataset(8)
    groups = ["s1", "s2", "s3", "s4"] * 2
    folds = leave_one_group_out(data, groups)
    assert len(folds) == 4
    for (held_in, held_out), g in zip(folds, ["s1", "s2", "s3", "s4"]):
        assert len(held_in) == 6 and len(held_out) == 2
        ids = set(map(id, data))
        assert all(id(s) in ids for s in held_in + held_out)
        assert not set(map(id, held_in)) & set(map(id, held_out))
    with pytest.raises(ValidationError):
        leave_one_group_out(data, groups[:-1])


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    model = StgcnModel(TINY_MODEL, seed=3)
    cfg = TrainConfig(lr0=0.01, epochs=2, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, cfg, epoch=1)
    loaded, loaded_cfg, epoch, rng_state = load_checkpoint(str(path))
    assert epoch == 1 and rng_state is None
    assert loaded.cfg == model.cfg and loaded_cfg == cfg
    assert sorted(loaded.params) == sorted(model.params)
    for key in model.params:
        assert np.array_equal(loaded.params[key], model.params[key])
    # re-saving the loaded model reproduces the file bit-exactly
    again = tmp_path / "again.ckpt"
    save_checkpoint(str(again), loaded, loaded_cfg, epoch=1)
    assert path.read_bytes() == again.read_bytes()


def test_failed_checkpoint_save_leaves_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), StgcnModel(TINY_MODEL, seed=3), TrainConfig(), epoch=1)
    before = path.read_bytes()
    written = []

    def failing_dump(fh, arr):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(arr)
        dump_tensor(fh, arr)

    monkeypatch.setattr(training, "dump_tensor", failing_dump)
    with pytest.raises(OSError):
        save_checkpoint(str(path), StgcnModel(TINY_MODEL, seed=4), TrainConfig(), epoch=2)
    assert len(written) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_foreign_file(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((2).to_bytes(4, "little") + b"{}")
    with pytest.raises(ValidationError):
        load_checkpoint(str(bad))


FIXTURES = Path(__file__).resolve().parent / "data"


def test_checkpoint_from_separate_first_layer_path_still_loads(tmp_path):
    """A checkpoint written while the per-cluster first layer had its own code path.

    It was written with ``save_checkpoint(path, StgcnModel(cfg, seed=7),
    TrainConfig(lr0=0.01, seed=0), epoch=3, rng=np.random.default_rng(11))``
    for a two-cluster ``per-cluster-gcn`` model (d_model=4, levels=2), and
    the scores next to it are that model's forward on a fixed synthetic
    sequence, computed with float64 products. The train seed differs from the
    model seed, so the scores only match when the blobs are read. Products
    run in float32, so they are compared at acceptance criterion 4's 1e-5.
    """
    path = FIXTURES / "per_cluster_gcn.ckpt"
    model, train_cfg, epoch, rng_state = load_checkpoint(str(path))
    assert model.cfg.harmonization == "per-cluster-gcn" and epoch == 3
    seq, _ = synth_generate(
        SynthConfig(num_classes=3, cluster_feature_lens=(3, 5), tracks_per_cluster=2,
                    t_range=(10, 10)),
        1,
    )
    expected = np.load(FIXTURES / "per_cluster_gcn_scores.npy")
    assert np.abs(model.forward_scores(seq) - expected).max() <= 1e-5
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    again = tmp_path / "again.ckpt"
    save_checkpoint(str(again), model, train_cfg, epoch, rng)
    assert again.read_bytes() == path.read_bytes()
