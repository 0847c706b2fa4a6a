"""Model assembly: parameter keys, the optional layer knobs, folded inference."""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stacked_stgcn import model as model_module
from stacked_stgcn import tensor as tn
from stacked_stgcn.errors import ConfigurationError, NumericalError, ValidationError
from stacked_stgcn.evaluate import sliding_infer, window_starts
from stacked_stgcn.gradcheck import check_model_gradients
from stacked_stgcn.graph import Window, apply_deformation, load_stgs
from stacked_stgcn.model import ModelConfig, StgcnModel, parameter_table
from stacked_stgcn.synth import SynthConfig, sample_drop_schedule, synth_generate
from stacked_stgcn.tensor import DTYPE, backward
from stacked_stgcn.training import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    sgd_step,
)

from dense_reference import window_copy


def tiny_config(**knobs):
    return ModelConfig(
        cluster_feature_lens=(3, 4), num_classes=3, d_model=4, levels=1, span=2, **knobs
    )


def test_per_cluster_first_layer_keys():
    keys = set(StgcnModel(tiny_config(), seed=0).params)
    assert keys == {
        "block0/enc0/ws0", "block0/enc0/ws1", "block0/enc0/wt", "block0/enc0/conv",
        "block0/bottleneck/ws", "block0/bottleneck/wt", "block0/dec0/deconv",
        "head/w", "head/b",
    }


@pytest.mark.parametrize(
    "knob, added",
    [
        ("gcn_bias", {"block0/enc0/bias", "block0/bottleneck/bias"}),
    ],
)
def test_knob_parameters_and_gradients(knob, added):
    base = set(StgcnModel(tiny_config(), seed=0).params)
    model = StgcnModel(tiny_config(**{knob: True}), seed=0)
    assert set(model.params) - base == added
    # A bias shifts every row of its channel, so the finite-difference step
    # crosses the ReLU kink of any row within the step of zero: at zero biases
    # one bottleneck pre-activation here sits at 2.4e-5. Check at nonzero biases.
    rng = np.random.default_rng(0)
    for key in sorted(added):
        if key.endswith("/bias"):
            model.params[key] = rng.uniform(-0.1, 0.1, model.params[key].shape).astype(DTYPE)
    synth = SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(8, 8))
    seq, _ = synth_generate(synth, 0)
    reports = check_model_gradients(model, seq, "single", seed=0)
    assert {r.name for r in reports} == set(model.params)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


# -- inference on folded weights ---------------------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def preset(name, **knobs):
    doc = json.loads((CONFIGS / f"{name}.model.json").read_text())
    return ModelConfig.from_dict(dict(doc, d_model=16, **knobs))


def sequence_for(cfg, seed=0):
    synth = SynthConfig(
        num_classes=cfg.num_classes, cluster_feature_lens=cfg.cluster_feature_lens,
        tracks_per_cluster=2, t_range=(12, 12), temporal_span=cfg.span, mode=cfg.head_mode,
    )
    return synth_generate(synth, seed)[0]


def with_nonzero_biases(model, seed=1):
    rng = np.random.default_rng(seed)
    for key, arr in model.params.items():
        if key.endswith("/bias") or key == "head/b":
            model.params[key] = rng.uniform(-0.1, 0.1, arr.shape).astype(DTYPE)
    return model


@pytest.mark.parametrize(
    "cfg",
    [
        preset("cad120"),
        preset("charades_i3d"),
        preset("charades_vgg"),
        tiny_config(gcn_bias=True),
        replace(tiny_config(), levels=0),
        tiny_config(stack_depth=2),
        tiny_config(center_input=False),
        preset("charades_vgg", levels=0, gcn_bias=True),
    ],
    ids=["cad120", "charades_i3d", "charades_vgg", "gcn_bias", "levels0",
         "stack_depth2", "no_centering", "vgg_levels0_bias"],
)
def test_forward_scores_match_taped_forward(cfg):
    model = with_nonzero_biases(StgcnModel(cfg, seed=0))
    seq = sequence_for(cfg)
    taped = model.forward_taped(Window(seq))[2].data
    scores = model.forward_scores(seq)
    assert scores.shape == taped.shape
    assert np.abs(scores - taped).max() <= 1e-6


# -- scoring many windows of one sequence --------------------------------------

STGS_FIXTURE = Path(__file__).parent / "data" / "deformed_two_cluster.stgs"


def per_window(model):
    """``model`` behind ``forward_scores`` only, so sliding_infer scores window by window."""
    return SimpleNamespace(forward_scores=model.forward_scores)


def assert_windows_match_per_window_loop(model, seq, window, hop):
    fused = sliding_infer(seq, model, window=window, hop=hop)
    looped = sliding_infer(seq, per_window(model), window=window, hop=hop)
    assert np.array_equal(fused.coverage, looped.coverage)
    assert np.abs(fused.scores - looped.scores).max() <= 1e-6
    starts = window_starts(seq.num_steps, window, hop)
    scores = model.score_windows(seq, starts, window)
    assert [s.shape for s in scores] == [(window, seq.num_classes)] * len(starts)


@pytest.mark.parametrize(
    "cfg",
    [
        preset("cad120"),
        preset("charades_i3d"),
        preset("charades_vgg"),
        tiny_config(gcn_bias=True),
        replace(tiny_config(), levels=0),
        tiny_config(stack_depth=2),
        tiny_config(center_input=False),
    ],
    ids=["cad120", "charades_i3d", "charades_vgg", "gcn_bias", "levels0", "stack_depth2",
         "no_centering"],
)
@pytest.mark.parametrize(
    "window, hop",
    [(16, 4), (11, 5), (8, 3)],
    ids=["padded", "window_plus_one", "flush"],  # T = 12: starts [0], [0, 1], [0, 3, 4]
)
def test_score_windows_match_the_per_window_loop(cfg, window, hop):
    model = with_nonzero_biases(StgcnModel(cfg, seed=0))
    assert_windows_match_per_window_loop(model, sequence_for(cfg), window, hop)


@pytest.mark.parametrize("window, hop", [(5, 2), (3, 3), (2, 1)])
def test_score_windows_on_edges_across_window_borders(window, hop):
    seq = load_stgs(str(STGS_FIXTURE))  # span 2, gap-bridging and cross-cluster edges
    model = with_nonzero_biases(StgcnModel(tiny_config(gcn_bias=True), seed=0))
    assert_windows_match_per_window_loop(model, seq, window, hop)


def taped_run(model, window):
    """Scores, loss, parameter gradients and tape length of one taped step on ``window``."""
    tape, taped, scores = model.forward_taped(window)
    records = len(tape._records)
    loss = sequence_loss(scores, window, model.cfg.head_mode)
    grads = backward(tape, loss)
    return scores.data, loss.data, {path: grads[t.tid] for path, t in taped.items()}, records


@pytest.mark.parametrize("cfg_name", ["gcn_bias", "charades_vgg"])
def test_windows_match_the_sliced_and_padded_sequences_bit_for_bit(cfg_name):
    if cfg_name == "gcn_bias":  # span 2, gap-bridging and cross-cluster edges, T = 12
        cfg, seq = tiny_config(gcn_bias=True), load_stgs(str(STGS_FIXTURE))
    else:  # the projection harmonization
        cfg = preset("charades_vgg")
        seq = sequence_for(cfg)
    model = with_nonzero_biases(StgcnModel(cfg, seed=0))
    T = seq.num_steps
    records = []
    # cropped with edges across both borders, flush with either end, the whole
    # sequence (T = W) and padded (T < W)
    for start, length in ((3, 5), (0, 5), (7, 5), (0, T), (0, T + 5)):
        sliced = window_copy(seq, start, length)
        scores, loss, grads, n = taped_run(model, Window(seq, start, length))
        want_scores, want_loss, want_grads, want_n = taped_run(model, Window(sliced))
        assert np.array_equal(scores, want_scores) and np.array_equal(loss, want_loss)
        assert grads.keys() == want_grads.keys()
        for path, g in grads.items():
            assert np.array_equal(g, want_grads[path]), path
        assert n == want_n
        records.append(n)
    # a padded window records what a cropped one of the same parity does (an odd
    # extent pads before the strided conv)
    assert records[-1] == records[0]


def test_score_windows_runs_the_prefix_per_sequence_and_adjacency_per_window(monkeypatch):
    cfg = tiny_config()
    model = StgcnModel(cfg, seed=0)
    seq = sequence_for(cfg)  # T = 12
    calls = {"harmonize_projection": 0, "build_adjacency": 0}
    for name in calls:
        original = getattr(model_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(model_module, name, counting)
    assert window_starts(12, 5, 2) == [0, 2, 4, 6, 7]
    sliding_infer(seq, model, window=5, hop=2)
    # the prefix in 5-step chunks (steps 0-4, 5-9, 10-11); each window builds its
    # own raw adjacency from the edge tables (holding a sequence's costs memory)
    assert calls == {"harmonize_projection": 3, "build_adjacency": 5}


def test_score_windows_checks_classes_and_cluster_widths():
    model = StgcnModel(tiny_config(), seed=0)
    seq = sequence_for(tiny_config())
    with pytest.raises(ValidationError, match="classes"):
        model.score_windows(replace(seq, num_classes=4), [0], 5)
    wider = SynthConfig(num_classes=3, cluster_feature_lens=(3, 5), t_range=(12, 12))
    with pytest.raises(ValidationError, match="feature lengths"):
        model.score_windows(synth_generate(wider, 0)[0], [0], 5)
    with pytest.raises(ValidationError, match="window out of range"):
        model.score_windows(seq, [8], 5)


def test_projection_rejects_a_node_type_whose_tracks_differ_in_width():
    cfg = replace(tiny_config(), harmonization="projection",
                  node_type_clusters=(("actor", 0), ("object", 1)))
    seq = sequence_for(tiny_config())
    # every track an actor: cluster 1's 4-wide tracks meet the 3-wide actor kernel
    seq = replace(seq, tracks=tuple(replace(tr, node_type="actor") for tr in seq.tracks))
    model = StgcnModel(cfg, seed=0)
    for run in (model.forward_scores, lambda s: model.forward_taped(Window(s))):
        with pytest.raises(ConfigurationError, match="expects width 3, got 4"):
            run(seq)


def test_folding_leaves_one_product_per_layer(monkeypatch):
    cfg = preset("charades_vgg")  # 2 node types, 3 blocks of 3 layers, head
    model = StgcnModel(cfg, seed=0)
    seq = sequence_for(cfg)
    shapes = []
    original = tn.matmul

    def counting(a, b):
        shapes.append(b.shape)
        return original(a, b)

    monkeypatch.setattr(tn, "matmul", counting)
    model.forward_taped(Window(seq))
    assert len(shapes) == 2 + 9 * 2 + 1
    shapes.clear()
    model.forward_scores(seq)
    # the two kernels, block0/enc0's weight on the prefix rows, enc0 of blocks 1
    # and 2, the head: each enc1 and bottleneck folds into the conv before it
    assert len(shapes) == 2 + 1 + 2 + 1


def test_folded_view_is_rebuilt_when_parameters_are_replaced():
    cfg = tiny_config()
    model = StgcnModel(cfg, seed=0)
    seq = sequence_for(cfg)
    before = model.forward_scores(seq)
    view = model._inference_params()
    assert model._inference_params() is view  # built once per parameter state
    assert all(t.tape is None for t in view.values())
    tape, taped, scores = model.forward_taped(Window(seq))
    grads = backward(tape, sequence_loss(scores, seq, "single"))
    sgd_step(model.params, {k: grads[t.tid] for k, t in taped.items()}, lr=0.5)
    after_step = model.forward_scores(seq)
    assert not np.array_equal(after_step, before)
    assert np.abs(after_step - model.forward_taped(Window(seq))[2].data).max() <= 1e-6
    model.params["head/b"] = model.params["head/b"] + DTYPE(1)
    assert np.abs(model.forward_scores(seq) - after_step - 1.0).max() <= 1e-6


def test_folded_view_follows_the_store_version(tmp_path):
    cfg = tiny_config(gcn_bias=True)
    model = with_nonzero_biases(StgcnModel(cfg, seed=0))
    seq = sequence_for(cfg)

    def folded_matches_taped():
        folded = model.forward_scores(seq)
        assert np.abs(folded - model.forward_taped(Window(seq))[2].data).max() <= 1e-6
        return folded

    before = folded_matches_taped()
    arrays = dict(model.params)
    version = model.params.version
    tape, taped, scores = model.forward_taped(Window(seq))
    grads = backward(tape, sequence_loss(scores, seq, "single"))
    sgd_step(model.params, {k: grads[t.tid] for k, t in taped.items()}, lr=0.5)
    assert all(model.params[k] is arr for k, arr in arrays.items())  # updated in place
    assert model.params.version == version + len(arrays)
    after_step = folded_matches_taped()
    assert not np.array_equal(after_step, before)

    view = model._inference_params()
    model.params["block0/enc0/wt"][0, 0] += DTYPE(1)  # an element edit keeps the view
    assert model._inference_params() is view
    model.params["block0/enc0/wt"] = model.params["block0/enc0/wt"]  # assignment rebuilds it
    assert model._inference_params() is not view
    after_assign = folded_matches_taped()
    assert not np.array_equal(after_assign, after_step)

    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, TrainConfig(), epoch=0)
    loaded = load_checkpoint(str(path))[0]
    assert np.array_equal(loaded.forward_scores(seq), after_assign)
    model = loaded
    folded_matches_taped()


# The op outputs that are not scanned for finiteness. A non-finite value in any of
# them must still reach a check: a ReLU input, a row-dropping op's input or the scores.
UNSCANNED_OPS = ("banded_matmul", "matmul", "add", "conv1d_temporal", "deconv1d_temporal",
                 "tap_matmul", "slice_axis")


def count_or_inject(patch, op, call=None, value=0.0, spot=0):
    """Wrap ``tn.<op>`` to count its calls and put ``value`` at flat ``spot`` of call ``call``."""
    calls = []
    orig = getattr(tn, op)

    def wrapped(*args, **kwargs):
        out = orig(*args, **kwargs)
        if len(calls) == call:
            data = np.array(out.data)
            data.flat[spot] = value
            out = tn._unchecked(data, out.tape, out.tid)
        calls.append(op)
        return out

    patch.setattr(tn, op, wrapped)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("op", UNSCANNED_OPS)
def test_a_non_finite_op_output_is_caught_at_a_boundary(monkeypatch, op, value):
    # two blocks (a deconv decoder and the pooled head's tap_matmul), biases, and T = 13
    # steps, so the head crops rows at both levels; absent nodes give zero pooling weights
    cfg = ModelConfig(cluster_feature_lens=(3, 4), num_classes=3, d_model=4, levels=2, span=2,
                      stack_depth=2, gcn_bias=True)
    seq = sequence_for(cfg)
    seq = apply_deformation(seq, sample_drop_schedule(seq, 0.3, np.random.default_rng(2)))
    seq = Window(seq, 0, 13).sequence()
    model = with_nonzero_biases(StgcnModel(cfg, seed=0))
    runs = {
        "forward_taped": lambda: model.forward_taped(Window(seq)),
        "score_windows": lambda: model.score_windows(seq, [0, 4], 9),
    }
    for name, run in runs.items():
        with monkeypatch.context() as patch:
            calls = count_or_inject(patch, op)
            run()
        assert calls, (op, name)
        for call in range(len(calls)):
            for spot in (0, -1):
                with monkeypatch.context() as patch:
                    count_or_inject(patch, op, call, value, spot)
                    with pytest.raises(NumericalError):
                        run()


def test_from_params_stores_writable_float32_arrays():
    cfg = tiny_config()
    params = dict(StgcnModel(cfg, seed=0).params)
    frozen = params["head/w"].copy()
    frozen.setflags(write=False)
    wide = params["head/b"].astype(np.float64)
    model = StgcnModel.from_params(cfg, dict(params, **{"head/w": frozen, "head/b": wide}))
    for key, source in (("head/w", frozen), ("head/b", wide)):
        stored = model.params[key]
        assert stored is not source and stored.dtype == DTYPE and stored.flags.writeable
        assert np.array_equal(stored, source)
    assert all(model.params[k] is params[k] for k in params if k not in ("head/w", "head/b"))


def test_from_params_checks_the_parameter_table():
    cfg = tiny_config()
    params = StgcnModel(cfg, seed=0).params
    model = StgcnModel.from_params(cfg, params)
    assert all(model.params[k] is params[k] for k in params)
    assert list(model.params) == list(parameter_table(cfg))
    with pytest.raises(ValidationError, match="block0/enc0/wt"):
        StgcnModel.from_params(cfg, dict(params, **{"block0/enc0/wt": np.zeros((4, 5), DTYPE)}))
    with pytest.raises(ValidationError, match="head/b"):
        StgcnModel.from_params(cfg, {k: v for k, v in params.items() if k != "head/b"})


@pytest.mark.parametrize("levels, stride, ok", [
    (62, 2, True), (63, 1, False), (62, 3, False), (1, 2**62, True), (2, 2**32, False),
])
def test_levels_are_bounded_before_the_parameter_table(levels, stride, ok):
    # a level-l step spans stride ** l input steps, an int64 count
    cfg = dict(cluster_feature_lens=(3,), num_classes=2, d_model=4, levels=levels, stride=stride)
    if ok:
        assert ModelConfig(**cfg).levels == levels
    else:
        with pytest.raises(ConfigurationError, match="levels must be <= 62"):
            ModelConfig(**cfg)
