"""The benchmark's calls into the library still work, and its tracer still hooks them.

``perfbench/tracing.py`` patches library functions by module attribute name,
so renaming one of them breaks the traced benchmark, and
``perfbench/workloads.py`` calls the training step's functions directly. The
benchmark's own smoke test is not part of this suite; this one is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from stacked_stgcn import tensor, training
from stacked_stgcn.graph import Window
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, synth_generate

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    names = {attr for _, attr, _ in patched}
    assert {"build_adjacency", "slice_sequence", "pad_sequence", "load_stgs"} <= names
    originals = {}
    for owner, attr, orig in patched:
        originals.setdefault((owner, attr), orig)
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("workload", ["train-n6", "train-n40"])
def test_train_workload_setup_takes_one_step_at_smoke_sizes(tmp_path, monkeypatch, workload):
    # setup() runs train_window_sample -> forward_taped -> sequence_loss -> backward
    windows = []
    original = StgcnModel.forward_taped

    def spy(model, window, *args, **kwargs):
        windows.append(window)
        return original(model, window, *args, **kwargs)

    monkeypatch.setattr(StgcnModel, "forward_taped", spy)
    bench = load("workloads").make(workload, str(ROOT), str(tmp_path), seed=3, smoke=True)
    bench.setup()
    assert bench.epoch_estimate > 0
    assert len(windows) == 1 and isinstance(windows[0], Window)


def test_traced_training_opens_one_step_span_per_step_and_builds_no_window_sequence():
    cfg = ModelConfig(cluster_feature_lens=(3, 4), num_classes=3, d_model=4, levels=1, span=2)
    # cropped (T > W), whole (T = W) and padded (T < W) windows
    data = [
        synth_generate(SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(T, T),
                                   temporal_span=2), T)[0]
        for T in (20, 14, 10)
    ]
    train_cfg = training.TrainConfig(max_window=14, epochs=1)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        training.train(data, cfg, train_cfg)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("training.step") == names.count("training.sgd_step") == len(data)
    steps = [span for span in tracer.spans if span.name == "training.step"]
    assert {names[span.parent] for span in steps} == {"training.train"}
    assert "graph.slice_sequence" not in names and "graph.pad_sequence" not in names


def test_train_calls_sgd_step_once_per_optimizer_step_with_every_parameter(monkeypatch):
    # the benchmark stamps a step's end when training.sgd_step returns
    cfg = ModelConfig(cluster_feature_lens=(3,), num_classes=2, d_model=4, levels=1, span=2)
    data = [synth_generate(SynthConfig(num_classes=2, cluster_feature_lens=(3,),
                                       t_range=(T, T), temporal_span=2), T)[0]
            for T in (12, 16, 9)]
    seen = []
    original = training.sgd_step

    def counting(params, grads, *args, **kwargs):
        pairs = list(grads)
        seen.append([path for path, _ in pairs])
        return original(params, pairs, *args, **kwargs)

    monkeypatch.setattr(training, "sgd_step", counting)
    model, _ = training.train(data, cfg, training.TrainConfig(max_window=14, epochs=2))
    assert len(seen) == 2 * len(data)
    assert all(sorted(paths) == sorted(model.params) for paths in seen)


def test_training_backward_stays_a_module_attribute_the_tracer_patches():
    # ``--trace 1`` times tensor.backward through this attribute
    assert training.backward is tensor.backward
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert training.backward is not tensor.backward
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert (training, "backward") in patched and training.backward is tensor.backward
