"""The checked-in dataset presets parse into valid configurations; the config codec."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stacked_stgcn.errors import ConfigurationError, ValidationError
from stacked_stgcn.ingest import _Table
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, synth_generate
from stacked_stgcn.training import CheckpointHeader, TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load(name):
    return json.loads((CONFIGS / name).read_text())


def test_cad120_preset():
    model = ModelConfig.from_dict(load("cad120.model.json"))
    assert model.cluster_feature_lens == (630, 180)
    assert model.num_classes == 10 and model.d_model == 512
    train = TrainConfig.from_dict(load("cad120.train.json"))
    assert (train.lr0, train.sched_drop, train.sched_step) == (0.0004, 0.9, 1)
    assert train.mode == "single" and train.max_window == 50


def test_charades_vgg_preset():
    model = ModelConfig.from_dict(load("charades_vgg.model.json"))
    assert model.num_classes == 157 and model.head_mode == "multi"
    assert model.stack_depth == 3 and model.span == 3
    assert model.harmonization == "projection"
    train = TrainConfig.from_dict(load("charades_vgg.train.json"))
    assert (train.lr0, train.sched_drop, train.sched_step) == (0.001, 0.999, 10)


def test_charades_i3d_preset():
    model = ModelConfig.from_dict(load("charades_i3d.model.json"))
    assert model.num_classes == 157 and model.stack_depth == 1
    train = TrainConfig.from_dict(load("charades_i3d.train.json"))
    assert (train.lr0, train.sched_drop, train.sched_step) == (0.0005, 0.995, 10)


def test_presets_round_trip():
    for name in ("cad120", "charades_vgg", "charades_i3d"):
        model = ModelConfig.from_dict(load(f"{name}.model.json"))
        assert ModelConfig.from_dict(model.to_dict()) == model
        train = TrainConfig.from_dict(load(f"{name}.train.json"))
        assert TrainConfig.from_dict(train.to_dict()) == train


@pytest.mark.parametrize("name", ["cad120", "charades_i3d", "charades_vgg"])
def test_preset_scores_depend_on_the_input(name):
    # centering zeroes a node that is alone at its timestep; a preset whose
    # clusters hold one track each on synthetic data must not center
    cfg = ModelConfig.from_dict(dict(load(f"{name}.model.json"), d_model=8))
    synth = SynthConfig(num_classes=cfg.num_classes, cluster_feature_lens=cfg.cluster_feature_lens,
                        mode=cfg.head_mode)
    seq, _ = synth_generate(synth, 0)
    rng = np.random.default_rng(0)
    perturbed = replace(seq, tracks=tuple(
        replace(tr, features=tr.features + rng.normal(size=tr.features.shape).astype(np.float32)
                * tr.presence[:, None])
        for tr in seq.tracks
    ))
    model = StgcnModel(cfg, seed=0)
    change = np.abs(model.forward_scores(perturbed) - model.forward_scores(seq)).max()
    assert change > 1e-3, f"{name}: perturbing every feature moved the scores by {change:.2e}"


def test_codec_defaults_unknown_keys_and_tuples():
    synth = SynthConfig.from_dict({"t_range": [4, 9], "train_count": 3})
    assert synth == SynthConfig(t_range=(4, 9))
    assert synth.to_dict()["t_range"] == [4, 9]
    model = ModelConfig.from_dict(
        {"cluster_feature_lens": [3], "num_classes": 2, "harmonization": "projection",
         "node_type_clusters": [["actor", 0]]}
    )
    assert model.node_type_clusters == (("actor", 0),)
    assert model.to_dict()["node_type_clusters"] == [["actor", 0]]


def test_codec_train_config_without_lr0_takes_default():
    assert TrainConfig.from_dict({"epochs": 2}) == TrainConfig(epochs=2)


def test_codec_missing_required_key():
    with pytest.raises(ConfigurationError, match="cluster_feature_lens"):
        ModelConfig.from_dict({"num_classes": 3})
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict([3, 4])


@pytest.mark.parametrize(
    "change, message",
    [
        ({"d_model": True}, "d_model: expected int, got true"),
        ({"d_model": 8.0}, "d_model: expected int, got 8.0"),
        ({"skip": 1}, "skip: expected bool, got 1"),
        ({"head_mode": None}, "head_mode: expected str, got null"),
        ({"cluster_feature_lens": [3, "4"]}, "cluster_feature_lens[1]: expected int"),
        ({"node_type_clusters": [["actor"]]}, "node_type_clusters[0]: expected 2 values"),
        ({"d_model": 0}, "m.json: d_model, num_classes and cluster_feature_lens must be >= 1"),
        ({"skip": False}, "m.json: skip: every decoder level adds its skip; must be true"),
    ],
    ids=["int-bool", "int-float", "bool-int", "str-null", "tuple-item", "pair-length", "range",
         "skip-false"],
)
def test_codec_checks_types_and_names_file_and_key(change, message):
    doc = dict({"cluster_feature_lens": [3, 4], "num_classes": 2}, **change)
    with pytest.raises(ConfigurationError) as info:
        ModelConfig.from_dict(doc, "m.json")
    assert message in str(info.value)
    assert isinstance(info.value, ValidationError)


def test_codec_float_takes_int_and_nested_records_round_trip():
    assert TrainConfig.from_dict({"lr0": 1}).lr0 == 1
    doc = {"format": "f", "model_config": {"cluster_feature_lens": [3], "num_classes": 2},
           "train_config": {}, "epoch": 0, "keys": ["a"], "rng_state": None}
    header = CheckpointHeader.from_dict(doc)
    assert header.model_config == ModelConfig(cluster_feature_lens=(3,), num_classes=2)
    assert header.keys == ("a",) and header.rng_state is None
    assert CheckpointHeader.from_dict(header.to_dict()) == header


def test_codec_passes_list_fields_through_uncopied():
    labels = [0, 1]
    table = _Table.from_dict({"segments": 2, "num_classes": 2, "labels": labels})
    assert table.labels is labels and table.to_dict()["labels"] is labels
