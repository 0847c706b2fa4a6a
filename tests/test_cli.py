"""CLI surface: subcommand behavior, exit codes, file round-trips."""

import json
import time
import warnings

import numpy as np
import pytest

from stacked_stgcn import cli, evaluate
from stacked_stgcn.cli import main
from stacked_stgcn.graph import load_stgs
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, generate_dataset
from stacked_stgcn.tensor import dump_tensor
from stacked_stgcn.training import TrainConfig, load_checkpoint, save_checkpoint

SYNTH_CONFIG = {
    "synth": {
        "num_classes": 3,
        "cluster_feature_lens": [3, 4],
        "t_range": [12, 20],
        "mean_scale": 5.0,
        "temporal_span": 2,
    },
    "train_count": 3,
    "test_count": 2,
}

MODEL_CONFIG = {
    "cluster_feature_lens": [3, 4],
    "num_classes": 3,
    "d_model": 8,
    "levels": 1,
    "stack_depth": 1,
    "span": 2,
}

TRAIN_CONFIG = {
    "lr0": 0.01,
    "sched_step": 1,
    "sched_drop": 0.9,
    "max_window": 20,
    "epochs": 2,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    return out


# -- synth -------------------------------------------------------------------


def test_synth_writes_dataset(dataset):
    names = sorted(p.name for p in dataset.iterdir())
    assert "manifest.json" in names and "oracle.json" in names
    assert sum(n.startswith("seq_") for n in names) == 5
    manifest = json.loads((dataset / "manifest.json").read_text())
    splits = [e["split"] for e in manifest["sequences"]]
    assert splits.count("train") == 3 and splits.count("test") == 2
    oracle = json.loads((dataset / "oracle.json").read_text())
    assert len(oracle["means"]) == 3  # one mean row per class
    _, generated = generate_dataset(SynthConfig.from_dict(SYNTH_CONFIG["synth"]), 5, 5)
    assert oracle["means"] == [[m.tolist() for m in row] for row in generated["means"]]


def test_synth_refuses_overwrite(dataset, tmp_path):
    cfg = write_json(tmp_path / "synth2.json", SYNTH_CONFIG)
    assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(dataset)]) == 2
    assert main(
        ["synth", "--config", cfg, "--seed", "5", "--out", str(dataset), "--force"]
    ) == 0


def test_synth_same_seed_identical_bytes(tmp_path):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg, "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "--config", cfg, "--seed", "9", "--out", str(b)]) == 0
    for rel in ("manifest.json", "seq_0000/manifest.json", "seq_0000/track_0.bin"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_synth_invalid_config(tmp_path):
    cfg = write_json(tmp_path / "bad.json", {"synth": {"num_classes": 1}})
    assert main(["synth", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "doc, key",
    [
        ([1, 2], "expected a JSON object"),
        (dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], num_classes="3")),
         "synth.num_classes"),
        (dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], t_range=30)), "synth.t_range"),
        (dict(SYNTH_CONFIG, train_count="x"), "train_count"),
        (dict(SYNTH_CONFIG, test_count=-1), "test_count"),
        (SYNTH_CONFIG["synth"], "missing key 'synth'"),  # the flat form is not read
    ],
    ids=["array", "num-classes-string", "t-range-int", "train-count-string",
         "test-count-negative", "flat"],
)
def test_synth_rejects_malformed_config(tmp_path, capsys, doc, key):
    cfg = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "x"
    assert main(["synth", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and key in err and "Traceback" not in err
    assert not out.exists()


# -- ingest ------------------------------------------------------------------


def test_ingest_actor_only_chain(tmp_path):
    table = {
        "segments": 3,
        "num_classes": 4,
        "actors": [{"id": "a0", "features": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]}],
        "labels": [0, 1, 1],
    }
    src = write_json(tmp_path / "table.json", table)
    out = tmp_path / "seq"
    assert main(["ingest", "--input", src, "--out", str(out)]) == 0
    seq = load_stgs(str(out))
    assert seq.num_tracks == 1 and seq.num_steps == 3
    assert seq.temporal_edges.tolist() == [[0, 0, 0, 1, 1.0], [0, 1, 0, 2, 1.0]]
    assert seq.labels.tolist() == [0, 1, 1]


def test_ingest_cluster_lengths_roundtrip(tmp_path):
    table = {
        "segments": 2,
        "num_classes": 10,
        "actors": [{"id": "a0", "features": [[0.0] * 630] * 2}],
        "objects": [{"id": "o0", "features": [[0.0] * 180] * 2}],
        "labels": [0, 1],
    }
    src = write_json(tmp_path / "table.json", table)
    out = tmp_path / "seq"
    assert main(["ingest", "--input", src, "--out", str(out)]) == 0
    seq = load_stgs(str(out))
    assert [(c.cluster_id, c.feature_len) for c in seq.clusters] == [(0, 630), (1, 180)]


def test_ingest_rejects_negative_edge_weight(tmp_path):
    table = {
        "segments": 2,
        "num_classes": 2,
        "actors": [
            {"id": "a0", "features": [[0.0], [0.0]]},
            {"id": "a1", "features": [[0.0], [0.0]]},
        ],
        "spatial_edges": [[[0, 1, -0.5]], []],
        "labels": [0, 0],
    }
    src = write_json(tmp_path / "table.json", table)
    assert main(["ingest", "--input", src, "--out", str(tmp_path / "seq")]) == 2


def test_ingest_rejects_ragged_rows(tmp_path):
    table = {
        "segments": 2,
        "num_classes": 2,
        "actors": [{"id": "a0", "features": [[0.0, 1.0], [0.0]]}],
    }
    src = write_json(tmp_path / "table.json", table)
    assert main(["ingest", "--input", src, "--out", str(tmp_path / "seq")]) == 2


@pytest.mark.parametrize(
    "doc, key",
    [
        (dict(segments="abc", num_classes=2), "segments"),
        (dict(segments=2, num_classes=2, actors=5), "actors"),
        (dict(segments=2, num_classes=2, actors=[{"features": [[0.0], [0.0]]}],
              labels=[0, "x"]), "labels"),
        (dict(segments=2, num_classes=2, actors=[{"features": [[0.0], [0.0]]}],
              labels=[0, 0.5]), "labels: 0.5 is not a whole number"),
        (dict(segments=2, num_classes=2, actors=[["x"]]), "actors[0]"),
        ([1], "expected a JSON object"),
    ],
    ids=["segments-string", "actors-int", "label-string", "label-fraction", "actor-array",
         "array"],
)
def test_ingest_rejects_malformed_table(tmp_path, capsys, doc, key):
    src = write_json(tmp_path / "table.json", doc)
    out = tmp_path / "seq"
    assert main(["ingest", "--input", src, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "table.json" in err and key in err and "Traceback" not in err
    assert not out.exists()


# -- train / infer / eval ----------------------------------------------------


def test_train_infer_eval_pipeline(dataset, tmp_path):
    model_cfg = write_json(tmp_path / "model.json", MODEL_CONFIG)
    train_cfg = write_json(tmp_path / "train.json", TRAIN_CONFIG)
    run = tmp_path / "run"
    rc = main(
        [
            "train", "--manifest", str(dataset / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    )
    assert rc == 0
    ckpt = run / "epoch_0001.ckpt"
    assert ckpt.exists() and (run / "curve.csv").exists()

    infer_out = tmp_path / "scores.json"
    rc = main(
        [
            "infer", "--manifest", str(dataset / "manifest.json"),
            "--checkpoint", str(ckpt), "--out", str(infer_out),
            "--window", "16", "--hop", "4",
        ]
    )
    assert rc == 0
    doc = json.loads(infer_out.read_text())
    assert len(doc["sequences"]) == 2
    first = doc["sequences"][0]
    assert len(first["scores"]) == len(first["coverage"])

    eval_out = tmp_path / "metrics.json"
    rc = main(
        [
            "eval", "--manifest", str(dataset / "manifest.json"),
            "--checkpoint", str(ckpt), "--out", str(eval_out),
            "--window", "16", "--hop", "4",
        ]
    )
    assert rc == 0
    metrics = json.loads(eval_out.read_text())
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    assert metrics["per_class"]
    model = load_checkpoint(str(ckpt))[0]
    seqs = [seq for _, seq in cli._load_manifest(str(dataset / "manifest.json"), "test")]
    expected = evaluate.evaluate_single(seqs, model, window=16, hop=4, per_frame=False)
    assert eval_out.read_bytes() == json.dumps(expected).encode()


def test_eval_mismatched_classes(dataset, tmp_path):
    model_cfg = write_json(tmp_path / "model.json", MODEL_CONFIG)
    train_cfg = write_json(tmp_path / "train.json", TRAIN_CONFIG)
    run = tmp_path / "run"
    assert main(
        [
            "train", "--manifest", str(dataset / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    ) == 0
    other_cfg = dict(SYNTH_CONFIG)
    other_cfg["synth"] = dict(SYNTH_CONFIG["synth"], num_classes=4)
    cfg = write_json(tmp_path / "other.json", other_cfg)
    other = tmp_path / "other_data"
    assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(other)]) == 0
    rc = main(
        [
            "eval", "--manifest", str(other / "manifest.json"),
            "--checkpoint", str(run / "epoch_0001.ckpt"),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2


def untrained_checkpoint(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    model = StgcnModel(ModelConfig.from_dict(MODEL_CONFIG), seed=0)
    save_checkpoint(str(ckpt), model, TrainConfig(), epoch=0)
    return str(ckpt)


def test_eval_rejects_a_manifest_that_mixes_label_modes(dataset, tmp_path, capsys):
    multi = dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], mode="multi"))
    other = tmp_path / "multi"
    cfg = write_json(tmp_path / "multi.json", multi)
    assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(other)]) == 0
    manifest = write_json(tmp_path / "mixed.json", {
        "root": ".",
        "sequences": [
            {"path": "data/seq_0003", "split": "test"},
            {"path": "multi/seq_0004", "split": "test"},
        ],
    })
    out = tmp_path / "m.json"
    rc = main(["eval", "--manifest", manifest, "--checkpoint", untrained_checkpoint(tmp_path),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "multi/seq_0004" in err and "'multi'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_hop_longer_than_window_exits_2(dataset, tmp_path, capsys, command):
    out = tmp_path / "out.json"
    rc = main([command, "--manifest", str(dataset / "manifest.json"),
               "--checkpoint", untrained_checkpoint(tmp_path), "--out", str(out),
               "--window", "4", "--hop", "6"])
    assert rc == 2
    assert "hop 6 exceeds window 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "train"])
def test_a_window_too_large_to_allocate_exits_2(dataset, tmp_path, capsys, command):
    # 10**15 steps: the first allocation asks for petabytes and fails at once
    huge = 10**15
    out = tmp_path / "out"
    if command == "infer":
        argv = ["--checkpoint", untrained_checkpoint(tmp_path), "--window", str(huge)]
    else:
        argv = ["--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
                "--train-config", write_json(tmp_path / "train.json",
                                             dict(TRAIN_CONFIG, max_window=huge)),
                "--seed", "0"]
    rc = main([command, "--manifest", str(dataset / "manifest.json"), "--out", str(out), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: out of memory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, which, change, message",
    [
        ("train", "model", {"num_classes": 10**19}, "num_classes: 10000000000000000000 is outside"),
        ("train", "model", {"cluster_feature_lens": [4, 10**19]}, "cluster_feature_lens[1]"),
        ("train", "train", {"max_window": 10**19}, "max_window: 10000000000000000000 is outside"),
        ("synth", "synth", {"t_range": [12, 10**19]}, "synth.t_range[1]"),
        ("train", "model", {"levels": 10**9}, "levels must be <= 62"),
        ("eval", "window", 10**18, "error: out of memory"),
        ("infer", "window", 10**18, "error: out of memory"),
        ("train", "train", {"max_window": 10**18}, "error: out of memory"),
        ("synth", "synth", {"t_range": [12, 10**14]}, "error: out of memory"),
    ],
    ids=["num-classes-past-int64", "feature-len-past-int64", "max-window-past-int64",
         "t-range-past-int64", "levels-1e9", "eval-window-1e18", "infer-window-1e18",
         "max-window-1e18", "t-range-1e14"],
)
def test_an_impossible_size_exits_2_at_once_and_leaves_no_output(
    dataset, tmp_path, capsys, command, which, change, message
):
    # integers past int64 are refused as read; sizes numpy cannot address
    # (ValueError there) fail like allocations it cannot make (MemoryError)
    out = tmp_path / "out"
    if command == "synth":
        doc = dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], **change))
        argv = ["--config", write_json(tmp_path / "huge.json", doc), "--seed", "5"]
    elif command == "train":
        model_change, train_change = (change, {}) if which == "model" else ({}, change)
        argv = ["--manifest", str(dataset / "manifest.json"),
                "--model-config", write_json(tmp_path / "model.json",
                                             dict(MODEL_CONFIG, **model_change)),
                "--train-config", write_json(tmp_path / "train.json",
                                             dict(TRAIN_CONFIG, **train_change)),
                "--seed", "0"]
    else:
        argv = ["--manifest", str(dataset / "manifest.json"),
                "--checkpoint", untrained_checkpoint(tmp_path), "--window", str(change)]
    start = time.perf_counter()
    rc = main([command, *argv, "--out", str(out)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
    assert elapsed < 5  # the levels case hung before its parameter table was refused


def sequence_dir(dataset, command):
    """A sequence that ``command`` reads: a train one for ``train``, a test one for ``eval``."""
    entries = json.loads((dataset / "manifest.json").read_text())["sequences"]
    split = "train" if command == "train" else "test"
    return dataset / next(e["path"] for e in entries if e["split"] == split)


def edit_stgs_manifest(seq_dir, edit):
    doc = json.loads((seq_dir / "manifest.json").read_text())
    edit(doc)
    (seq_dir / "manifest.json").write_text(json.dumps(doc))


def train_or_eval(dataset, tmp_path, command):
    """Exit code of ``train``, or of ``eval`` on an untrained checkpoint; neither leaves output."""
    out = tmp_path / "out"
    if command == "eval":
        argv = ["--checkpoint", untrained_checkpoint(tmp_path)]
    else:
        argv = ["--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
                "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG),
                "--seed", "0"]
    rc = main([command, "--manifest", str(dataset / "manifest.json"), "--out", str(out), *argv])
    assert not out.exists()
    return rc


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_sequence_with_no_tracks_exits_2(dataset, tmp_path, capsys, command):
    seq_dir = sequence_dir(dataset, command)
    edit_stgs_manifest(seq_dir, lambda doc: doc.update(
        tracks=[], spatial_edges=[[] for _ in range(doc["T"])], temporal_edges=[]))
    assert train_or_eval(dataset, tmp_path, command) == 2
    err = capsys.readouterr().err
    assert seq_dir.name in err and "no tracks" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_feature_exits_2_naming_the_track(dataset, tmp_path, capsys, command, value):
    seq_dir = sequence_dir(dataset, command)
    track = load_stgs(str(seq_dir)).tracks[0]
    features = track.features.copy()
    features[np.flatnonzero(track.presence)[0], 0] = value
    with open(seq_dir / "track_0.bin", "wb") as fh:
        dump_tensor(fh, features)
    assert train_or_eval(dataset, tmp_path, command) == 2
    err = capsys.readouterr().err
    assert seq_dir.name in err and f"track {track.track_id}: non-finite feature value" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_fractional_single_label_exits_2(dataset, tmp_path, capsys, command):
    seq_dir = sequence_dir(dataset, command)
    edit_stgs_manifest(seq_dir, lambda doc: doc["labels"].__setitem__(0, 1.5))
    assert train_or_eval(dataset, tmp_path, command) == 2
    err = capsys.readouterr().err
    assert seq_dir.name in err and "labels: 1.5 is not a whole number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "infer", "eval"])
def test_a_label_mode_the_head_does_not_have_exits_2(dataset, tmp_path, capsys, command):
    multi = dict(MODEL_CONFIG, head_mode="multi")  # the data set is single-label
    if command == "train":
        argv = ["--model-config", write_json(tmp_path / "model.json", multi),
                "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG),
                "--seed", "0"]
    else:
        ckpt = tmp_path / "model.ckpt"
        model = StgcnModel(ModelConfig.from_dict(multi), seed=0)
        save_checkpoint(str(ckpt), model, TrainConfig(mode="multi"), epoch=0)
        argv = ["--checkpoint", str(ckpt)]
    out = tmp_path / "out"
    rc = main([command, "--manifest", str(dataset / "manifest.json"), "--out", str(out), *argv])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "label mode 'single', model 'multi'" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_non_finite_first_epoch_exits_3_and_leaves_no_output(dataset, tmp_path, capsys):
    # the first step's update is so large that the second step's forward overflows
    out = tmp_path / "out"
    rc = main(["train", "--manifest", str(dataset / "manifest.json"),
               "--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
               "--train-config", write_json(tmp_path / "train.json", dict(TRAIN_CONFIG, lr0=1e30)),
               "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_non_finite_update_exits_3_naming_the_parameter_before_any_checkpoint(tmp_path, capsys):
    # features of ~100 give first-layer gradients above 1.2, and 3e38 * 1.2 overflows float32
    synth = dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], mean_scale=100.0))
    data = tmp_path / "data"
    assert main(["synth", "--config", write_json(tmp_path / "synth.json", synth),
                 "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "out"
    rc = main(["train", "--manifest", str(data / "manifest.json"),
               "--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
               "--train-config", write_json(tmp_path / "train.json",
                                            dict(TRAIN_CONFIG, lr0=3e38, epochs=1)),
               "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and "parameter 'block0/enc0/ws0' after the update" in err
    assert not out.exists()


def test_multi_label_pipeline(tmp_path):
    synth = {
        "synth": dict(SYNTH_CONFIG["synth"], mode="multi"),
        "train_count": 2,
        "test_count": 2,
    }
    cfg = write_json(tmp_path / "synth.json", synth)
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == 0
    model_cfg = write_json(
        tmp_path / "model.json", dict(MODEL_CONFIG, head_mode="multi")
    )
    train_cfg = write_json(
        tmp_path / "train.json", dict(TRAIN_CONFIG, mode="multi", epochs=1)
    )
    run = tmp_path / "run"
    assert main(
        [
            "train", "--manifest", str(data / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    ) == 0
    eval_out = tmp_path / "metrics.json"
    assert main(
        [
            "eval", "--manifest", str(data / "manifest.json"),
            "--checkpoint", str(run / "epoch_0000.ckpt"),
            "--out", str(eval_out), "--window", "16", "--hop", "4",
        ]
    ) == 0
    metrics = json.loads(eval_out.read_text())
    assert 0.0 <= metrics["mAP"] <= 1.0
    assert len(metrics["sequences"]) == 2
    assert len(metrics["sequences"][0]["eval_points"]) == 25


def multi_label_data(tmp_path):
    synth = {
        "synth": dict(SYNTH_CONFIG["synth"], mode="multi"),
        "train_count": 1,
        "test_count": 2,
    }
    cfg = write_json(tmp_path / "synth.json", synth)
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == 0
    model = StgcnModel(ModelConfig.from_dict(dict(MODEL_CONFIG, head_mode="multi")), seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig(mode="multi"), epoch=0)
    return data / "manifest.json", ckpt, model


def test_multi_label_eval_infers_each_sequence_once(tmp_path, monkeypatch):
    manifest, ckpt, model = multi_label_data(tmp_path)
    data = cli._load_manifest(str(manifest), "test")
    seqs = [seq for _, seq in data]
    # the metrics document as built from independent sliding_infer passes
    expected = evaluate.evaluate_multi(seqs, model, window=16, hop=4)
    details = []
    for path, seq in data:
        timeline = evaluate.sliding_infer(seq, model, window=16, hop=4)
        available = np.flatnonzero(seq.label_mask)
        points = [int(available[i]) for i in evaluate.select_eval_points(len(available))]
        details.append(
            {
                "path": path,
                "eval_points": points,
                "point_scores": timeline.scores[points].tolist(),
                "full_scores": timeline.scores.tolist(),
            }
        )
    expected["sequences"] = details

    calls = []
    original = evaluate.sliding_infer

    def counting(seq, *args, **kwargs):
        calls.append(seq)
        return original(seq, *args, **kwargs)

    monkeypatch.setattr(cli, "sliding_infer", counting)
    monkeypatch.setattr(evaluate, "sliding_infer", counting)
    out = tmp_path / "metrics.json"
    assert main(
        [
            "eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
            "--out", str(out), "--window", "16", "--hop", "4",
        ]
    ) == 0
    assert len(calls) == len(seqs)
    assert out.read_bytes() == json.dumps(expected).encode()


def header_length(raw):
    return int.from_bytes(raw[:4], "little")


def drop_header_key(key):
    def cut(raw):
        n = header_length(raw)
        header = json.loads(raw[4:4 + n])
        del header[key]
        blob = json.dumps(header, sort_keys=True).encode()
        return len(blob).to_bytes(4, "little") + blob + raw[4 + n:]

    return cut


def narrow_header_d_model(raw):
    # the header says d_model 6 over tensors written with d_model 8
    n = header_length(raw)
    header = json.loads(raw[4:4 + n])
    header["model_config"]["d_model"] = 6
    blob = json.dumps(header, sort_keys=True).encode()
    return len(blob).to_bytes(4, "little") + blob + raw[4 + n:]


@pytest.mark.parametrize(
    "cut, key",
    [
        (lambda raw: raw[: 4 + header_length(raw) // 2], None),  # inside the JSON header
        (lambda raw: raw[: 4 + header_length(raw) + 6], None),   # inside the first tensor's extents
        (lambda raw: raw[:-2], None),                            # inside the last tensor's data
        (None, None),                                            # no checkpoint at all
        (drop_header_key("model_config"), None),
        (drop_header_key("keys"), None),
        (drop_header_key("epoch"), None),
        (narrow_header_d_model, "'block0/enc0/ws0'"),
    ],
    ids=["header", "extent", "blob", "missing", "no-model-config", "no-keys", "no-epoch",
         "d-model-mismatch"],
)
def test_eval_rejects_truncated_or_missing_checkpoint(tmp_path, capsys, cut, key):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    bad = tmp_path / "bad.ckpt"
    if cut is not None:
        bad.write_bytes(cut(ckpt.read_bytes()))
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    if key is not None:
        err = capsys.readouterr().err
        assert key in err and "shape" in err and "Traceback" not in err


def eval_with_retired_knob_flipped(tmp_path, capsys, key, written):
    """Exit code and stderr of ``eval`` on a checkpoint whose header flips ``key`` from ``written``."""
    manifest, ckpt, _ = multi_label_data(tmp_path)
    raw = ckpt.read_bytes()
    n = header_length(raw)
    header = json.loads(raw[4:4 + n])
    assert header["model_config"][key] is written  # as in every header written
    header["model_config"][key] = not written
    blob = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(len(blob).to_bytes(4, "little") + blob + raw[4 + n:])
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert not out.exists()
    return rc, capsys.readouterr().err


def test_eval_rejects_a_checkpoint_whose_decoders_have_stgcn_layers(tmp_path, capsys):
    rc, err = eval_with_retired_knob_flipped(tmp_path, capsys, "decoder_stgcn", False)
    assert rc == 2 and "decoder_stgcn" in err and "Traceback" not in err


def test_eval_rejects_a_checkpoint_without_skip_connections(tmp_path, capsys):
    rc, err = eval_with_retired_knob_flipped(tmp_path, capsys, "skip", True)
    assert rc == 2 and "skip" in err and "Traceback" not in err


def test_eval_on_non_finite_checkpoint_exits_3(tmp_path, capsys):
    manifest, ckpt, model = multi_label_data(tmp_path)
    model.params["head/w"] = np.full_like(model.params["head/w"], np.inf)
    save_checkpoint(str(ckpt), model, TrainConfig(mode="multi"), epoch=0)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_truncated_track_blob(tmp_path):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    entries = json.loads(manifest.read_text())["sequences"]
    blob = manifest.parent / next(e["path"] for e in entries if e["split"] == "test")
    blob = blob / "track_0.bin"
    blob.write_bytes(blob.read_bytes()[:-3])
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def huge_first_extent(raw, offset):
    # the first tensor's first extent becomes 0xffffffff: ~16 GB per unit of the others
    return raw[:offset] + (0xFFFFFFFF).to_bytes(4, "little") + raw[offset + 4:]


@pytest.mark.parametrize("target", ["checkpoint", "track"])
def test_eval_rejects_tensor_extent_beyond_the_file(tmp_path, capsys, target):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    if target == "checkpoint":
        raw = ckpt.read_bytes()
        ckpt.write_bytes(huge_first_extent(raw, 4 + header_length(raw) + 4))
    else:
        entries = json.loads(manifest.read_text())["sequences"]
        seq_dir = manifest.parent / next(e["path"] for e in entries if e["split"] == "test")
        blob = seq_dir / "track_0.bin"
        blob.write_bytes(huge_first_extent(blob.read_bytes(), 4))
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "truncated tensor data" in err and "Traceback" not in err
    assert not out.exists()


def drop_manifest_key(manifest):
    del manifest["T"]


def drop_track_key(manifest):
    del manifest["tracks"][1]["blob"]


@pytest.mark.parametrize(
    "corrupt, key", [(drop_manifest_key, "'T'"), (drop_track_key, "'blob'")], ids=["T", "blob"]
)
def test_eval_rejects_stgs_manifest_missing_key(tmp_path, capsys, corrupt, key):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    entries = json.loads(manifest.read_text())["sequences"]
    seq_dir = manifest.parent / next(e["path"] for e in entries if e["split"] == "test")
    doc = json.loads((seq_dir / "manifest.json").read_text())
    corrupt(doc)
    write_json(seq_dir / "manifest.json", doc)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"missing key {key}" in err and seq_dir.name in err
    assert "Traceback" not in err
    assert not out.exists()


def stgs_clusters_not_array(text):
    doc = json.loads(text)
    doc["clusters"] = 5
    return json.dumps(doc)


def stgs_temporal_edge_short(text):
    doc = json.loads(text)
    doc["temporal_edges"][0] = [0, 1, 2]
    return json.dumps(doc)


def stgs_temporal_edge_fraction(text):
    doc = json.loads(text)
    doc["temporal_edges"][0][1] = 0.5
    return json.dumps(doc)


def stgs_truncated_json(text):
    return '{"T": '


def stgs_edit(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [stgs_clusters_not_array, stgs_temporal_edge_short, stgs_temporal_edge_fraction,
     stgs_truncated_json,
     stgs_edit(lambda doc: doc.update(T=float(doc["T"]))),
     stgs_edit(lambda doc: doc.update(C=str(doc["C"]))),
     stgs_edit(lambda doc: doc["tracks"][0].update(cluster_id=[0])),
     stgs_edit(lambda doc: doc["tracks"][0].update(blob=3)),
     stgs_edit(lambda doc: doc["clusters"][1].update(feature_len="4")),
     stgs_edit(lambda doc: doc["labels"][0].append(1)),
     stgs_edit(lambda doc: doc["tracks"][0].update(blob="")),
     *(stgs_edit(lambda doc, v=v: doc["labels"][0].__setitem__(0, v))
       for v in (0.5, 2, -1, np.nan)),
     *(stgs_edit(lambda doc, v=v: doc["tracks"][0]["presence"].__setitem__(0, v))
       for v in (0.5, 2)),
     stgs_edit(lambda doc: doc["label_mask"].__setitem__(0, -1))],
    ids=["clusters-int", "edge-3-values", "edge-fraction", "invalid-json", "T-float",
         "C-string", "cluster-id-array", "blob-int", "feature-len-string", "labels-ragged",
         "blob-directory", "label-half", "label-two", "label-minus-one", "label-nan",
         "presence-half", "presence-two", "mask-minus-one"],
)
def test_eval_rejects_malformed_stgs_manifest(tmp_path, capsys, corrupt):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    entries = json.loads(manifest.read_text())["sequences"]
    seq_dir = manifest.parent / next(e["path"] for e in entries if e["split"] == "test")
    target = seq_dir / "manifest.json"
    target.write_text(corrupt(target.read_text()))
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert seq_dir.name in err and "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_dataset_manifest_without_sequences(tmp_path, capsys):
    _, ckpt, _ = multi_label_data(tmp_path)
    manifest = write_json(tmp_path / "bare.json", {"root": "."})
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", manifest, "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bare.json" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"sequences": 5}, "sequences"),
        ({"sequences": [{"path": 3}]}, "sequences[0].path"),
        ({"sequences": [{"path": "seq_0000"}], "root": 1}, "root"),
    ],
    ids=["sequences-int", "path-int", "root-int"],
)
def test_eval_rejects_malformed_dataset_manifest(tmp_path, capsys, doc, key):
    _, ckpt, _ = multi_label_data(tmp_path)
    manifest = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--manifest", manifest, "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "target", ["checkpoint", "manifest", "model-config", "out", "under-a-file"]
)
def test_a_directory_where_a_file_is_expected_exits_2(dataset, tmp_path, capsys, target):
    folder = tmp_path / "folder"
    folder.mkdir()
    bad = str(folder)
    if target == "under-a-file":  # a path that runs through a regular file
        bad = str(dataset / "manifest.json" / "model.ckpt")
    out = tmp_path / "metrics.json"
    paths = {
        "manifest": str(dataset / "manifest.json"),
        "checkpoint": untrained_checkpoint(tmp_path),
        "out": str(out),
        "model-config": write_json(tmp_path / "model.json", MODEL_CONFIG),
    }
    paths["checkpoint" if target == "under-a-file" else target] = bad
    if target == "model-config":
        argv = ["train", "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG),
                "--model-config", bad, "--seed", "0", "--out", str(tmp_path / "run")]
    else:
        argv = ["eval", "--checkpoint", paths["checkpoint"], "--out", paths["out"]]
    rc = main(argv + ["--manifest", paths["manifest"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert bad in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "run").exists()
    assert not list(folder.iterdir()) and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["synth", "ingest", "train"])
def test_out_onto_an_existing_file_exits_2(dataset, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("keep")
    table = {"segments": 2, "num_classes": 2, "labels": [0, 1],
             "actors": [{"id": "a0", "features": [[1.0], [2.0]]}]}
    argv = {
        "synth": ["--config", write_json(tmp_path / "synth.json", SYNTH_CONFIG), "--seed", "0"],
        "ingest": ["--input", write_json(tmp_path / "table.json", table)],
        "train": ["--manifest", str(dataset / "manifest.json"), "--seed", "0",
                  "--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
                  "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG)],
    }[command]
    rc = main([command, *argv, "--out", str(out), "--force"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert out.read_text() == "keep"


def flip_bytes(raw: bytes, rng) -> bytes:
    """``raw`` with 1-4 bytes at random offsets XOR-ed with random nonzero values."""
    edited = bytearray(raw)
    for pos in rng.integers(len(raw), size=rng.integers(1, 5)):
        edited[pos] ^= int(rng.integers(1, 256))
    return bytes(edited)


def test_eval_survives_random_byte_edits(tmp_path, capsys):
    manifest, ckpt, _ = multi_label_data(tmp_path)
    entries = json.loads(manifest.read_text())["sequences"]
    blob = manifest.parent / next(e["path"] for e in entries if e["split"] == "test")
    blob = blob / "track_0.bin"
    targets = [(ckpt, ckpt.read_bytes()), (blob, blob.read_bytes())]
    rng = np.random.default_rng(16)
    out = tmp_path / "metrics.json"
    codes = {}
    for i in range(600):
        path, raw = targets[i % 2]
        path.write_bytes(flip_bytes(raw, rng))
        try:
            rc = main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
                       "--out", str(out)])
        finally:
            path.write_bytes(raw)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3) and "Traceback" not in err, (path.name, i, rc, err)
        assert rc == 0 or not out.exists(), (path.name, i, rc)
        if out.exists():
            out.unlink()
        codes[path.name, rc] = codes.get((path.name, rc), 0) + 1
    # the edits reach both files and both outcomes: some are read, some rejected
    assert {name for name, _ in codes} == {ckpt.name, blob.name}
    assert {rc for _, rc in codes} >= {0, 2}, codes


@pytest.mark.parametrize(
    "which, change, key",
    [
        ("model", {"d_model": "abc"}, "d_model"),
        ("model", {"levels": 1.5}, "levels"),
        ("model", {"cluster_feature_lens": 5}, "cluster_feature_lens"),
        ("model", {"skip": "no"}, "skip"),
        ("model", {"d_model": -1}, "d_model"),
        ("model", {"d_model": 0}, "d_model"),
        ("model", {"num_classes": 0}, "num_classes"),
        ("model", {"cluster_feature_lens": [3, -5]}, "cluster_feature_lens"),
        ("model", {"harmonization": "projection",
                   "node_type_clusters": [["actor", 0], ["actor", 1]]}, "node_type_clusters"),
        ("model", {"decoder_stgcn": True}, "decoder_stgcn"),
        ("model", {"skip": False}, "skip"),
        ("train", {"epochs": "2"}, "epochs"),
        ("train", {"max_window": 2.5}, "max_window"),
        ("train", {"lr0": float("nan")}, "lr0"),
        ("train", {"lr0": float("inf")}, "lr0"),
        ("train", {"lr0": 1e39}, "lr0"),  # finite as a float64, inf as the float32 update
        ("train", {"momentum": -0.5}, "momentum"),
        ("train", {"momentum": 1.0}, "momentum"),
    ],
    ids=["d-model-string", "levels-float", "lens-int", "skip-string", "d-model-negative",
         "d-model-zero", "num-classes-zero", "feature-len-negative", "node-type-twice",
         "decoder-stgcn", "skip-false", "epochs-string", "max-window-float", "lr0-nan", "lr0-infinity",
         "lr0-overflows-float32", "momentum-negative", "momentum-one"],
)
def test_train_rejects_malformed_config(dataset, tmp_path, capsys, which, change, key):
    model_change, train_change = (change, {}) if which == "model" else ({}, change)
    model_cfg = write_json(tmp_path / "model.json", dict(MODEL_CONFIG, **model_change))
    train_cfg = write_json(tmp_path / "train.json", dict(TRAIN_CONFIG, **train_change))
    run = tmp_path / "run"
    rc = main(
        [
            "train", "--manifest", str(dataset / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{which}.json" in err and key in err and "Traceback" not in err
    assert not run.exists()


def test_train_rejects_train_config_array(dataset, tmp_path):
    model_cfg = write_json(tmp_path / "model.json", MODEL_CONFIG)
    train_cfg = write_json(tmp_path / "train.json", [1, 2])
    run = tmp_path / "run"
    rc = main(
        [
            "train", "--manifest", str(dataset / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    )
    assert rc == 2
    assert not run.exists()


def test_train_rejects_model_config_without_cluster_lens(dataset, tmp_path):
    doc = {k: v for k, v in MODEL_CONFIG.items() if k != "cluster_feature_lens"}
    model_cfg = write_json(tmp_path / "model.json", doc)
    train_cfg = write_json(tmp_path / "train.json", TRAIN_CONFIG)
    run = tmp_path / "run"
    rc = main(
        [
            "train", "--manifest", str(dataset / "manifest.json"),
            "--model-config", model_cfg, "--train-config", train_cfg,
            "--seed", "0", "--out", str(run),
        ]
    )
    assert rc == 2
    assert not run.exists()


def test_train_refuses_to_overwrite(dataset, tmp_path, capsys):
    argv = [
        "train", "--manifest", str(dataset / "manifest.json"),
        "--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
        "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG),
        "--seed", "0", "--out", str(tmp_path / "run"),
    ]
    assert main(argv) == 0
    written = {p: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert main([*argv[:-2], "--seed", "1", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "--force" in err and "Traceback" not in err
    assert {p: p.read_bytes() for p in (tmp_path / "run").iterdir()} == written
    assert main([*argv[:-2], "--seed", "1", "--out", str(tmp_path / "run"), "--force"]) == 0
    assert {p: p.read_bytes() for p in (tmp_path / "run").iterdir()} != written


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_negative_seed_exits_2(dataset, tmp_path, capsys, command):
    model_cfg = write_json(tmp_path / "model.json", MODEL_CONFIG)
    out = tmp_path / "out"
    argv = {
        "synth": ["--config", write_json(tmp_path / "synth.json", SYNTH_CONFIG),
                  "--out", str(out)],
        "train": ["--manifest", str(dataset / "manifest.json"), "--model-config", model_cfg,
                  "--train-config", write_json(tmp_path / "train.json", TRAIN_CONFIG),
                  "--out", str(out)],
        "gradcheck": ["--model-config", model_cfg],
    }[command]
    assert main([command, "--seed", "-1", *argv]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


# -- gradcheck ---------------------------------------------------------------


def test_gradcheck_default_model_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_gradcheck_skips_coordinates_across_a_relu_kink(tmp_path, capsys):
    # at zero biases one bottleneck pre-activation sits 2.4e-5 from the ReLU
    # kink, and the 1e-3 step on a bias coordinate crosses it
    doc = dict(cluster_feature_lens=[3, 4], num_classes=3, d_model=4, levels=1, span=2,
               gcn_bias=True)
    argv = ["gradcheck", "--seed", "0", "--model-config", write_json(tmp_path / "m.json", doc)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "block0/bottleneck/bias" in out and "skipped across a ReLU kink" in out


def test_a_diverging_train_warns_nothing_before_its_one_message(tmp_path, capsys):
    # the run of the naming test above, with every warning recorded
    synth = dict(SYNTH_CONFIG, synth=dict(SYNTH_CONFIG["synth"], mean_scale=100.0))
    data = tmp_path / "data"
    assert main(["synth", "--config", write_json(tmp_path / "synth.json", synth),
                 "--seed", "5", "--out", str(data)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--manifest", str(data / "manifest.json"),
                   "--model-config", write_json(tmp_path / "model.json", MODEL_CONFIG),
                   "--train-config", write_json(tmp_path / "train.json",
                                                dict(TRAIN_CONFIG, lr0=3e38, epochs=1)),
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert rc == 3 and err == (
        "numerical failure: non-finite value in parameter 'block0/enc0/ws0' after the update\n")
