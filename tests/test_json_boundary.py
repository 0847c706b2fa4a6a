"""Every JSON document the CLI reads, with one field replaced by a value of another type.

Each loader either succeeds or raises ValidationError (exit code 2); no other
exception may escape. The loader fuzz keeps its replacement values small, so
no field can ask for a large allocation; the CLI fuzz at the end draws them
from the int64 edges and runs ``synth``, ``train`` or ``eval`` on the result.
"""

import copy
import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_stgcn import cli
from stacked_stgcn.errors import ValidationError
from stacked_stgcn.graph import load_stgs, save_stgs
from stacked_stgcn.ingest import ingest_cad120_style
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, generate_dataset, synth_generate
from stacked_stgcn.training import TrainConfig, load_checkpoint, save_checkpoint

MODEL = {"cluster_feature_lens": [3, 4], "num_classes": 3, "d_model": 4, "levels": 1,
         "span": 2, "skip": True, "node_type_clusters": [["actor", 0], ["object", 1]]}
PROJECTION = dict(MODEL, harmonization="projection")
TRAIN = {"mode": "single", "lr0": 0.01, "sched_step": 1, "sched_drop": 0.9, "max_window": 20,
         "epochs": 2, "seed": 0, "momentum": 0.0}
SYNTH = {"synth": {"num_classes": 3, "cluster_feature_lens": [3, 4], "t_range": [6, 9],
                   "segment_len_range": [2, 4], "temporal_span": 2, "noise": 0.3},
         "train_count": 1, "test_count": 1}
DATASET = {"root": ".", "sequences": [{"path": "seq_0000", "split": "train"},
                                      {"path": "seq_0001", "split": "test"}]}
TABLE = {"segments": 3, "num_classes": 4,
         "actors": [{"id": "a0", "features": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]}],
         "objects": [{"id": "o0", "features": [[1.0], [0.0], [2.0]]}],
         "spatial_edges": [[[0, 1, 0.5]], [], []],
         "temporal_edges": [[0, 0, 0, 1, 1.0]],
         "labels": [0, 1, 1]}

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-3.0, 3.0), st.text(max_size=3),
    st.just([]), st.just({}),
)


def key_paths(doc, prefix=()):
    """Every key path into ``doc``: object keys and array indices."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else []
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def corrupt(draw, doc):
    """A deep copy of ``doc`` with the value at one drawn key path replaced."""
    path = draw(st.sampled_from(list(key_paths(doc))))
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(VALUES)
    return out


def succeeds_or_rejects(load, doc):
    try:
        load(doc)
    except ValidationError:
        pass


def fuzz(doc, load, max_examples=30):
    @settings(max_examples=max_examples, deadline=None)
    @given(st.data())
    def run(data):
        succeeds_or_rejects(load, corrupt(data.draw, doc))

    run()


@pytest.mark.parametrize("doc", [MODEL, PROJECTION], ids=["per-cluster-gcn", "projection"])
def test_model_config_boundary(doc):
    fuzz(doc, lambda d: StgcnModel(ModelConfig.from_dict(d), seed=0))


def test_train_config_boundary():
    fuzz(TRAIN, TrainConfig.from_dict)


def test_synth_config_boundary():
    def load(d):
        run = cli._SynthRun.from_dict(d)
        generate_dataset(run.synth, 0, run.train_count + run.test_count)

    fuzz(SYNTH, load)


def test_dataset_manifest_boundary():
    fuzz(DATASET, cli._DatasetManifest.from_dict)


def test_ingest_table_boundary():
    fuzz(TABLE, ingest_cad120_style)


@pytest.fixture(scope="module")
def stgs_dir(tmp_path_factory):
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(2, 3), t_range=(4, 4),
                      temporal_span=2, mode="multi")
    directory = tmp_path_factory.mktemp("stgs") / "seq"
    save_stgs(synth_generate(cfg, 0)[0], str(directory))
    return directory


def test_stgs_manifest_boundary(stgs_dir):
    manifest = stgs_dir / "manifest.json"
    doc = json.loads(manifest.read_text())

    def load(d):
        manifest.write_text(json.dumps(d))
        load_stgs(str(stgs_dir))

    fuzz(doc, load, max_examples=60)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    model = StgcnModel(ModelConfig.from_dict(MODEL), seed=0)
    save_checkpoint(str(path), model, TrainConfig(), epoch=1)
    return path


def test_checkpoint_header_boundary(checkpoint):
    raw = checkpoint.read_bytes()
    (n,) = struct.unpack("<I", raw[:4])
    target = checkpoint.with_name("fuzzed.ckpt")

    def load(d):
        header = json.dumps(d).encode()
        target.write_bytes(struct.pack("<I", len(header)) + header + raw[4 + n:])
        load_checkpoint(str(target))

    fuzz(json.loads(raw[4:4 + n]), load, max_examples=60)


# -- the CLI at the int64 edges ----------------------------------------------
#
# A seeded, structure-aware fuzz: each case replaces or deletes one value of one
# document a tiny dataset needs, then runs the command that reads it in-process.

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
EDGES = [INT64_MIN - 1, INT64_MIN, -1, 0, 1.5, INT64_MAX, INT64_MAX + 1, "x", None, [], {}]
DELETE = object()
# Left out of the pool: INT64_MAX at these keys is read as valid and then runs for hours.
TOO_LONG = {
    ("train", "epochs"),            # a valid run of 2^63 epochs
    ("synth", "train_count"),       # a valid dataset of 2^63 sequences
    ("synth", "test_count"),
    ("model", "stack_depth"),       # parameter_table walks every block before any size check
    ("synth", "num_classes"),       # make_class_means loops num_classes x tracks_per_cluster
    ("synth", "tracks_per_cluster"),
}
FUZZ_CASES = 400


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A synth config, its dataset, model and train configs and an untrained checkpoint.

    The configs spell out every field, so that each can be edited.
    """
    root = tmp_path_factory.mktemp("fuzz")
    synth = cli._SynthRun.from_dict(SYNTH)
    model = ModelConfig.from_dict(MODEL)
    (root / "synth.json").write_text(json.dumps(synth.to_dict()))
    assert cli.main(["synth", "--config", str(root / "synth.json"), "--seed", "0",
                     "--out", str(root / "data")]) == 0
    (root / "model.json").write_text(json.dumps(model.to_dict()))
    (root / "train.json").write_text(json.dumps(dict(TRAIN, epochs=1)))
    save_checkpoint(str(root / "model.ckpt"), StgcnModel(model, seed=0), TrainConfig(), epoch=0)
    return root


def draw_case(rng, root):
    """(file to edit, edited document, command): one value replaced or deleted."""
    kind = rng.choice(["synth", "model", "train", "dataset", "train-stgs", "eval-stgs"])
    path = {"synth": root / "synth.json", "model": root / "model.json",
            "train": root / "train.json", "dataset": root / "data" / "manifest.json",
            "train-stgs": root / "data" / "seq_0000" / "manifest.json",
            "eval-stgs": root / "data" / "seq_0001" / "manifest.json"}[kind]
    doc = json.loads(path.read_text())
    while True:
        keys = rng.choice(list(key_paths(doc)))
        value = rng.choice(EDGES + [DELETE])
        if not (value == INT64_MAX and (kind, keys[-1]) in TOO_LONG):
            break
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    command = {"synth": "synth", "model": "train", "train": "train", "train-stgs": "train",
               "eval-stgs": "eval", "dataset": rng.choice(["train", "eval"])}[kind]
    return path, doc, command


def run_cli(root, command, out, seed=0, window=50, hop=10):
    argv = {
        "synth": ["--config", str(root / "synth.json"), "--seed", str(seed)],
        "train": ["--manifest", str(root / "data" / "manifest.json"),
                  "--model-config", str(root / "model.json"),
                  "--train-config", str(root / "train.json"), "--seed", str(seed)],
        "eval": ["--manifest", str(root / "data" / "manifest.json"),
                 "--checkpoint", str(root / "model.ckpt"),
                 "--window", str(window), "--hop", str(hop)],
    }[command]
    try:
        return cli.main([command, *argv, "--out", str(out)])
    except Exception as exc:  # escaped the exit-code mapping: a traceback and exit 1
        return f"{type(exc).__name__}: {exc}"


def test_the_cli_exits_0_2_or_3_on_any_edited_document(fuzz_inputs, tmp_path, capsys):
    rng = random.Random(9)
    failures = []
    for case in range(FUZZ_CASES):
        path, doc, command = draw_case(rng, fuzz_inputs)
        original = path.read_text()
        out = tmp_path / f"out{case}"
        try:
            path.write_text(json.dumps(doc))
            rc = run_cli(fuzz_inputs, command, out)
        finally:
            path.write_text(original)
        captured = capsys.readouterr()
        if rc not in (0, 2, 3) or "Traceback" in captured.out + captured.err:
            failures.append((path.name, doc, command, rc))
        elif rc == 2 and command != "train" and out.exists():
            failures.append((path.name, doc, command, "exit 2 left its --out"))
    assert not failures, failures[:3]


@pytest.mark.parametrize("command, seed, window, hop, rc", [
    ("synth", INT64_MAX, 50, 10, 0), ("synth", INT64_MAX + 1, 50, 10, 2),
    ("train", INT64_MAX, 50, 10, 0), ("train", INT64_MAX + 1, 50, 10, 2),
    ("train", INT64_MIN, 50, 10, 2),
    ("eval", 0, INT64_MAX, 10, 2), ("eval", 0, INT64_MAX + 1, 10, 2), ("eval", 0, INT64_MIN, 10, 2),
    ("eval", 0, 1, 1, 0), ("eval", 0, INT64_MAX, INT64_MAX, 2), ("eval", 0, 50, INT64_MIN, 2),
], ids=["synth-seed-max", "synth-seed-past", "train-seed-max", "train-seed-past", "train-seed-min",
        "window-max", "window-past", "window-min", "window-1", "hop-max", "hop-min"])
def test_integer_arguments_at_the_int64_edges(fuzz_inputs, tmp_path, capsys, command, seed,
                                              window, hop, rc):
    out = tmp_path / "out"
    assert run_cli(fuzz_inputs, command, out, seed, window, hop) == rc
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert out.exists() == (rc == 0)
