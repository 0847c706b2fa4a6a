"""Every JSON document the CLI reads, with one field replaced by a value of another type.

Each loader either succeeds or raises ValidationError (exit code 2); no other
exception may escape. Replacement values stay small, so no field can ask for
a large allocation.
"""

import copy
import json
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
