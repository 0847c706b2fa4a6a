"""Graph model: adjacency assembly, deformation, synthesis, STGS format."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_stgcn import graph
from stacked_stgcn.errors import ValidationError
from stacked_stgcn.graph import (
    FeatureCluster,
    NodeTrack,
    StgSequence,
    Window,
    apply_deformation,
    build_adjacency,
    load_stgs,
    pad_sequence,
    save_stgs,
    slice_sequence,
    validate_sequence,
)
from stacked_stgcn.synth import (
    SynthConfig,
    bayes_predict,
    generate_dataset,
    sample_drop_schedule,
    synth_generate,
)
from stacked_stgcn.evaluate import f1_score

from dense_reference import (
    blocks_to_dense,
    dense_build_adjacency,
    flat_index,
    reference_flat_presence,
    window_copy,
)

# written by save_stgs before edges were stored as arrays; see deformed_two_cluster()
STGS_FIXTURE = Path(__file__).parent / "data" / "deformed_two_cluster.stgs"


def chain_sequence(T=3, span=3, num_tracks=1, feature_len=2, weight=1.0):
    """Tracks chained to themselves across timesteps with gaps 1..span."""
    rng = np.random.default_rng(7)
    tracks = tuple(
        NodeTrack(
            track_id=f"n{n}",
            node_type="actor",
            cluster_id=0,
            features=rng.standard_normal((T, feature_len)).astype(np.float32),
            presence=np.ones(T, dtype=bool),
        )
        for n in range(num_tracks)
    )
    temporal = tuple(
        (n, t, n, t + d, weight)
        for n in range(num_tracks)
        for t in range(T)
        for d in range(1, span + 1)
        if t + d < T
    )
    return StgSequence(
        num_steps=T,
        num_classes=2,
        mode="single",
        clusters=(FeatureCluster(0, feature_len),),
        tracks=tracks,
        spatial_edges=(),
        temporal_edges=temporal,
        labels=np.zeros(T, dtype=np.int64),
        label_mask=np.ones(T, dtype=bool),
    )


# -- adjacency assembly ------------------------------------------------------


def dense_adjacency(seq, span, cross_cluster_in_temporal=False):
    """build_adjacency's block output expanded to dense (A_s, A_t)."""
    adj = build_adjacency(seq, span, cross_cluster_in_temporal=cross_cluster_in_temporal)
    return blocks_to_dense(adj.a_s), blocks_to_dense(adj.a_t)


def test_chain_adjacency_hand_enumeration():
    seq = chain_sequence(T=3, span=3)
    a_s, a_t = dense_adjacency(seq, span=3)
    expected = np.zeros((3, 3), dtype=np.float32)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        expected[i, j] = expected[j, i] = 1.0
    assert np.array_equal(a_t, expected)
    assert np.array_equal(a_s, np.zeros((3, 3)))


def test_span_filters_long_edges():
    seq = chain_sequence(T=4, span=3)
    _, a_t = dense_adjacency(seq, span=1)
    expected = np.zeros((4, 4), dtype=np.float32)
    for t in range(3):
        expected[t, t + 1] = expected[t + 1, t] = 1.0
    assert np.array_equal(a_t, expected)


def test_empty_edges_give_zero_adjacency():
    seq = chain_sequence(T=3, span=0)
    adj = build_adjacency(seq, span=3)
    assert not adj.a_s.any() and not adj.a_t.any()


def test_spatial_edges_split_by_cluster():
    T = 2
    rng = np.random.default_rng(0)

    def track(name, cluster, flen):
        return NodeTrack(
            track_id=name, node_type="actor", cluster_id=cluster,
            features=rng.standard_normal((T, flen)).astype(np.float32),
            presence=np.ones(T, dtype=bool),
        )

    seq = StgSequence(
        num_steps=T, num_classes=2, mode="single",
        clusters=(FeatureCluster(0, 2), FeatureCluster(1, 3)),
        tracks=(track("a", 0, 2), track("b", 0, 2), track("c", 1, 3)),
        spatial_edges=((0, 0, 1, 0.5), (0, 0, 2, 0.7)),
        temporal_edges=(),
        labels=np.zeros(T, dtype=np.int64),
        label_mask=np.ones(T, dtype=bool),
    )
    a_s, a_t = dense_adjacency(seq, span=1, cross_cluster_in_temporal=False)
    assert a_s[0, 1] == np.float32(0.5) and a_s[0, 2] == np.float32(0.7)
    assert not a_t.any()
    folded_s, folded_t = dense_adjacency(seq, span=1, cross_cluster_in_temporal=True)
    # same-cluster edge stays spatial, cross-cluster edge moves to temporal
    assert folded_s[0, 1] == np.float32(0.5) and folded_s[0, 2] == 0
    assert folded_t[0, 2] == np.float32(0.7) and folded_t[2, 0] == np.float32(0.7)


def test_edge_touching_absent_node_rejected():
    seq = chain_sequence(T=3, span=1)
    tr = seq.tracks[0]
    presence = tr.presence.copy()
    features = tr.features.copy()
    presence[1] = False
    features[1] = 0
    with pytest.raises(ValidationError):
        replace(seq, tracks=(replace(tr, presence=presence, features=features),))


@pytest.mark.parametrize(
    "temporal, named",
    [
        (((0, 0, 0, 1, 1.0), (0, 1, 0, 0, 1.0), (0, 0, 0, 5, 1.0)), "(0,1)->(0,0)"),
        (((0, 0, 0, 1, 1.0), (0, 0, 0, 5, 1.0), (0, 1, 0, 0, 1.0)), "(0,0)->(0,5)"),
        (((0, 1, 0, 2, -1.0), (0, 0, 0, 5, 1.0)), "(0,1)->(0,2)"),
    ],
)
def test_invalid_edge_error_names_first_bad_row(temporal, named):
    with pytest.raises(ValidationError, match=f"temporal edge {re.escape(named)}") as err:
        replace(chain_sequence(T=3, span=0), temporal_edges=temporal)
    assert str(err.value).count("->") == 1


@pytest.mark.parametrize(
    "temporal",
    [
        ((0, 0, 0, 1),),                        # four columns
        ((0, 0, 0, 1, 1.0), (0, 1, 0)),         # ragged rows
        ((0, 0, 0, 1, "w"),),                   # not a number
        ((0, 0.5, 0, 1, 1.0),),                 # index not a whole number
        ((0, 0, 0, 1, float("nan")),),          # weight not finite
    ],
    ids=["width", "ragged", "text", "fraction", "nan"],
)
def test_malformed_edge_rows_rejected(temporal):
    with pytest.raises(ValidationError):
        replace(chain_sequence(T=3, span=0), temporal_edges=temporal)


def test_edges_are_read_only_float64():
    seq = chain_sequence(T=4, span=2)
    for edges, width in ((seq.spatial_edges, 4), (seq.temporal_edges, 5)):
        assert edges.dtype == np.float64 and edges.shape[1] == width
        assert not edges.flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_feature_rejected_naming_the_track(value):
    seq = chain_sequence(T=3, span=1, num_tracks=2)
    features = seq.tracks[1].features.copy()
    features[1, 0] = value  # at a present step
    tracks = (seq.tracks[0], replace(seq.tracks[1], features=features))
    with pytest.raises(ValidationError, match="track n1: non-finite feature value"):
        replace(seq, tracks=tracks)


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan], ids=["half", "two", "minus-one", "nan"])
def test_multi_label_matrix_must_be_binary(value):
    seq = replace(chain_sequence(T=3), mode="multi", labels=np.zeros((3, 2), dtype=np.float32))
    labels = seq.labels.copy()
    labels[1, 1] = value
    with pytest.raises(ValidationError, match="binary matrix"):
        replace(seq, labels=labels)


@pytest.mark.parametrize("value", [1.5, np.nan, -1, 2], ids=["fraction", "nan", "negative", "C"])
def test_single_label_must_be_a_whole_class_index(value):
    seq = chain_sequence(T=3)
    labels = seq.labels.astype(np.float64)
    labels[2] = value
    with pytest.raises(ValidationError, match="label index out of range or not whole"):
        replace(seq, labels=labels)


def test_nonzero_features_at_absent_step_rejected():
    seq = chain_sequence(T=3, span=0)
    tr = seq.tracks[0]
    presence = tr.presence.copy()
    presence[1] = False  # features left nonzero on purpose
    with pytest.raises(ValidationError):
        replace(seq, tracks=(replace(tr, presence=presence),))


# -- deformation -------------------------------------------------------------


def test_empty_drop_schedule_is_identity():
    seq = chain_sequence()
    assert apply_deformation(seq, []) is seq


def test_drop_whole_track_zeroes_adjacency_rows():
    seq = chain_sequence(T=3, span=2, num_tracks=2)
    deformed = apply_deformation(seq, [(0, t) for t in range(3)])
    a_s, a_t = dense_adjacency(deformed, span=3)
    rows = [flat_index(0, t, 2) for t in range(3)]
    assert not a_s[rows].any() and not a_s[:, rows].any()
    assert not a_t[rows].any() and not a_t[:, rows].any()


def test_drop_middle_step_keeps_bridging_edge():
    seq = chain_sequence(T=3, span=2)
    deformed = apply_deformation(seq, [(0, 1)])
    _, a_t = dense_adjacency(deformed, span=2)
    # edge across the dropped step survives, edges into it are gone
    assert a_t[0, 2] == 1.0
    assert a_t[0, 1] == 0.0 and a_t[1, 2] == 0.0
    short = build_adjacency(deformed, span=1)
    assert not short.a_t.any()


def test_deformation_commutes_with_adjacency_zeroing():
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(12, 12))
    seq, _ = synth_generate(cfg, 5)
    rng = np.random.default_rng(9)
    schedule = sample_drop_schedule(seq, 0.25, rng)
    zeroed_s, zeroed_t = dense_adjacency(seq, span=3)
    after_s, after_t = dense_adjacency(apply_deformation(seq, schedule), span=3)
    rows = [flat_index(n, t, seq.num_tracks) for n, t in schedule]
    for m in (zeroed_s, zeroed_t):
        m[rows, :] = 0
        m[:, rows] = 0
    assert np.array_equal(after_s, zeroed_s)
    assert np.array_equal(after_t, zeroed_t)


def test_drop_schedule_counts():
    seq = chain_sequence(T=20, span=1, num_tracks=3)
    schedule = sample_drop_schedule(seq, 0.2, np.random.default_rng(1))
    assert len(schedule) == round(0.2 * 3 * 20)
    assert len(set(schedule)) == len(schedule)
    assert all(0 <= n < 3 and 0 <= t < 20 for n, t in schedule)


def test_drop_point_out_of_range():
    with pytest.raises(ValidationError):
        apply_deformation(chain_sequence(), [(0, 99)])


# -- synthesis ---------------------------------------------------------------


def test_synth_deterministic():
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(4,), t_range=(20, 40))
    a, _ = synth_generate(cfg, 11)
    b, _ = synth_generate(cfg, 11)
    assert a.num_steps == b.num_steps
    assert np.array_equal(a.labels, b.labels)
    for ta, tb in zip(a.tracks, b.tracks):
        assert np.array_equal(ta.features, tb.features)


def test_zero_noise_features_equal_means():
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(4,), noise=0.0, t_range=(15, 15))
    seq, oracle = synth_generate(cfg, 3)
    means = np.asarray(oracle["means"], dtype=np.float32)  # (C, N=1, d)
    for t in range(seq.num_steps):
        assert np.array_equal(seq.tracks[0].features[t], means[seq.labels[t], 0])


def test_bayes_oracle_at_zero_noise():
    cfg = SynthConfig(num_classes=4, cluster_feature_lens=(4, 6), noise=0.0, t_range=(30, 60))
    seqs, oracle = generate_dataset(cfg, 17, 10)
    means = [[np.asarray(m, dtype=np.float32) for m in row] for row in oracle["means"]]
    preds, truths = [], []
    for seq in seqs:
        preds.extend(bayes_predict(seq, means).tolist())
        truths.extend(seq.labels.tolist())
    assert f1_score(preds, truths, cfg.num_classes) >= 0.99


def test_dataset_shares_means_across_sequences():
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(4,), noise=0.0, t_range=(10, 10))
    seqs, oracle = generate_dataset(cfg, 8, 3)
    means = np.asarray(oracle["means"], dtype=np.float32)
    for seq in seqs:
        for t in range(seq.num_steps):
            assert np.array_equal(seq.tracks[0].features[t], means[seq.labels[t], 0])


def test_degenerate_synth_config_rejected():
    with pytest.raises(ValidationError):
        synth_generate(SynthConfig(num_classes=1), 0)
    with pytest.raises(ValidationError):
        synth_generate(SynthConfig(noise=-1.0), 0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    span=st.integers(1, 4),
    rate=st.floats(0.0, 0.4),
    cross=st.booleans(),
)
def test_adjacency_invariants_property(seed, span, rate, cross):
    cfg = SynthConfig(
        num_classes=3, cluster_feature_lens=(3, 4), t_range=(8, 16), temporal_span=span
    )
    seq, _ = synth_generate(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    seq = apply_deformation(seq, sample_drop_schedule(seq, rate, rng))
    a_s, a_t = dense_adjacency(seq, span, cross_cluster_in_temporal=cross)
    for m in (a_s, a_t):
        assert np.array_equal(m, m.T)
        assert np.all(m >= 0)
    # absent nodes contribute all-zero rows
    for n, tr in enumerate(seq.tracks):
        for t in np.flatnonzero(~tr.presence):
            r = flat_index(n, t, seq.num_tracks)
            assert not a_s[r].any() and not a_t[r].any()
    # the vectorized block assembly equals the edge-by-edge dense one
    expected_s, expected_t = dense_build_adjacency(seq, span, cross)
    assert np.array_equal(a_s, expected_s) and np.array_equal(a_t, expected_t)


# -- windowing ---------------------------------------------------------------


def test_slice_reindexes_temporal_edges():
    seq = chain_sequence(T=6, span=2)
    window = slice_sequence(seq, 2, 3)
    assert window.num_steps == 3
    assert np.all(window.temporal_edges[:, 1] >= 0) and np.all(window.temporal_edges[:, 3] < 3)
    # edge (t=2 -> t=3) of the original becomes (0 -> 1)
    assert [0, 0, 0, 1, 1.0] in window.temporal_edges.tolist()
    validate_sequence(window)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    span=st.integers(1, 4),
    cross=st.booleans(),
    length=st.integers(1, 20),
    offset=st.floats(0.0, 1.0),
)
def test_sliced_window_blocks_equal_blocks_of_the_sliced_sequence(
    seed, span, cross, length, offset
):
    cfg = SynthConfig(
        num_classes=3, cluster_feature_lens=(3, 4), t_range=(2, 16), temporal_span=span
    )
    seq, _ = synth_generate(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    seq = apply_deformation(seq, sample_drop_schedule(seq, 0.2, rng, burst=1))
    T = seq.num_steps
    # the one window of a shorter sequence is padded, not sliced
    start = 0 if length > T else int(offset * (T - length))
    window = window_copy(seq, start, length)
    got = build_adjacency(seq, span, cross, start, length)
    want = build_adjacency(window, span, cross)
    assert (got.num_steps, got.num_tracks) == (want.num_steps, want.num_tracks)
    for a, b in ((got.a_s, want.a_s), (got.a_t, want.a_t)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["single", "multi"]),
    place=st.sampled_from(["from_start", "inside", "to_end", "past_T"]),
    length=st.integers(1, 16),
    offset=st.floats(0.0, 1.0),
)
def test_window_copies_equal_the_per_track_reference(seed, mode, place, length, offset):
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), tracks_per_cluster=2,
                      t_range=(2, 16), temporal_span=3, mode=mode)
    seq, _ = synth_generate(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    seq = apply_deformation(seq, sample_drop_schedule(seq, 0.2, rng, burst=2))
    T = seq.num_steps
    if place == "past_T":
        start, length = 0, T + length
    else:
        length = min(length, T)
        start = {"from_start": 0, "inside": int(offset * (T - length)), "to_end": T - length}[place]
    window = Window(seq, start, length)
    want = window_copy(seq, start, length)
    copy = pad_sequence(seq, length) if place == "past_T" else slice_sequence(seq, start, length)
    for got in (window.sequence(), copy):
        assert got.num_steps == want.num_steps == length
        for name in ("spatial_edges", "temporal_edges", "labels", "label_mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for tr, ref in zip(got.tracks, want.tracks):
            assert tr.features.dtype == ref.features.dtype
            assert np.array_equal(tr.features, ref.features)
            assert np.array_equal(tr.presence, ref.presence)
    for tr, ref in zip(seq.tracks, want.tracks):
        rows = window.padded(tr.features)
        assert rows.dtype == ref.features.dtype and np.array_equal(rows, ref.features)
        # a view inside T, so the prefix copies each feature row once
        assert np.shares_memory(rows, tr.features) == (place != "past_T")
    assert np.array_equal(window.presence, reference_flat_presence(want))
    assert np.array_equal(window.labels, want.labels)
    assert np.array_equal(window.label_mask, want.label_mask)


def test_sliced_window_blocks_drop_edges_across_the_border():
    seq = load_stgs(str(STGS_FIXTURE))
    for start, length in ((3, 5), (0, 2), (4, 1), (0, 12)):
        window = slice_sequence(seq, start, length)
        crossing = (seq.temporal_edges[:, 1] < start + length) & (
            seq.temporal_edges[:, 3] >= start + length
        )
        assert crossing.any() or start + length == 12
        got = build_adjacency(seq, 2, start=start, length=length)
        assert got.a_t.shape[1] == 2 * min(2, length - 1) + 1  # the band narrows
        assert np.array_equal(got.a_t, build_adjacency(window, 2).a_t)
        assert np.array_equal(got.a_s, build_adjacency(window, 2).a_s)


@pytest.mark.parametrize("start, length", [(-1, 3), (10, 3), (1, 13), (0, 0)])
def test_sliced_window_out_of_range_rejected(start, length):
    seq = load_stgs(str(STGS_FIXTURE))  # T = 12
    with pytest.raises(ValidationError, match="window out of range"):
        Window(seq, start, length)
    with pytest.raises(ValidationError, match="window out of range"):
        build_adjacency(seq, 2, start=start, length=length)


def test_pad_masks_added_steps():
    seq = chain_sequence(T=3, span=1)
    padded = pad_sequence(seq, 5)
    assert padded.num_steps == 5
    assert padded.label_mask.tolist() == [True] * 3 + [False] * 2
    assert not padded.tracks[0].presence[3:].any()
    assert not padded.tracks[0].features[3:].any()
    validate_sequence(padded)


def test_pad_shorter_target_rejected():
    with pytest.raises(ValidationError):
        pad_sequence(chain_sequence(T=5), 3)


# -- STGS format -------------------------------------------------------------


def test_stgs_roundtrip_single(tmp_path):
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(3, 5), t_range=(12, 12))
    seq, _ = synth_generate(cfg, 2)
    seq = apply_deformation(
        seq, sample_drop_schedule(seq, 0.2, np.random.default_rng(0))
    )
    save_stgs(seq, str(tmp_path / "seq"))
    back = load_stgs(str(tmp_path / "seq"))
    assert back.num_steps == seq.num_steps and back.mode == seq.mode
    assert back.clusters == seq.clusters
    assert np.array_equal(back.spatial_edges, seq.spatial_edges)
    assert np.array_equal(back.temporal_edges, seq.temporal_edges)
    assert np.array_equal(back.labels, seq.labels)
    assert np.array_equal(back.label_mask, seq.label_mask)
    for ta, tb in zip(seq.tracks, back.tracks):
        assert ta.track_id == tb.track_id and ta.cluster_id == tb.cluster_id
        assert np.array_equal(ta.features, tb.features)
        assert np.array_equal(ta.presence, tb.presence)


def deformed_two_cluster():
    """Two clusters of two tracks, span 2, single-step drops: edges across gaps and clusters."""
    cfg = SynthConfig(
        num_classes=3, cluster_feature_lens=(3, 4), tracks_per_cluster=2, t_range=(12, 12),
        temporal_span=2,
    )
    seq, _ = synth_generate(cfg, 4)
    return apply_deformation(
        seq, sample_drop_schedule(seq, 0.2, np.random.default_rng(1), burst=1)
    )


def assert_matches_stgs_fixture(directory):
    names = sorted(p.name for p in STGS_FIXTURE.iterdir())
    assert sorted(p.name for p in directory.iterdir()) == names
    for name in names:
        assert (directory / name).read_bytes() == (STGS_FIXTURE / name).read_bytes(), name


def test_synth_reproduces_stgs_fixture(tmp_path):
    seq = deformed_two_cluster()
    # the fixture exercises what the edge arrays must carry through
    gaps = seq.temporal_edges[:, 3] - seq.temporal_edges[:, 1]
    assert (gaps == 2).any() and not all(tr.presence.all() for tr in seq.tracks)
    save_stgs(seq, str(tmp_path / "seq"))
    assert_matches_stgs_fixture(tmp_path / "seq")


def test_stgs_fixture_resaves_identically(tmp_path):
    save_stgs(load_stgs(str(STGS_FIXTURE)), str(tmp_path / "seq"))
    assert_matches_stgs_fixture(tmp_path / "seq")


def test_stgs_roundtrip_multi(tmp_path):
    cfg = SynthConfig(num_classes=4, cluster_feature_lens=(3,), t_range=(10, 10), mode="multi")
    seq, _ = synth_generate(cfg, 4)
    save_stgs(seq, str(tmp_path / "seq"))
    back = load_stgs(str(tmp_path / "seq"))
    assert back.mode == "multi"
    assert np.array_equal(back.labels, seq.labels)


def test_failed_stgs_save_leaves_each_file_old_or_new(tmp_path, monkeypatch):
    old = deformed_two_cluster()
    new = replace(old, tracks=tuple(replace(tr, features=tr.features * 2) for tr in old.tracks),
                  labels=(old.labels + 1) % old.num_classes)
    seq_dir, fresh = tmp_path / "seq", tmp_path / "fresh"
    save_stgs(old, str(seq_dir))
    save_stgs(new, str(fresh))
    before = {p.name: p.read_bytes() for p in seq_dir.iterdir()}
    after = {p.name: p.read_bytes() for p in fresh.iterdir()}
    written, dump = [], graph.dump_tensor

    def failing_dump(fh, arr):
        if len(written) == 1:
            raise OSError("disk full")
        written.append(arr)
        dump(fh, arr)

    monkeypatch.setattr(graph, "dump_tensor", failing_dump)
    with pytest.raises(OSError):
        save_stgs(new, str(seq_dir))
    monkeypatch.undo()
    assert sorted(p.name for p in seq_dir.iterdir()) == sorted(before)  # no *.tmp left
    for name, data in before.items():
        assert (seq_dir / name).read_bytes() in (data, after[name]), name
    assert (seq_dir / "track_0.bin").read_bytes() == after["track_0.bin"]
    assert (seq_dir / "manifest.json").read_bytes() == before["manifest.json"]


def test_stgs_rejects_foreign_manifest(tmp_path):
    d = tmp_path / "bogus"
    d.mkdir()
    (d / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(ValidationError):
        load_stgs(str(d))
