"""Hourglass blocks: per-level adjacency, skip wiring, temporal extents."""

import functools

import numpy as np
import pytest

from dataclasses import replace

from stacked_stgcn import hourglass
from stacked_stgcn.blocks import normalize_built
from stacked_stgcn.blocks import subsample as subsample_blocks
from stacked_stgcn.errors import DimensionError
from stacked_stgcn.graph import AdjacencyPair, Window, apply_deformation, build_adjacency
from stacked_stgcn.hourglass import (
    EncoderLevelParams,
    HourglassBlockParams,
    build_level_adjacency,
    head_forward,
    hourglass_forward,
    stack_forward,
    temporal_conv_flat,
)
from stacked_stgcn.layers import (
    StgcnLayerParams,
    centering_matrix,
    flat_presence,
    pooling_matrix,
    stgcn_layer,
)
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, sample_drop_schedule, synth_generate
from stacked_stgcn.tensor import Tensor, backward
from stacked_stgcn.training import sequence_loss

from dense_reference import (
    blocks_to_dense,
    chained_level_adjacency,
    dense_build_adjacency,
    dense_centering,
    dense_normalize,
    dense_pooling,
    dense_subsample,
    dense_to_blocks,
)
from test_model import with_nonzero_biases


def dense_pair(a_s, a_t, band):
    """Single-track adjacency pair from dense T x T matrices."""
    return AdjacencyPair(
        a_s=dense_to_blocks(a_s, 1, 0), a_t=dense_to_blocks(a_t, 1, band),
        num_tracks=1, num_steps=a_s.shape[0],
    )


def chain_pair(T, span, weight=1.0):
    """Single-track temporal chain with gaps 1..span as an adjacency pair."""
    a_t = np.zeros((T, T), dtype=np.float32)
    for t in range(T):
        for d in range(1, span + 1):
            if t + d < T:
                a_t[t, t + d] = a_t[t + d, t] = weight
    return dense_pair(np.zeros((T, T), dtype=np.float32), a_t, span)


def layer_params(rng, total_rows, d_in, d_out):
    return StgcnLayerParams(
        w_s={0: Tensor(rng.uniform(-1, 1, (d_in, d_out)).astype(np.float32))},
        w_t=Tensor(rng.uniform(-1, 1, (d_out, d_out)).astype(np.float32)),
        cluster_rows={0: np.arange(total_rows, dtype=np.intp)},
    )


# -- subsampling -------------------------------------------------------------


def test_subsample_stride_one_identity():
    adj = chain_pair(4, 1)
    for a in (adj.a_s, adj.a_t):
        same = subsample_blocks(a, 1)
        assert np.array_equal(same, a) and np.shares_memory(same, a)
    levels = build_level_adjacency(adj, levels=2, stride=1)
    for lv in levels:
        assert np.array_equal(lv.ns, levels[0].ns) and np.array_equal(lv.nt, levels[0].nt)


def test_subsample_connectivity_depends_on_span():
    short = subsample_blocks(chain_pair(4, 1).a_t, 2)
    assert build_level_adjacency(chain_pair(4, 1), levels=1, stride=2)[1].num_steps == 2
    assert len(short) == 2
    assert not short.any()  # span-1 edges never reach across the gap
    long = blocks_to_dense(subsample_blocks(chain_pair(4, 2).a_t, 2))
    assert long[0, 1] == 1.0 and long[1, 0] == 1.0


def test_subsample_dimensions():
    adj = chain_pair(8, 1)
    levels = build_level_adjacency(adj, levels=2, stride=2)
    assert [lv.nt.shape[0] for lv in levels] == [8, 4, 2]
    assert [lv.num_steps for lv in levels] == [8, 4, 2]


def test_subsample_preserves_invariants(rng):
    T = 9
    m = rng.uniform(0, 1, (T, T)).astype(np.float32)
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0)
    adj = dense_pair(np.zeros_like(m), m, T - 1)
    sub = subsample_blocks(adj.a_t, 2)
    assert len(sub) == 5
    sub_t = blocks_to_dense(sub)
    assert np.array_equal(sub_t, sub_t.T)
    assert np.all(sub_t >= 0)
    # surviving entries equal the original entries at kept timesteps
    keep = np.arange(0, T, 2)
    assert np.array_equal(sub_t, m[np.ix_(keep, keep)])


def test_stride_below_one_rejected():
    with pytest.raises(DimensionError, match="stride must be >= 1"):
        build_level_adjacency(chain_pair(4, 1), levels=1, stride=0)


def deformed_sequence(seed, span, T=23):
    """A two-cluster synthetic sequence with random extra edges and dropped nodes."""
    synth_cfg = SynthConfig(
        num_classes=2, cluster_feature_lens=(3, 4), tracks_per_cluster=2,
        t_range=(T, T), temporal_span=span,
    )
    seq, _ = synth_generate(synth_cfg, seed)
    rng = np.random.default_rng(seed)
    if seed:
        seq = random_edges(seq, rng, span)
    return apply_deformation(seq, sample_drop_schedule(seq, 0.25, rng))


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("cross", [False, True])
def test_levels_equal_chained_subsample_then_normalize(levels, stride, cross):
    for seed in range(3):
        adj = build_adjacency(Window(deformed_sequence(seed, span=5)), 5, cross)
        got = build_level_adjacency(adj, levels, stride)
        want = chained_level_adjacency(adj, levels, stride)
        assert len(got) == len(want) == levels + 1
        for lv, (ns, nt) in zip(got, want):
            assert np.array_equal(lv.ns, ns) and np.array_equal(lv.nt, nt)
            assert lv.num_steps == len(nt) and lv.num_tracks == adj.num_tracks


@pytest.mark.parametrize("levels", [0, 1, 3])
def test_prepare_levels_normalizes_levels_plus_two_times(monkeypatch, levels):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return normalize_built(a)

    monkeypatch.setattr(hourglass, "normalize_built", counted)
    cfg = ModelConfig(cluster_feature_lens=(3, 4), num_classes=2, d_model=4, levels=levels)
    StgcnModel(cfg, seed=0).prepare_levels(Window(deformed_sequence(1, span=3)))
    assert len(calls) == levels + 2  # A_s once, A_t per level


def random_edges(seq, rng, span):
    """Random-weight spatial edges; temporal edges between any tracks, gaps up to span + 2."""
    N, T = seq.num_tracks, seq.num_steps
    spatial = tuple(
        (t, int(i), int(j), float(rng.uniform(0.1, 1.0)))
        for t in range(T)
        for i, j in rng.integers(0, N, (3, 2))
    )
    temporal = []
    for _ in range(4 * N * T):
        i, j = (int(v) for v in rng.integers(0, N, 2))
        ti = int(rng.integers(0, T - 1))
        tj = min(T - 1, ti + int(rng.integers(1, span + 3)))
        temporal.append((i, ti, j, tj, float(rng.uniform(0.1, 1.0))))
    return replace(seq, spatial_edges=spatial, temporal_edges=tuple(temporal))


@pytest.mark.parametrize("harmonization", ["projection", "per-cluster-gcn"])
@pytest.mark.parametrize("span", [1, 3, 5, 30])
@pytest.mark.parametrize("stride", [2, 3])
def test_level_blocks_match_dense_construction(harmonization, span, stride):
    # T=23 divides by neither stride at any level: 23, 12, 6, 3 and 23, 8, 3, 1
    cfg = ModelConfig(
        cluster_feature_lens=(3, 4), num_classes=2, d_model=4, levels=3, stride=stride,
        span=span, harmonization=harmonization,
        node_type_clusters=(("actor", 0), ("object", 1)),
    )
    for seed in range(3):
        seq = deformed_sequence(seed, span)
        N = seq.num_tracks
        levels = StgcnModel(cfg, seed=0).prepare_levels(Window(seq))
        a_s, a_t = dense_build_adjacency(
            seq, span, cross_cluster_in_temporal=harmonization == "per-cluster-gcn"
        )
        assert len(levels) == cfg.levels + 1
        for lv in levels:
            assert lv.num_steps * N == a_s.shape[0]
            # a band wider than the sequence is clamped to offsets that exist
            assert lv.ns.shape[1] == 1
            assert lv.nt.shape[1] <= 2 * min(span, lv.num_steps - 1) + 1
            assert np.abs(blocks_to_dense(lv.ns) - dense_normalize(a_s)).max() <= 1e-6
            assert np.abs(blocks_to_dense(lv.nt) - dense_normalize(a_t)).max() <= 1e-6
            a_s, a_t = dense_subsample(a_s, N, stride), dense_subsample(a_t, N, stride)
        presence = flat_presence(seq)
        assert np.abs(
            blocks_to_dense(centering_matrix(seq.presence)) - dense_centering(presence, N)
        ).max() <= 1e-6
        assert np.abs(
            blocks_to_dense(pooling_matrix(seq.presence)) - dense_pooling(presence, N)
        ).max() <= 1e-6


# -- block wiring ------------------------------------------------------------


def test_levels_zero_degenerates_to_single_layer(rng):
    adj = chain_pair(4, 2)
    levels = build_level_adjacency(adj, levels=0, stride=2)
    d = 3
    params = layer_params(rng, 4, d, d)
    block = HourglassBlockParams(encoder=[], bottleneck=params, decoder=[])
    h = Tensor(rng.uniform(-1, 1, (4, d)).astype(np.float32))
    out = hourglass_forward(h, levels, block, stride=2)
    expected = stgcn_layer(h, levels[0].ns, levels[0].nt, params)
    assert np.array_equal(out.data, expected.data)


def build_one_level_block(rng, d, zero_decoder=False):
    conv = rng.uniform(-1, 1, (2, d, d)).astype(np.float32)
    deconv = np.zeros((2, d, d), dtype=np.float32) if zero_decoder else (
        rng.uniform(-1, 1, (2, d, d)).astype(np.float32)
    )
    return HourglassBlockParams(
        encoder=[EncoderLevelParams(stgcn=layer_params(rng, 4, d, d), conv_kernel=Tensor(conv))],
        bottleneck=layer_params(rng, 2, d, d),
        decoder=[Tensor(deconv)],
    )


def test_skip_connection_carries_encoder_output(rng):
    adj = chain_pair(4, 2)
    levels = build_level_adjacency(adj, levels=1, stride=2)
    d = 3
    block = build_one_level_block(rng, d, zero_decoder=True)
    h = Tensor(rng.uniform(-1, 1, (4, d)).astype(np.float32))
    out = hourglass_forward(h, levels, block, stride=2)
    enc = stgcn_layer(h, levels[0].ns, levels[0].nt, block.encoder[0].stgcn)
    assert np.array_equal(out.data, enc.data)


def test_stack_depth_one_equals_single_block(rng):
    adj = chain_pair(4, 2)
    levels = build_level_adjacency(adj, levels=1, stride=2)
    d = 3
    block = build_one_level_block(rng, d)
    h = Tensor(rng.uniform(-1, 1, (4, d)).astype(np.float32))
    single = hourglass_forward(h, levels, block, stride=2)
    stacked = stack_forward(h, levels, [block], stride=2)
    assert np.array_equal(single.data, stacked.data)


def test_conv_flat_pads_to_stride_multiple(rng):
    # T=3, stride 2: padded to 4 steps, output has ceil(3/2)=2 steps
    d = 2
    h = rng.uniform(-1, 1, (3, d)).astype(np.float32)
    kernel = rng.uniform(-1, 1, (2, d, d)).astype(np.float32)
    out = temporal_conv_flat(Tensor(h), Tensor(kernel), 2, num_tracks=1, num_steps=3)
    assert out.shape == (2, d)
    padded = np.vstack([h, np.zeros((1, d), dtype=np.float32)]).astype(np.float64)
    k64 = kernel.astype(np.float64)
    expected = np.stack(
        [padded[s] @ k64[0] + padded[s + 1] @ k64[1] for s in (0, 2)]
    )
    assert np.allclose(out.data, expected, atol=1e-5)


@pytest.mark.parametrize("T", [7, 8, 50])
def test_model_preserves_temporal_extent(T):
    cfg = ModelConfig(
        cluster_feature_lens=(3,), num_classes=2, d_model=4, levels=2, stride=2,
        stack_depth=1, span=2,
    )
    synth_cfg = SynthConfig(
        num_classes=2, cluster_feature_lens=(3,), t_range=(T, T), temporal_span=2
    )
    seq, _ = synth_generate(synth_cfg, 0)
    scores = StgcnModel(cfg, seed=0).forward_scores(seq)
    assert scores.shape == (T, 2)


# -- head --------------------------------------------------------------------


def test_head_identity_pooling(rng):
    T, d, C = 3, 4, 2
    presence = np.ones(T, dtype=bool)  # one node per timestep
    pool = pooling_matrix(presence.reshape(-1, 1))
    assert np.array_equal(blocks_to_dense(pool), np.eye(T, dtype=np.float32))
    h = Tensor(rng.uniform(-1, 1, (T, d)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (d, C)).astype(np.float32))
    b = Tensor(rng.uniform(-1, 1, C).astype(np.float32))
    out = head_forward(h, pool, w, b)
    assert np.allclose(out.data, h.data @ w.data + b.data, atol=1e-5)


def test_head_all_absent_timestep_scores_bias(rng):
    presence = np.array([True, True, False, False], dtype=bool)  # T=2, N=2
    pool = pooling_matrix(presence.reshape(-1, 2))
    h = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (3, 2)).astype(np.float32))
    b = Tensor(np.array([0.3, -0.7], dtype=np.float32))
    out = head_forward(h, pool, w, b)
    assert np.allclose(out.data[1], b.data, atol=1e-6)


# -- the last decoder on pooled rows -----------------------------------------


def full_decoder_body(model, h, levels, presence, params):
    """The window body with the last decoder at node resolution, then the plain head."""
    cfg = model.cfg
    h = stack_forward(h, levels, model._blocks(params), cfg.stride)
    pool = pooling_matrix(presence)
    return head_forward(h, pool, params["head/w"], params["head/b"])


def assert_close_to_largest(actual, expected, context):
    err = np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-30)
    assert err <= 1e-5, f"{context}: off by {err:.2e} of the largest magnitude"


@pytest.mark.parametrize(
    "levels, stride, center_input, stack_depth, T",
    [
        (1, 2, True, 1, 13),
        (1, 3, False, 2, 7),
        (2, 2, True, 2, 13),
        (2, 3, False, 1, 13),
        (3, 2, False, 2, 13),
        (3, 3, True, 1, 31),
    ],
)
def test_pooled_head_matches_the_full_decoder(levels, stride, center_input, stack_depth, T):
    cfg = ModelConfig(
        cluster_feature_lens=(3, 4), num_classes=3, d_model=8, levels=levels, stride=stride,
        stack_depth=stack_depth, center_input=center_input, span=2,
    )
    synth_cfg = SynthConfig(
        num_classes=3, cluster_feature_lens=(3, 4), t_range=(T, T), temporal_span=2
    )
    seq, _ = synth_generate(synth_cfg, T)
    # no node is present at timestep 1, and some are missing elsewhere
    drops = [(n, 1) for n in range(seq.num_tracks)]
    drops += sample_drop_schedule(seq, 0.2, np.random.default_rng(T))
    seq = apply_deformation(seq, drops)
    assert T % stride**levels and not flat_presence(seq).reshape(T, -1)[1].any()

    model = with_nonzero_biases(StgcnModel(cfg, seed=levels))
    oracle = StgcnModel.from_params(cfg, model.params)
    oracle._body = functools.partial(full_decoder_body, oracle)
    runs = []
    for m in (model, oracle):
        tape, taped, scores = m.forward_taped(Window(seq))
        grads = backward(tape, sequence_loss(scores, seq, "single"))
        runs.append((scores.data, {path: grads[t.tid] for path, t in taped.items()}))
    (scores, grads), (want_scores, want_grads) = runs
    assert_close_to_largest(scores, want_scores, "scores")
    for path, want in want_grads.items():
        assert_close_to_largest(grads[path], want, path)
    # untaped on folded weights: a window padded past the end, and two inside
    for starts, window in (([0], T + 5), ([0, 2], T - 2)):
        got = model.score_windows(seq, starts, window)
        want = oracle.score_windows(seq, starts, window)
        for start, a, b in zip(starts, got, want):
            assert_close_to_largest(a, b, f"window [{start}, {start + window})")


def test_pooled_head_rejects_a_kernel_whose_taps_differ_from_the_stride(rng):
    presence = np.ones(8, dtype=bool)  # T=4, N=2
    h = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32))  # level 1: 2 steps x 2 nodes
    w = Tensor(rng.uniform(-1, 1, (3, 2)).astype(np.float32))
    kernel = Tensor(rng.uniform(-1, 1, (3, 3, 3)).astype(np.float32))
    skip = Tensor(rng.uniform(-1, 1, (8, 3)).astype(np.float32))  # level 0: 4 steps x 2 nodes
    decoder = [(pooling_matrix(presence.reshape(-1, 2)), kernel, skip)]
    with pytest.raises(DimensionError, match="3 taps, stride is 2"):
        head_forward(h, pooling_matrix(presence.reshape(-1, 2), 2), w, None, decoder, stride=2)


@pytest.mark.parametrize("phases", [1, 2, 3, 4])
def test_pooling_phases_reshape_the_per_timestep_rows(phases):
    T, N = 7, 3
    presence = np.random.default_rng(phases).random(T * N) < 0.6
    pool = pooling_matrix(presence.reshape(-1, N), phases)
    assert pool.shape == (-(-T // phases), 1, phases, N)
    rows = pool.reshape(-1, N)
    assert np.array_equal(rows[:T], pooling_matrix(presence.reshape(-1, N))[:, 0, 0])
    assert not rows[T:].any()
