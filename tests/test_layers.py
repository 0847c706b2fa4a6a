"""Normalization, the generalized STGCN layer, harmonization, centering."""

import numpy as np
import pytest

from stacked_stgcn import tensor as tn
from stacked_stgcn.errors import ConfigurationError, DimensionError, ValidationError
from stacked_stgcn.graph import FeatureCluster, NodeTrack, StgSequence, Window
from stacked_stgcn.layers import (
    StgcnLayerParams,
    centering_matrix,
    cluster_row_index,
    flat_presence,
    harmonize_projection,
    normalize_adjacency,
    pooling_matrix,
    stgcn_layer,
    stgcn_layer_grid,
    subtract_mean,
)
from stacked_stgcn.tensor import Tensor

from dense_reference import blocks_to_dense


def random_symmetric(rng, n, density=0.5):
    m = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(m, 0.0)
    return np.maximum(m, m.T).astype(np.float32)


def single_cluster_params(rng, total_rows, d_in, d_out):
    return StgcnLayerParams(
        w_s={0: Tensor(rng.uniform(-1, 1, (d_in, d_out)).astype(np.float32))},
        w_t=Tensor(rng.uniform(-1, 1, (d_out, d_out)).astype(np.float32)),
        cluster_rows={0: np.arange(total_rows, dtype=np.intp)},
    )


# -- normalization -----------------------------------------------------------


def test_normalize_isolated_node():
    assert np.array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])


def test_normalize_hand_value():
    out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-7)


def test_normalize_zero_is_identity():
    assert np.array_equal(normalize_adjacency(np.zeros((5, 5))), np.eye(5))


def test_normalize_rejects_bad_input():
    with pytest.raises(ValidationError):
        normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValidationError):
        normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        normalize_adjacency(np.zeros((2, 3)))


def test_normalize_spectral_radius(rng):
    for _ in range(100):
        n = random_symmetric(rng, 8)
        normalized = normalize_adjacency(n).astype(np.float64)
        assert np.array_equal(normalized, normalized.T)
        radius = np.abs(np.linalg.eigvalsh(normalized)).max()
        assert radius <= 1.0001


# -- STGCN layer -------------------------------------------------------------


def test_layer_zero_adjacency_degeneracy(rng):
    h = Tensor(rng.uniform(-1, 1, (6, 3)).astype(np.float32))
    params = single_cluster_params(rng, 6, 3, 4)
    eye = Tensor(np.eye(6, dtype=np.float32))
    out = stgcn_layer(h, eye, eye, params)
    expected = np.maximum(
        h.data.astype(np.float64)
        @ params.w_s[0].data.astype(np.float64)
        @ params.w_t.data.astype(np.float64),
        0,
    )
    assert np.allclose(out.data, expected, atol=1e-5)


def test_layer_single_node_single_step(rng):
    h = Tensor(rng.uniform(-1, 1, (1, 3)).astype(np.float32))
    params = single_cluster_params(rng, 1, 3, 2)
    eye = Tensor(np.eye(1, dtype=np.float32))
    out = stgcn_layer(h, eye, eye, params)
    expected = np.maximum(h.data @ params.w_s[0].data @ params.w_t.data, 0)
    assert np.allclose(out.data, expected, atol=1e-5)


def reference_stgcn(h, a_s, a_t, w_s_by_cluster, rows_by_cluster, w_t):
    """Independent dense evaluation: spatial GCN, temporal GCN, ReLU last."""

    def norm(a):
        ah = a.astype(np.float64) + np.eye(a.shape[0])
        d = 1.0 / np.sqrt(ah.sum(axis=1))
        return d[:, None] * ah * d[None, :]

    h = h.astype(np.float64)
    projected = np.zeros((h.shape[0], w_t.shape[0]))
    for c, rows in rows_by_cluster.items():
        projected[rows] = h[rows] @ w_s_by_cluster[c].astype(np.float64)
    h_s = norm(a_s) @ projected
    return np.maximum(norm(a_t) @ h_s @ w_t.astype(np.float64), 0.0)


def test_layer_matches_independent_oracle(rng):
    # 3 nodes over 2 timesteps, two clusters with distinct spatial weights
    N, T, d_in, d_out = 3, 2, 4, 3
    total = N * T
    rows = {
        0: np.array([t * N + n for n in (0, 1) for t in range(T)], dtype=np.intp),
        1: np.array([t * N + 2 for t in range(T)], dtype=np.intp),
    }
    for trial in range(5):
        h = rng.uniform(-1, 1, (total, d_in)).astype(np.float32)
        a_s = random_symmetric(rng, total)
        a_t = random_symmetric(rng, total)
        ws = {c: rng.uniform(-1, 1, (d_in, d_out)).astype(np.float32) for c in rows}
        wt = rng.uniform(-1, 1, (d_out, d_out)).astype(np.float32)
        params = StgcnLayerParams(
            w_s={c: Tensor(w) for c, w in ws.items()},
            w_t=Tensor(wt),
            cluster_rows=rows,
        )
        out = stgcn_layer(
            Tensor(h),
            Tensor(normalize_adjacency(a_s)),
            Tensor(normalize_adjacency(a_t)),
            params,
        )
        expected = reference_stgcn(h, a_s, a_t, ws, rows, wt)
        assert np.allclose(out.data, expected, atol=1e-5)


def test_grid_degeneracy(rng):
    # with no temporal edges N(A_t) = I and the two forms coincide
    for trial in range(10):
        total = int(rng.integers(2, 8))
        h = Tensor(rng.uniform(-1, 1, (total, 3)).astype(np.float32))
        ns = Tensor(normalize_adjacency(random_symmetric(rng, total)))
        nt = Tensor(normalize_adjacency(np.zeros((total, total))))
        params = single_cluster_params(rng, total, 3, 4)
        full = stgcn_layer(h, ns, nt, params)
        grid = stgcn_layer_grid(h, ns, params)
        assert np.allclose(full.data, grid.data, atol=1e-5)


def test_grid_zero_spatial(rng):
    h = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32))
    params = single_cluster_params(rng, 4, 3, 2)
    out = stgcn_layer_grid(h, Tensor(np.eye(4, dtype=np.float32)), params)
    expected = np.maximum(h.data @ params.w_s[0].data @ params.w_t.data, 0)
    assert np.allclose(out.data, expected, atol=1e-5)


def test_layer_permutation_equivariance(rng):
    total = 6
    h = rng.uniform(-1, 1, (total, 3)).astype(np.float32)
    a_s = random_symmetric(rng, total)
    a_t = random_symmetric(rng, total)
    params = single_cluster_params(rng, total, 3, 4)
    perm = rng.permutation(total)
    base = stgcn_layer(
        Tensor(h), Tensor(normalize_adjacency(a_s)), Tensor(normalize_adjacency(a_t)), params
    )
    permuted = stgcn_layer(
        Tensor(h[perm]),
        Tensor(normalize_adjacency(a_s[np.ix_(perm, perm)])),
        Tensor(normalize_adjacency(a_t[np.ix_(perm, perm)])),
        params,
    )
    assert np.allclose(permuted.data, base.data[perm], atol=1e-5)


def test_layer_zero_input_zero_output(rng):
    total = 6
    h = Tensor(np.zeros((total, 3), dtype=np.float32))
    ns = Tensor(normalize_adjacency(random_symmetric(rng, total)))
    nt = Tensor(normalize_adjacency(random_symmetric(rng, total)))
    out = stgcn_layer(h, ns, nt, single_cluster_params(rng, total, 3, 4))
    assert not out.data.any()


def test_layer_row_count_mismatch(rng):
    h = Tensor(np.zeros((4, 3), dtype=np.float32))
    eye6 = Tensor(np.eye(6, dtype=np.float32))
    with pytest.raises(DimensionError):
        stgcn_layer(h, eye6, eye6, single_cluster_params(rng, 4, 3, 4))


# -- harmonization and helpers ------------------------------------------------


def make_sequence(tracks_spec, T=2, num_classes=2):
    """tracks_spec: list of (node_type, cluster_id, feature_len)."""
    rng = np.random.default_rng(3)
    lens = {}
    tracks = []
    for i, (node_type, cid, flen) in enumerate(tracks_spec):
        lens[cid] = flen
        tracks.append(
            NodeTrack(
                track_id=f"n{i}", node_type=node_type, cluster_id=cid,
                features=rng.standard_normal((T, flen)).astype(np.float32),
                presence=np.ones(T, dtype=bool),
            )
        )
    return StgSequence(
        num_steps=T, num_classes=num_classes, mode="single",
        clusters=tuple(FeatureCluster(c, l) for c, l in sorted(lens.items())),
        tracks=tuple(tracks),
        spatial_edges=(),
        temporal_edges=(),
        labels=np.zeros(T, dtype=np.int64),
        label_mask=np.ones(T, dtype=bool),
    )


def test_projection_identity_kernel():
    seq = make_sequence([("actor", 0, 3), ("actor", 0, 3)])
    out = harmonize_projection(Window(seq), {"actor": Tensor(np.eye(3, dtype=np.float32))})
    N, T = seq.num_tracks, seq.num_steps
    for n, tr in enumerate(seq.tracks):
        for t in range(T):
            assert np.array_equal(out.data[t * N + n], tr.features[t])


def test_projection_mixed_widths_to_common():
    seq = make_sequence([("actor", 0, 1024), ("object", 1, 2048)])
    rng = np.random.default_rng(1)
    kernels = {
        "actor": Tensor(rng.uniform(-0.05, 0.05, (1024, 512)).astype(np.float32)),
        "object": Tensor(rng.uniform(-0.05, 0.05, (2048, 512)).astype(np.float32)),
    }
    out = harmonize_projection(Window(seq), kernels)
    assert out.shape == (seq.num_tracks * seq.num_steps, 512)


def test_projection_absent_node_stays_zero():
    seq = make_sequence([("actor", 0, 3)])
    from dataclasses import replace

    tr = seq.tracks[0]
    presence = tr.presence.copy()
    features = tr.features.copy()
    presence[0] = False
    features[0] = 0
    seq = replace(seq, tracks=(replace(tr, presence=presence, features=features),))
    out = harmonize_projection(Window(seq), {"actor": Tensor(np.ones((3, 4), dtype=np.float32))})
    assert not out.data[0].any()


def test_projection_missing_kernel():
    seq = make_sequence([("actor", 0, 3), ("object", 1, 5)])
    with pytest.raises(ConfigurationError):
        harmonize_projection(Window(seq), {"actor": Tensor(np.eye(3, dtype=np.float32))})


def test_projection_grouped_by_cluster():
    # two node types in one cluster share that cluster's kernel
    seq = make_sequence([("actor", 0, 3), ("object", 0, 3), ("scene", 1, 2)])
    rng = np.random.default_rng(2)
    w0, w1 = (rng.uniform(-1, 1, shape).astype(np.float32) for shape in ((3, 4), (2, 4)))
    by_type = harmonize_projection(
        Window(seq), {"actor": Tensor(w0), "object": Tensor(w0), "scene": Tensor(w1)}
    )
    by_cluster = harmonize_projection(
        Window(seq), {0: Tensor(w0), 1: Tensor(w1)}, group_by="cluster_id"
    )
    np.testing.assert_allclose(by_cluster.data, by_type.data, rtol=0, atol=1e-6)
    with pytest.raises(ConfigurationError):
        harmonize_projection(Window(seq), {0: Tensor(w0)}, group_by="cluster_id")


def test_layer_without_spatial_weights_takes_projected_rows(rng):
    total, d = 6, 4
    h = rng.uniform(-1, 1, (total, d)).astype(np.float32)
    ns = normalize_adjacency(random_symmetric(rng, total))
    nt = normalize_adjacency(random_symmetric(rng, total))
    w_t = Tensor(rng.uniform(-1, 1, (d, d)).astype(np.float32))
    bare = stgcn_layer(Tensor(h), ns, nt, StgcnLayerParams(w_s={}, w_t=w_t))
    identity = StgcnLayerParams(w_s={0: Tensor(np.eye(d, dtype=np.float32))}, w_t=w_t)
    assert np.array_equal(bare.data, stgcn_layer(Tensor(h), ns, nt, identity).data)


def test_cluster_row_index_layout():
    seq = make_sequence([("actor", 0, 2), ("object", 1, 3)], T=3)
    rows = cluster_row_index(seq)
    assert rows[0].tolist() == [0, 2, 4]  # track 0 at t=0,1,2 with N=2
    assert rows[1].tolist() == [1, 3, 5]


def test_subtract_mean_hand_value():
    presence = np.ones(2, dtype=bool)  # one timestep, two nodes
    h = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
    out = subtract_mean(h, presence.reshape(-1, 2))
    assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-6)


def test_subtract_mean_constant_and_singleton():
    presence = np.array([True, True, True, False], dtype=bool)  # T=2, N=2
    h = Tensor(np.array([[2.0], [2.0], [5.0], [0.0]], dtype=np.float32))
    out = subtract_mean(h, presence.reshape(-1, 2))
    # t=0: constant rows go to zero; t=1: single present node goes to zero
    assert np.allclose(out.data, np.zeros((4, 1)), atol=1e-6)


def test_centering_absent_rows_zero():
    presence = np.array([True, False], dtype=bool)
    mat = blocks_to_dense(centering_matrix(presence.reshape(-1, 2)))
    assert not mat[1].any() and not mat[:, 1].any()


def test_pooling_matrix():
    presence = np.array([True, True, False, False], dtype=bool)  # T=2, N=2
    pool = blocks_to_dense(pooling_matrix(presence.reshape(-1, 2)))
    assert pool.shape == (2, 4)
    assert np.allclose(pool[0], [0.5, 0.5, 0.0, 0.0])
    assert not pool[1].any()  # no present node at t=1


def test_flat_presence_layout():
    seq = make_sequence([("actor", 0, 2), ("object", 1, 3)], T=2)
    from dataclasses import replace

    tr0 = seq.tracks[0]
    presence = tr0.presence.copy()
    features = tr0.features.copy()
    presence[1] = False
    features[1] = 0
    seq = replace(seq, tracks=(replace(tr0, presence=presence, features=features), seq.tracks[1]))
    mask = flat_presence(seq)
    assert mask.tolist() == [True, True, False, True]
