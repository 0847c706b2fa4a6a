"""Dense N_t x N_t reference forms of the block-layout graph matrices.

The library stores adjacency, centering and pooling as (T, 2b+1, M, N) block
arrays. The helpers here expand them to plain dense matrices and rebuild the
adjacency the straightforward dense way (Python edge loops, row/column
selection for subsampling), so tests can state expectations in dense form and
compare the two layouts. Window copies are rebuilt track by track, the way
sequences were once sliced and padded, as an oracle for ``graph.Window``,
and per-level adjacency is chained level to level, as an oracle for
``hourglass.build_level_adjacency``.
"""

from dataclasses import replace

import numpy as np

from stacked_stgcn.graph import validate_sequence
from stacked_stgcn.layers import normalize_adjacency
from stacked_stgcn.tensor import DTYPE


def flat_index(track, t, num_tracks):
    """The flat node-time row of ``track`` at timestep ``t`` (time-major)."""
    return t * num_tracks + track


def sliced_sequence(seq, start, length):
    """Timesteps [start, start+length) copied track by track; edges re-indexed, crossers dropped."""
    assert 0 <= start and start + length <= seq.num_steps
    sl = slice(start, start + length)
    tracks = tuple(
        replace(tr, features=tr.features[sl].copy(), presence=tr.presence[sl].copy())
        for tr in seq.tracks
    )
    stop = start + length
    return replace(
        seq,
        num_steps=length,
        tracks=tracks,
        spatial_edges=[[t - start, i, j, w] for t, i, j, w in seq.spatial_edges
                       if start <= t < stop],
        temporal_edges=[[i, ti - start, j, tj - start, w] for i, ti, j, tj, w in seq.temporal_edges
                        if start <= ti and tj < stop],
        labels=seq.labels[sl].copy(),
        label_mask=seq.label_mask[sl].copy(),
    )


def padded_sequence(seq, length):
    """Zero-padded to ``length`` timesteps track by track; padded steps absent and masked out."""
    extra = length - seq.num_steps
    assert extra >= 0
    tracks = tuple(
        replace(
            tr,
            features=np.vstack(
                [tr.features, np.zeros((extra, tr.features.shape[1]), dtype=DTYPE)]
            ),
            presence=np.concatenate([tr.presence, np.zeros(extra, dtype=bool)]),
        )
        for tr in seq.tracks
    )
    if seq.mode == "single":
        labels = np.concatenate([seq.labels, np.zeros(extra, dtype=seq.labels.dtype)])
    else:
        labels = np.vstack(
            [seq.labels, np.zeros((extra, seq.num_classes), dtype=seq.labels.dtype)]
        )
    return replace(
        seq,
        num_steps=length,
        tracks=tracks,
        labels=labels,
        label_mask=np.concatenate([seq.label_mask, np.zeros(extra, dtype=bool)]),
    )


def window_copy(seq, start, length):
    """The window [start, start+length) as a sequence: padded past T (from 0 only), else sliced."""
    if start + length > seq.num_steps:
        assert start == 0
        return padded_sequence(seq, length)
    return sliced_sequence(seq, start, length)


def reference_flat_presence(seq):
    """Presence in flat node-time order, filled entry by entry: row t * N + n is (n, t)."""
    N = seq.num_tracks
    out = np.zeros(seq.num_steps * N, dtype=bool)
    for n, tr in enumerate(seq.tracks):
        for t in range(seq.num_steps):
            out[flat_index(n, t, N)] = tr.presence[t]
    return out


def blocks_to_dense(blocks):
    """(T, 2b+1, M, N) blocks -> the dense (T*M) x (T*N) matrix they stand for."""
    blocks = np.asarray(blocks)
    T, width, M, N = blocks.shape
    half = width // 2
    dense = np.zeros((T * M, T * N), dtype=blocks.dtype)
    for t in range(T):
        for k in range(width):
            u = t + k - half
            if 0 <= u < T:
                dense[t * M : (t + 1) * M, u * N : (u + 1) * N] = blocks[t, k]
    return dense


def dense_to_blocks(dense, num_tracks, band):
    """Dense (T*N) x (T*N) matrix -> (T, 2*band+1, N, N) blocks; no entry may lie off the band."""
    N = num_tracks
    T = dense.shape[0] // N
    blocks = np.zeros((T, 2 * band + 1, N, N), dtype=dense.dtype)
    for t in range(T):
        for k in range(2 * band + 1):
            u = t + k - band
            if 0 <= u < T:
                blocks[t, k] = dense[t * N : (t + 1) * N, u * N : (u + 1) * N]
    assert np.array_equal(blocks_to_dense(blocks), dense), "entries outside the band"
    return blocks


def dense_build_adjacency(seq, span, cross_cluster_in_temporal=False):
    """(A_s, A_t) as dense N_t x N_t matrices, assembled edge by edge."""
    validate_sequence(seq)
    T, N = seq.num_steps, seq.num_tracks
    nt = N * T
    a_s = np.zeros((nt, nt), dtype=np.float32)
    a_t = np.zeros((nt, nt), dtype=np.float32)
    for t, i, j, w in seq.spatial_edges:
        t, i, j = int(t), int(i), int(j)
        if i == j:
            continue
        u, v = flat_index(i, t, N), flat_index(j, t, N)
        same_cluster = seq.tracks[i].cluster_id == seq.tracks[j].cluster_id
        target = a_t if (cross_cluster_in_temporal and not same_cluster) else a_s
        target[u, v] = max(target[u, v], np.float32(w))
        target[v, u] = target[u, v]
    for i, ti, j, tj, w in seq.temporal_edges:
        i, ti, j, tj = int(i), int(ti), int(j), int(tj)
        if tj - ti > span:
            continue
        u, v = flat_index(i, ti, N), flat_index(j, tj, N)
        a_t[u, v] = max(a_t[u, v], np.float32(w))
        a_t[v, u] = a_t[u, v]
    return a_s, a_t


def dense_subsample(dense, num_tracks, stride):
    """Rows and columns of every stride-th timestep of a dense node-time matrix."""
    T = dense.shape[0] // num_tracks
    keep_t = np.arange(0, T, stride)
    rows = (keep_t[:, None] * num_tracks + np.arange(num_tracks)[None, :]).reshape(-1)
    return dense[np.ix_(rows, rows)]


def index_subsample(blocks, stride):
    """Every stride-th timestep and the band offsets divisible by the stride, by index lists."""
    half = blocks.shape[1] // 2
    offsets = half + stride * np.arange(-(half // stride), half // stride + 1)
    return blocks[::stride][:, offsets]


def chained_level_adjacency(adj, levels, stride):
    """(ns, nt) per level: subsample the previous level's raw blocks, then normalize both."""
    out, a_s, a_t = [], adj.a_s, adj.a_t
    for _ in range(levels + 1):
        out.append((normalize_adjacency(a_s), normalize_adjacency(a_t)))
        a_s, a_t = index_subsample(a_s, stride), index_subsample(a_t, stride)
    return out


def dense_normalize(a):
    """D^-1/2 (I+A) D^-1/2 of a dense matrix."""
    a_hat = a.astype(np.float64) + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d[:, None] * a_hat * d[None, :]


def dense_centering(presence, num_tracks):
    """N_t x N_t map subtracting the per-timestep mean over present nodes."""
    nt = presence.shape[0]
    mat = np.zeros((nt, nt))
    for t in range(nt // num_tracks):
        idx = np.flatnonzero(presence[t * num_tracks : (t + 1) * num_tracks]) + t * num_tracks
        if idx.size:
            mat[np.ix_(idx, idx)] = -1.0 / idx.size
            mat[idx, idx] += 1.0
    return mat


def dense_pooling(presence, num_tracks):
    """T x N_t mean over present nodes per timestep; zero rows when none."""
    nt = presence.shape[0]
    mat = np.zeros((nt // num_tracks, nt))
    for t in range(nt // num_tracks):
        idx = np.flatnonzero(presence[t * num_tracks : (t + 1) * num_tracks])
        if idx.size:
            mat[t, idx + t * num_tracks] = 1.0 / idx.size
    return mat


def loop_banded_product(blocks, x):
    """(T*M) x d product of (T, 2b+1, M, N) blocks with T*N rows, one band offset at a time.

    The forward of the former ``banded_matmul``, in the dtype of its inputs;
    blocks that reach outside 0..T-1 are skipped.
    """
    T, width, M, N = blocks.shape
    xd = x.reshape(T, N, -1)
    out = np.zeros((T, M, xd.shape[-1]), dtype=np.result_type(blocks, x))
    for k in range(width):
        delta = k - width // 2
        lo, hi = max(0, -delta), min(T, T - delta)
        if lo < hi:
            out[lo:hi] += blocks[lo:hi, k] @ xd[lo + delta : hi + delta]
    return out.reshape(T * M, -1)


def loop_banded_gradient(blocks, gout):
    """Gradient of :func:`loop_banded_product` with respect to its rows, for upstream ``gout``."""
    T, width, M, N = blocks.shape
    g = gout.reshape(T, M, -1)
    gx = np.zeros((T, N, g.shape[-1]), dtype=np.result_type(blocks, gout))
    for k in range(width):
        delta = k - width // 2
        lo, hi = max(0, -delta), min(T, T - delta)
        if lo < hi:
            gx[lo + delta : hi + delta] += blocks[lo:hi, k].transpose(0, 2, 1) @ g[lo:hi]
    return gx.reshape(T * N, -1)
