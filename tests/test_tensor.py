"""Tensor primitives: forward examples, gradient checks, serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_close, check_op_gradients, finite_diff, op_gradient_cases
from stacked_stgcn import tensor as tn
from stacked_stgcn.errors import ContractError, DimensionError, NumericalError
from stacked_stgcn.graph import Window, apply_deformation, build_adjacency
from stacked_stgcn.layers import (
    centering_matrix,
    flat_presence,
    normalize_adjacency,
    pooling_matrix,
)
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, sample_drop_schedule, synth_generate
from stacked_stgcn.tensor import Tape, Tensor, backward, dump_tensor, load_tensor
from stacked_stgcn.training import masked_ce_loss

from dense_reference import blocks_to_dense, loop_banded_gradient, loop_banded_product

RNG = np.random.default_rng(0)
CASES = op_gradient_cases(RNG)


# -- forward examples --------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = tn.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_value():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(tn.matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_identity_associativity(rng):
    a = Tensor(rng.uniform(-1, 1, (5, 4)).astype(np.float32))
    b = Tensor(rng.uniform(-1, 1, (4, 6)).astype(np.float32))
    ia = tn.matmul(Tensor(np.eye(5)), a)
    assert np.allclose(tn.matmul(ia, b).data, tn.matmul(a, b).data, atol=1e-5)


def test_relu_sign_cases():
    out = tn.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    pos = np.array([0.5, 1.5], dtype=np.float32)
    assert np.array_equal(tn.relu(Tensor(pos)).data, pos)


def test_relu_gradient_routing():
    tape = Tape()
    x = tape.watch(np.array([-1.0, 2.0], dtype=np.float32))
    loss = tn.sum_all(tn.relu(x))
    g = backward(tape, loss)[x.tid]
    assert np.array_equal(g, [0.0, 1.0])


def test_relu_gradient_is_zero_at_zero():
    tape = Tape()
    x = tape.watch(np.array([0.0, -0.0, 1e-30], dtype=np.float32))
    g = backward(tape, tn.sum_all(tn.relu(x)))[x.tid]
    assert np.array_equal(g, [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "idx", [[3, 0, 4, 1, 2], [4, 2], [1, 1, 3, 1, 0, 4, 4]], ids=["permutation", "subset", "repeats"]
)
def test_gather_rows_gradient_equals_accumulated_scatter(rng, idx):
    x = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
    gout = rng.uniform(-1, 1, (len(idx), 3)).astype(np.float32)
    tape = Tape()
    tn.gather_rows(tape.watch(x), idx)
    (_, _, grad_fn), = tape._records
    (gx,) = grad_fn(gout)
    expected = np.zeros_like(x)
    np.add.at(expected, np.asarray(idx), gout)
    assert gx.dtype == np.float32 and np.array_equal(gx, expected)


def test_backward_releases_records_as_it_sweeps(rng):
    tape = Tape()
    w = tape.watch(rng.uniform(-1, 1, (3, 3)).astype(np.float32))
    h = tn.relu(tn.matmul(w, w))
    backward(tape, tn.sum_all(tn.matmul(h, w)))
    assert tape._records == []


def test_conv_identity_kernel():
    x = np.arange(8, dtype=np.float32).reshape(4, 2)
    kernel = np.eye(2, dtype=np.float32).reshape(1, 2, 2)
    out = tn.conv1d_temporal(Tensor(x), Tensor(kernel), 1)
    assert np.array_equal(out.data, x)


def test_conv_hand_value():
    x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    kernel = Tensor(np.ones((2, 1, 1), dtype=np.float32))
    out = tn.conv1d_temporal(x, kernel, 2)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_conv_too_short():
    with pytest.raises(DimensionError):
        tn.conv1d_temporal(Tensor(np.zeros((1, 1))), Tensor(np.zeros((2, 1, 1))), 1)


def test_conv_k1_equals_matmul(rng):
    x = rng.uniform(-1, 1, (6, 3)).astype(np.float32)
    w = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
    conv = tn.conv1d_temporal(Tensor(x), Tensor(w.reshape(1, 3, 4)), 1)
    assert np.allclose(conv.data, tn.matmul(Tensor(x), Tensor(w)).data, atol=1e-6)


def test_deconv_identity_kernel():
    x = np.arange(6, dtype=np.float32).reshape(3, 2)
    kernel = np.eye(2, dtype=np.float32).reshape(1, 2, 2)
    out = tn.deconv1d_temporal(Tensor(x), Tensor(kernel), 1)
    assert np.array_equal(out.data, x)


def test_deconv_hand_value():
    x = Tensor(np.array([[1.0], [2.0]]))
    kernel = Tensor(np.ones((2, 1, 1), dtype=np.float32))
    out = tn.deconv1d_temporal(x, kernel, 2)
    assert np.array_equal(out.data, [[1.0], [1.0], [2.0], [2.0]])


def test_banded_matmul_equals_dense_product(rng):
    blocks = rng.uniform(-1, 1, (5, 5, 2, 3)).astype(np.float32)  # T=5, band 2
    x = rng.uniform(-1, 1, (15, 4)).astype(np.float32)
    out = tn.banded_matmul(blocks, Tensor(x))
    expected = blocks_to_dense(blocks).astype(np.float64) @ x.astype(np.float64)
    assert out.shape == (10, 4)
    assert np.allclose(out.data, expected, atol=1e-5)


def band_kinds():
    """Block arrays of each kind the model multiplies by, plus a band that is not symmetric."""
    cfg = SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(9, 9), temporal_span=3)
    seq, _ = synth_generate(cfg, 3)
    seq = apply_deformation(seq, sample_drop_schedule(seq, 0.2, np.random.default_rng(0)))
    adj = build_adjacency(Window(seq), 3, cross_cluster_in_temporal=True)
    presence, N = flat_presence(seq), seq.num_tracks
    rng = np.random.default_rng(8)
    return {
        "symmetric": normalize_adjacency(adj.a_t),
        "centering": centering_matrix(presence.reshape(-1, N)),
        "pooling": pooling_matrix(presence.reshape(-1, N)),
        "band-not-symmetric": rng.uniform(-1, 1, (9, 5, 3, N)).astype(np.float32),
    }


@pytest.mark.parametrize("kind", ["symmetric", "centering", "pooling", "band-not-symmetric"])
def test_banded_matmul_matches_the_per_offset_loop(kind):
    blocks = band_kinds()[kind]
    T, _, M, N = blocks.shape
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (T * N, 6)).astype(np.float32)
    gout = rng.uniform(-1, 1, (T * M, 6)).astype(np.float32)
    tape = Tape()
    out = tn.banded_matmul(blocks, tape.watch(x))
    (_, _, grad_fn), = tape._records
    (gx,) = grad_fn(gout)
    b64 = blocks.astype(np.float64)
    for got, want in ((out.data, loop_banded_product(b64, x.astype(np.float64))),
                      (gx, loop_banded_gradient(b64, gout.astype(np.float64)))):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())
    assert np.array_equal(out.data, tn.banded_matmul(blocks, Tensor(x)).data)


def test_banded_matmul_rejects_row_mismatch():
    with pytest.raises(DimensionError):
        tn.banded_matmul(np.zeros((3, 1, 2, 2)), Tensor(np.zeros((5, 1))))


@pytest.mark.parametrize("pad", [0, 1])
def test_conv_over_nodes_matches_per_node(rng, pad):
    T, N, d = 7, 3, 2
    x = rng.uniform(-1, 1, (T * N, d)).astype(np.float32)
    k = rng.uniform(-1, 1, (2, d, 4)).astype(np.float32)
    out = tn.conv1d_temporal(Tensor(x), Tensor(k), 2, nodes=N, pad=pad)
    for n in range(N):
        rows = np.vstack([x[n::N], np.zeros((pad, d), dtype=np.float32)])
        single = tn.conv1d_temporal(Tensor(rows), Tensor(k), 2)
        assert np.array_equal(out.data[n::N], single.data)


@pytest.mark.parametrize("steps", [None, 5])
def test_deconv_over_nodes_matches_per_node(rng, steps):
    T, N, d = 3, 3, 2
    x = rng.uniform(-1, 1, (T * N, d)).astype(np.float32)
    k = rng.uniform(-1, 1, (2, d, 4)).astype(np.float32)
    out = tn.deconv1d_temporal(Tensor(x), Tensor(k), 2, nodes=N, steps=steps)
    for n in range(N):
        single = tn.deconv1d_temporal(Tensor(x[n::N]), Tensor(k), 2).data[:steps]
        assert np.array_equal(out.data[n::N], single)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_deconv_with_transposed_taps_is_the_adjoint_of_conv(rng, k, stride):
    # <conv(x, K), y> == <x, deconv(y, K^T)>, deconv's steps cut or zero-extended to T
    d_in, d_out = 3, 2
    for nodes in (1, 3):
        for pad in (0, 1, 2):
            for T in sorted({max(1, k - pad), 7}):
                x = rng.uniform(-1, 1, (T * nodes, d_in)).astype(np.float32)
                kernel = rng.uniform(-1, 1, (k, d_in, d_out)).astype(np.float32)
                conv = tn.conv1d_temporal(Tensor(x), Tensor(kernel), stride, nodes, pad)
                y = rng.uniform(-1, 1, conv.shape).astype(np.float32)
                t_full = (conv.shape[0] // nodes - 1) * stride + k
                back = tn.deconv1d_temporal(
                    Tensor(y), Tensor(kernel.transpose(0, 2, 1)), stride, nodes, min(T, t_full)
                ).data.astype(np.float64)
                back = np.vstack([back, np.zeros((T * nodes - len(back), d_in))])
                lhs = np.vdot(conv.data.astype(np.float64), y)
                rhs = np.vdot(x.astype(np.float64), back)
                scale = np.abs(conv.data).sum() + np.abs(back).sum()
                assert abs(lhs - rhs) <= 1e-6 * scale, (nodes, pad, T, lhs, rhs)


def head_tap_products(x3, kernel, pairs, out_shape, gout):
    """The tap core as a plain formula: zero buffers, one ``+=`` per tap in order, and
    ``gk[j] = x3[src]ᵀ g[dst]``; returns the output and both vector-Jacobian products."""
    d_in, d_out = kernel.shape[1:]
    out = np.zeros(out_shape, dtype=np.float32)
    for j, (src, dst) in enumerate(pairs):
        out[dst] += (x3[src].reshape(-1, d_in) @ kernel[j]).reshape(-1, *out_shape[1:])
    g3 = gout.reshape(out_shape)
    gx, gk = np.zeros(x3.shape, dtype=np.float32), np.zeros_like(kernel)
    for j, (src, dst) in enumerate(pairs):
        g = g3[dst].reshape(-1, d_out)
        gx[src] += (g @ kernel[j].T).reshape(-1, *x3.shape[1:])
        gk[j] = x3[src].reshape(-1, d_in).T @ g
    return out.reshape(-1, d_out), gx.reshape(-1, d_in), gk


def strided_pairs(k, stride, steps, count):
    """Tap j: steps j, j + stride, ... below ``steps`` (at most ``count``), and steps 0, 1, ..."""
    ns = [max(0, min(count, -(-(steps - j) // stride))) for j in range(k)]
    return [(slice(j, j + n * stride, stride), slice(0, n)) for j, n in enumerate(ns)]


def tap_op_cases(kind, rng):
    """(op, x, kernel, pairs, out_shape) over odd step counts, pads, crops and strides."""
    d_in, d_out = 3, 2
    for k in (1, 2, 3):
        for stride in (1, 2, 3):
            kernel = rng.uniform(-1, 1, (k, d_in, d_out)).astype(np.float32)
            for nodes in (1, 3):
                for T in (3, 7, 9):
                    x = rng.uniform(-1, 1, (T * nodes, d_in)).astype(np.float32)
                    x3 = x.reshape(T, nodes, d_in)
                    if kind == "conv":
                        for pad in (0, 1, 2):
                            if T + pad < k:
                                continue
                            n_out = (T + pad - k) // stride + 1
                            yield (lambda a, b, s=stride, n=nodes, p=pad:
                                   tn.conv1d_temporal(a, b, s, n, p),
                                   x3, kernel, strided_pairs(k, stride, T, n_out),
                                   (n_out, nodes, d_out))
                    elif kind == "deconv":
                        t_full = (T - 1) * stride + k
                        for steps in (t_full, t_full - 1, T):
                            pairs = [(src, dst) for dst, src in strided_pairs(k, stride, steps, T)]
                            yield (lambda a, b, s=stride, n=nodes, t=steps:
                                   tn.deconv1d_temporal(a, b, s, n, t),
                                   x3, kernel, pairs, (steps, nodes, d_out))
                    elif nodes == 1:
                        taps = rng.integers(0, k, T)
                        taps[taps == k - 1] = 0  # the last tap unused (when k > 1)
                        pairs = [(r, r) for r in (np.flatnonzero(taps == j) for j in range(k))]
                        yield (lambda a, b, t=taps: tn.tap_matmul(a, b, t),
                               x3, kernel, pairs, (T, 1, d_out))


@pytest.mark.parametrize("kind", ["conv", "deconv", "tap_matmul"])
def test_tap_ops_equal_the_zero_and_add_formula_bit_for_bit(kind):
    # the first taps write their products in place; every sum keeps its bits, signed zeros too
    rng = np.random.default_rng(29)
    cases = 0
    for op, x3, kernel, pairs, out_shape in tap_op_cases(kind, rng):
        gout = rng.uniform(-1, 1, (out_shape[0] * out_shape[1], out_shape[2])).astype(np.float32)
        tape = Tape()
        x, k = tape.watch(x3.reshape(-1, x3.shape[2])), tape.watch(kernel)
        out = op(x, k)
        grads = backward(tape, tn.sum_all(tn.mul(out, Tensor(gout))))  # upstream exactly gout
        want = head_tap_products(x3, kernel, pairs, out_shape, gout)
        for got, ref in zip((out.data, grads[x.tid], grads[k.tid]), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (kind, out_shape)
        cases += 1
    assert cases >= 27


def test_deconv_crop_beyond_output_rejected():
    with pytest.raises(DimensionError):
        tn.deconv1d_temporal(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 1, 1))), 2, steps=5)


def test_tap_matmul_matches_a_per_row_loop(rng):
    x = rng.uniform(-1, 1, (7, 3)).astype(np.float32)
    k = rng.uniform(-1, 1, (3, 3, 4)).astype(np.float32)
    taps = np.array([2, 0, 0, 1, 2, 2, 0])
    out = tn.tap_matmul(Tensor(x), Tensor(k), taps)
    expected = np.stack([x[r].astype(np.float64) @ k[taps[r]] for r in range(7)])
    assert out.shape == (7, 4)
    assert np.abs(out.data - expected).max() <= 1e-6


def test_tap_matmul_gives_an_unused_tap_a_zero_gradient(rng):
    tape = Tape()
    x = tape.watch(rng.uniform(-1, 1, (4, 2)).astype(np.float32))
    k = tape.watch(rng.uniform(-1, 1, (3, 2, 2)).astype(np.float32))
    grads = backward(tape, tn.sum_all(tn.tap_matmul(x, k, [0, 2, 0, 2])))
    assert not grads[k.tid][1].any()
    assert grads[k.tid][0].any() and grads[k.tid][2].any()


@pytest.mark.parametrize("taps", [[0, 1, 2], [0, -1, 1], [0, 1]], ids=["past-k", "negative", "short"])
def test_tap_matmul_rejects_bad_taps(taps):
    with pytest.raises(DimensionError):
        tn.tap_matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2, 2))), taps)


# -- tape contracts ----------------------------------------------------------


def test_matmul_skips_gradient_of_untaped_input(rng):
    a = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, (3, 2)).astype(np.float32)
    gout = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
    tape = Tape()
    tn.matmul(Tensor(a), tape.watch(b))
    (_, input_ids, grad_fn), = tape._records
    ga, gb = grad_fn(gout)
    assert input_ids[0] is None and ga is None
    assert np.array_equal(gb, a.T @ gout)


def test_backward_outer_structure(rng):
    x = rng.uniform(-1, 1, (3, 1)).astype(np.float32)
    tape = Tape()
    w = tape.watch(rng.uniform(-1, 1, (4, 3)).astype(np.float32))
    loss = tn.sum_all(tn.matmul(w, Tensor(x)))
    g = backward(tape, loss)[w.tid]
    # d/dW sum(W x) = 1 x^T replicated down the rows
    assert np.allclose(g, np.ones((4, 1)) @ x.T, atol=1e-6)


def test_unused_parameter_gets_zero_gradient(rng):
    tape = Tape()
    used = tape.watch(rng.uniform(-1, 1, (2, 2)).astype(np.float32))
    unused = tape.watch(rng.uniform(-1, 1, (3, 3)).astype(np.float32))
    loss = tn.sum_all(used)
    grads = backward(tape, loss)
    assert np.array_equal(grads[unused.tid], np.zeros((3, 3)))


def test_double_backward_without_reset():
    tape = Tape()
    x = tape.watch(np.ones((2, 2), dtype=np.float32))
    loss = tn.sum_all(x)
    backward(tape, loss)
    with pytest.raises(ContractError):
        backward(tape, loss)
    tape.reset()
    x = tape.watch(np.ones((2, 2), dtype=np.float32))
    backward(tape, tn.sum_all(x))  # works again after reset


def test_non_scalar_loss_rejected():
    tape = Tape()
    x = tape.watch(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ContractError):
        backward(tape, tn.relu(x))


def test_non_finite_rejected():
    with pytest.raises(NumericalError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NumericalError):
        Tensor(np.array([np.nan]))


def test_rank_limit():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_tensor_immutable():
    t = Tensor(np.zeros(3))
    with pytest.raises(AttributeError):
        t.data = np.ones(3)
    with pytest.raises(ValueError):
        t.data[0] = 1.0


def test_tensor_does_not_freeze_caller_buffer():
    buf = np.zeros(3, dtype=np.float32)
    Tensor(buf)
    buf[0] = 1.0  # caller's array stays writable


# -- finite-difference suite over every differentiable op --------------------


@pytest.mark.parametrize("name,op,arrays", CASES, ids=[c[0] for c in CASES])
def test_op_gradients(name, op, arrays):
    check_op_gradients(name, op, arrays, np.random.default_rng(1))


def test_deconv_gradient_relative_tolerance(rng):
    # dedicated check at 1e-3 relative on well-scaled inputs
    x = rng.uniform(0.5, 1.0, (4, 2)).astype(np.float32)
    k = rng.uniform(0.5, 1.0, (2, 2, 3)).astype(np.float32)

    def scalar(xa, ka):
        return float(tn.deconv1d_temporal(Tensor(xa), Tensor(ka), 2).data.sum(dtype=np.float64))

    tape = Tape()
    xt, kt = tape.watch(x), tape.watch(k)
    grads = backward(tape, tn.sum_all(tn.deconv1d_temporal(xt, kt, 2)))
    for i, t in enumerate((xt, kt)):
        numeric = finite_diff(scalar, [x, k], i)
        assert np.allclose(grads[t.tid], numeric, rtol=1e-3, atol=1e-4)


# -- precision policy: float32 products, float64 in the loss -----------------


def _conv64(x, k, stride, nodes, pad):
    steps = x.reshape(-1, nodes, x.shape[1])
    steps = np.concatenate([steps, np.zeros((pad,) + steps.shape[1:])])
    n_out = (len(steps) - len(k)) // stride + 1
    return np.concatenate(
        [sum(steps[t * stride + j] @ k[j] for j in range(len(k))) for t in range(n_out)]
    )


def _deconv64(x, k, stride, nodes, steps):
    xs = x.reshape(-1, nodes, x.shape[1])
    out = np.zeros(((len(xs) - 1) * stride + len(k), nodes, k.shape[2]))
    for t in range(len(xs)):
        for j in range(len(k)):
            out[t * stride + j] += xs[t] @ k[j]
    return out[:steps].reshape(-1, k.shape[2])


def _vjp64(f, arrays, i, gout):
    """gout . J_i for ``f`` linear in ``arrays[i]``, from float64 values of ``f`` on unit inputs."""
    args = [a.astype(np.float64) for a in arrays]
    grad = np.zeros(arrays[i].size)
    for e in range(grad.size):
        unit = np.zeros(grad.size)
        unit[e] = 1.0
        grad[e] = np.sum(f(*args[:i], unit.reshape(arrays[i].shape), *args[i + 1 :]) * gout)
    return grad.reshape(arrays[i].shape)


def _precision_cases(rng):
    def u(*shape):
        return rng.uniform(-1, 1, shape).astype(np.float32)

    blocks = u(4, 3, 2, 3)
    return {
        "matmul": (tn.matmul, lambda a, b: a @ b, [u(5, 4), u(4, 3)], (0, 1)),
        "banded_matmul": (
            lambda x: tn.banded_matmul(blocks, x),
            lambda x: blocks_to_dense(blocks).astype(np.float64) @ x,
            [u(12, 3)],
            (0,),
        ),
        "conv1d_temporal": (
            lambda x, k: tn.conv1d_temporal(x, k, 2, nodes=3, pad=1),
            lambda x, k: _conv64(x, k, 2, 3, 1),
            [u(18, 2), u(3, 2, 4)],
            (0, 1),
        ),
        "deconv1d_temporal": (
            lambda x, k: tn.deconv1d_temporal(x, k, 2, nodes=3, steps=6),
            lambda x, k: _deconv64(x, k, 2, 3, 6),
            [u(9, 2), u(3, 2, 4)],
            (0, 1),
        ),
    }


@pytest.mark.parametrize(
    "name", ["matmul", "banded_matmul", "conv1d_temporal", "deconv1d_temporal"]
)
def test_products_run_in_float32_within_1e5_of_float64(name):
    op, ref64, arrays, wrt = _precision_cases(np.random.default_rng(6))[name]
    tape = Tape()
    out = op(*[tape.watch(a) for a in arrays])
    expected = ref64(*[a.astype(np.float64) for a in arrays])
    assert out.data.dtype == np.float32, name
    assert np.abs(out.data - expected).max() <= 1e-5 * np.abs(expected).max(), name
    gout = np.random.default_rng(7).uniform(-1, 1, out.shape).astype(np.float32)
    (_, _, grad_fn), = tape._records
    grads = grad_fn(gout)
    for i in wrt:
        expected = _vjp64(ref64, arrays, i, gout.astype(np.float64))
        assert grads[i].dtype == np.float32, (name, i)
        assert np.abs(grads[i] - expected).max() <= 1e-5 * np.abs(expected).max(), (name, i)


def test_masked_ce_loss_keeps_float64_log_sum_exp():
    # one row repeated at a large offset: a float32 log-sum-exp rounds every
    # timestep the same way and misses this loss by ~1e-5 relative
    rng = np.random.default_rng(0)
    scores = np.tile(1000.0 + rng.uniform(-2, 2, 5), (20, 1)).astype(np.float32)
    labels = rng.integers(0, 5, 20)
    mask = np.arange(20) % 3 != 0
    s = scores.astype(np.float64)
    logz = s.max(axis=1) + np.log(np.exp(s - s.max(axis=1, keepdims=True)).sum(axis=1))
    expected = (logz - s[np.arange(20), labels])[mask].mean()
    loss = masked_ce_loss(Tensor(scores), labels, mask).data
    assert loss.dtype == np.float32
    assert abs(float(loss) - expected) <= 1e-6 * abs(expected)


# -- serialization -----------------------------------------------------------


def test_tensor_header_layout():
    buf = io.BytesIO()
    dump_tensor(buf, np.array([[1.0, 2.0]], dtype=np.float32))
    raw = buf.getvalue()
    # rank 2, extents 1 and 2, little-endian uint32
    assert raw[:12] == (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert len(raw) == 12 + 2 * 4


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=0, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_tensor_roundtrip_property(shape, seed):
    arr = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    buf = io.BytesIO()
    dump_tensor(buf, arr)
    buf.seek(0)
    back = load_tensor(buf)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_load_truncated_header():
    with pytest.raises(ValueError):
        load_tensor(io.BytesIO(b"\x01"))


def test_load_rejects_extents_beyond_the_file():
    buf = io.BytesIO()
    dump_tensor(buf, np.zeros((2, 3), dtype=np.float32))
    raw = bytearray(buf.getvalue())
    raw[4:8] = (0xFFFFFFFF).to_bytes(4, "little")  # 4 * 0xffffffff * 3 bytes of data
    with pytest.raises(ValueError, match="need 51539607540 bytes, 24 left"):
        load_tensor(io.BytesIO(bytes(raw)))


def test_dump_writes_strided_and_float64_arrays_as_float32():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3).T  # not C-contiguous, not float32
    buf = io.BytesIO()
    dump_tensor(buf, arr)
    assert buf.getvalue()[12:] == arr.astype("<f4").tobytes(order="C")
    buf.seek(0)
    assert np.array_equal(load_tensor(buf), arr)


# -- the gradient stream -----------------------------------------------------


def small_model_tape(seed=0):
    """Tape, taped parameters, loss and model of a forward of a small two-cluster model."""
    cfg = ModelConfig(cluster_feature_lens=(3, 4), num_classes=3, d_model=4, levels=1, span=2)
    seq, _ = synth_generate(
        SynthConfig(num_classes=3, cluster_feature_lens=(3, 4), t_range=(10, 10),
                    temporal_span=2), 7)
    model = StgcnModel(cfg, seed=seed)
    window = Window(seq)
    tape, taped, scores = model.forward_taped(window)
    return tape, taped, masked_ce_loss(scores, window.labels, window.label_mask), model


def test_the_stream_yields_every_watched_parameter_exactly_once():
    tape, taped, loss, _ = small_model_tape()
    yielded = [pid for pid, _ in tn.gradients(tape, loss)]
    assert sorted(yielded) == sorted(t.tid for t in taped.values())
    assert not tape._records


def test_a_shared_parameter_is_yielded_after_every_record_that_reads_it(rng):
    tape = Tape()
    x = Tensor(rng.uniform(-1, 1, (5, 3)).astype(np.float32))
    w = tape.watch(rng.uniform(-1, 1, (3, 3)).astype(np.float32))
    b = tape.watch(rng.uniform(-1, 1, (3,)).astype(np.float32))
    h = tn.relu(tn.matmul(x, w))  # the oldest record reads w
    loss = tn.sum_all(tn.add(tn.matmul(h, w), b))  # and so does a newer one
    left, grads = {}, {}
    for pid, g in tn.gradients(tape, loss):
        left[pid], grads[pid] = len(tape._records), g
        assert not any(pid in ids for _, ids, _ in tape._records)
    assert left == {b.tid: 3, w.tid: 0}  # b after the two newest records, w after the oldest
    # both reads add up: d/dw sum(relu(x w) w + b) = h^T 1 + x^T ((1 w^T) * [x w > 0])
    ones = np.ones((5, 3), dtype=np.float32)
    want = h.data.T @ ones + x.data.T @ ((ones @ w.data.T) * (h.data > 0))
    np.testing.assert_allclose(grads[w.tid], want, rtol=1e-5, atol=1e-6)


def test_parameters_no_record_reads_come_last_as_exact_zeros(rng):
    tape = Tape()
    unused_a = tape.watch(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
    used = tape.watch(rng.uniform(-1, 1, (4,)).astype(np.float32))
    unused_b = tape.watch(rng.uniform(-1, 1, (5,)).astype(np.float32))
    stream = list(tn.gradients(tape, tn.sum_all(tn.scale(used, 2.0))))
    assert [pid for pid, _ in stream] == [used.tid, unused_a.tid, unused_b.tid]
    for pid, g in stream[1:]:
        assert g.dtype == np.float32 and not g.any()
    assert stream[1][1].shape == (2, 3) and stream[2][1].shape == (5,)


def test_collected_stream_equals_backward_bit_for_bit():
    tape, taped, loss, _ = small_model_tape(seed=3)
    streamed = dict(tn.gradients(tape, loss))
    tape, taped_again, loss, _ = small_model_tape(seed=3)
    collected = backward(tape, loss)
    assert [t.tid for t in taped.values()] == [t.tid for t in taped_again.values()]
    assert streamed.keys() == collected.keys()
    for pid, g in streamed.items():
        assert g.dtype == collected[pid].dtype and g.tobytes() == collected[pid].tobytes()


def test_a_yielded_parameter_is_no_longer_read_by_the_sweep():
    # spoil each parameter as soon as it is yielded: no later gradient changes
    _, _, loss, _ = small_model_tape(seed=5)
    want = backward(loss.tape, loss)
    tape, taped, loss, model = small_model_tape(seed=5)
    paths = {t.tid: path for path, t in taped.items()}
    for pid, g in tn.gradients(tape, loss):
        assert g.tobytes() == want[pid].tobytes(), paths[pid]
        model.params[paths[pid]].fill(np.nan)  # the array the taped tensor views


def test_the_stream_checks_its_arguments_before_it_is_read():
    tape = Tape()
    x = tape.watch(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ContractError, match="scalar"):
        tn.gradients(tape, tn.relu(x))
    with pytest.raises(ContractError, match="this tape"):
        tn.gradients(Tape(), tn.sum_all(x))
