"""Shared test helpers: a finite-difference oracle independent of the tape.

The numeric gradients here are computed by central differences on scalar
functions of plain arrays, so they share no code with the reverse-mode tape
they are used to verify.
"""

import numpy as np
import pytest

from stacked_stgcn import tensor as tn
from stacked_stgcn.tensor import Tape, Tensor, backward


def finite_diff(scalar, arrays, wrt, step=1e-3):
    """Central finite differences of scalar(*arrays) w.r.t. arrays[wrt]."""
    arrs = [np.array(a, dtype=np.float32) for a in arrays]
    x = arrs[wrt]
    grad = np.zeros(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + np.float32(step)
        up = scalar(*arrs)
        flat[i] = orig - np.float32(step)
        down = scalar(*arrs)
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(x.shape)


def assert_grad_close(analytic, numeric, rel=1e-2, abs_tol=1e-3, context=""):
    """At least 95% of coordinates within relative tolerance, rest within absolute."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    assert a.shape == n.shape, f"{context}: gradient shapes differ"
    err = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    rel_ok = err <= rel * np.maximum(scale, 1e-30)
    frac = rel_ok.mean() if rel_ok.size else 1.0
    assert frac >= 0.95, (
        f"{context}: only {frac:.2%} of coordinates within relative tolerance "
        f"(max err {err.max():.3e})"
    )
    rest = err[~rel_ok]
    assert rest.size == 0 or rest.max() <= abs_tol, (
        f"{context}: residual coordinates exceed absolute tolerance "
        f"(max err {rest.max():.3e})"
    )


def op_gradient_cases(rng):
    """One case per differentiable primitive: (name, op, input arrays)."""

    def u(*shape, gen=rng):
        return gen.uniform(-1.0, 1.0, size=shape).astype(np.float32)

    def away(*shape):
        # keep values away from the ReLU kink so finite differences are valid
        x = u(*shape)
        return np.where(np.abs(x) < 0.1, np.float32(0.3), x).astype(np.float32)

    cases = [
        ("matmul", lambda a, b: tn.matmul(a, b), [u(4, 3), u(3, 5)]),
        ("add", lambda a, b: tn.add(a, b), [u(4, 3), u(4, 3)]),
        ("add-bias", lambda a, b: tn.add(a, b), [u(4, 3), u(3)]),
        ("scale", lambda a: tn.scale(a, -1.7), [u(4, 3)]),
        ("mul", lambda a, b: tn.mul(a, b), [u(4, 3), u(4, 3)]),
        ("relu", lambda a: tn.relu(a), [away(4, 3)]),
        ("sigmoid", lambda a: tn.sigmoid(a), [u(4, 3)]),
        ("sum_all", lambda a: tn.sum_all(a), [u(4, 3)]),
        ("mean-axis0", lambda a: tn.mean_axis(a, 0), [u(4, 3)]),
        ("mean-axis1", lambda a: tn.mean_axis(a, 1), [u(4, 3)]),
        ("concat", lambda a, b: tn.concat([a, b], axis=0), [u(2, 3), u(4, 3)]),
        ("slice", lambda a: tn.slice_axis(a, 0, 1, 3), [u(5, 3)]),
        ("gather-rows", lambda a: tn.gather_rows(a, [0, 2, 2, 4]), [u(5, 3)]),
        ("conv-k2s1", lambda x, k: tn.conv1d_temporal(x, k, 1), [u(6, 2), u(2, 2, 3)]),
        ("conv-k2s2", lambda x, k: tn.conv1d_temporal(x, k, 2), [u(7, 2), u(2, 2, 3)]),
        ("conv-k3s2", lambda x, k: tn.conv1d_temporal(x, k, 2), [u(8, 2), u(3, 2, 3)]),
        ("deconv-k2s2", lambda x, k: tn.deconv1d_temporal(x, k, 2), [u(4, 2), u(2, 2, 3)]),
        ("deconv-k3s1", lambda x, k: tn.deconv1d_temporal(x, k, 1), [u(5, 2), u(3, 2, 3)]),
    ]
    # later cases draw from a child stream, so the cases above keep their data
    # and a caller's later draws from ``rng`` are unaffected
    (child,) = rng.spawn(1)
    banded = u(4, 3, 2, 3, gen=child)
    return cases + [
        # T=4 timesteps of 3 nodes, band 1 (mapped onto 2 rows each), then the dense case
        ("banded", lambda x: tn.banded_matmul(banded, x), [u(12, 2, gen=child)]),
        ("banded-dense", lambda x: tn.banded_matmul(banded[0, 1], x), [u(3, 2, gen=child)]),
        # 3 nodes per timestep, convolved per node; T=5 padded to 6, deconv cropped to 5
        ("conv-nodes-pad", lambda x, k: tn.conv1d_temporal(x, k, 2, nodes=3, pad=1),
         [u(15, 2, gen=child), u(2, 2, 3, gen=child)]),
        ("deconv-nodes-crop", lambda x, k: tn.deconv1d_temporal(x, k, 2, nodes=3, steps=5),
         [u(9, 2, gen=child), u(2, 2, 3, gen=child)]),
        # 5 rows on taps 0 and 2 of a 3-tap kernel: tap 1 has no rows
        ("tap-matmul", lambda x, k: tn.tap_matmul(x, k, [0, 2, 2, 0, 2]),
         [u(5, 2, gen=child), u(3, 2, 3, gen=child)]),
    ]


def check_op_gradients(name, op, arrays, rng, step=1e-3, rel=1e-2, abs_tol=1e-3):
    """Tape gradients of a weighted scalar of the op output vs finite differences."""
    probe = op(*[Tensor(a) for a in arrays])
    w = rng.uniform(-1.0, 1.0, size=probe.data.shape).astype(np.float32)

    def scalar(*arrs):
        out = op(*[Tensor(a) for a in arrs])
        return float((out.data.astype(np.float64) * w).sum())

    tape = Tape()
    taped = [tape.watch(a) for a in arrays]
    loss = tn.sum_all(tn.mul(op(*taped), Tensor(w)))
    grads = backward(tape, loss)
    for i in range(len(arrays)):
        numeric = finite_diff(scalar, arrays, i, step=step)
        assert_grad_close(
            grads[taped[i].tid], numeric, rel=rel, abs_tol=abs_tol,
            context=f"{name} input {i}",
        )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
