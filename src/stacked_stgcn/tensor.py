"""Dense tensors (rank <= 3, float32) and a reverse-mode differentiation tape.

Tensors are immutable value objects. The public constructor checks for
finite values; op outputs are checked only where a non-finite value could
vanish (see :func:`record`).
Every arithmetic helper in this module works on plain values; when any input
lives on a :class:`Tape`, the output is recorded there together with a
backward rule, and :func:`gradients` replays the rules in reverse, yielding
each parameter's gradient as soon as the last record that reads the
parameter has replayed (:func:`backward` collects them into a dict). With no
taped input an op records nothing and keeps no closure, which is how
inference runs: the same ops on untaped tensors.

The temporal conv, its transpose and ``tap_matmul`` are one linear map,
a sum over kernel taps of row products, and share one recorded core: each
op only names, per tap, which input steps feed which output steps.

Products (``matmul``, ``banded_matmul``, the temporal conv/deconv and
``tap_matmul``) run in float32, the storage precision, forward and
backward. Float64 is kept only where it bounds drift: the whole-tensor
reductions (``sum_all``, ``mean_axis`` and ``add``'s bias gradient) and,
in :mod:`stacked_stgcn.training`, the losses.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .blocks import as_blocks, band_slices
from .errors import ContractError, DimensionError, NumericalError

DTYPE = np.float32

__all__ = [
    "Tensor",
    "Tape",
    "gradients",
    "backward",
    "matmul",
    "add",
    "scale",
    "mul",
    "relu",
    "sigmoid",
    "sum_all",
    "mean_axis",
    "concat",
    "slice_axis",
    "gather_rows",
    "banded_matmul",
    "conv1d_temporal",
    "deconv1d_temporal",
    "tap_matmul",
    "record",
    "check_finite",
    "dump_tensor",
    "load_tensor",
]


class Tensor:
    """An immutable dense array of 32-bit reals, rank 0 through 3."""

    __slots__ = ("data", "tape", "tid")

    def __init__(self, data, tape: Optional["Tape"] = None, tid: Optional[int] = None):
        _fill(self, data, tape, tid)
        check_finite(self.data, "tensor")

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def _fill(t: Tensor, data, tape: Optional["Tape"], tid: Optional[int]) -> Tensor:
    arr = np.asarray(data, dtype=DTYPE)
    if arr.ndim > 3:
        raise DimensionError(f"rank {arr.ndim} exceeds the supported maximum of 3")
    if arr is data:
        arr = arr.view()  # freeze a view, not the caller's buffer
    arr.setflags(write=False)
    object.__setattr__(t, "data", arr)
    object.__setattr__(t, "tape", tape)
    object.__setattr__(t, "tid", tid)
    return t


def _unchecked(data, tape: Optional["Tape"] = None, tid: Optional[int] = None) -> Tensor:
    """A tensor built without the finiteness scan: op outputs and watched parameters."""
    return _fill(object.__new__(Tensor), data, tape, tid)


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise :class:`NumericalError` naming ``what`` if ``arr`` holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite value in {what}")


class Tape:
    """Records operations so that :func:`gradients` can replay them in reverse.

    A tape is single-use: after one backward pass it must be reset (or
    discarded) before recording again.
    """

    def __init__(self):
        self._records: list = []  # (out_id, [input ids or None], grad_fn)
        self._param_ids: dict = {}  # tid -> shape
        self._uses: dict = {}  # parameter tid -> reads by records not yet replayed
        self._next_id = 0
        self._consumed = False

    def _fresh_id(self) -> int:
        tid = self._next_id
        self._next_id += 1
        return tid

    def watch(self, data) -> Tensor:
        """Register ``data`` as a trainable parameter and return its tensor.

        A float32 ``data`` is not copied: the tensor is a read-only view of it,
        so an in-place update of ``data`` (``sgd_step``) shows through.
        Parameters are checked for finiteness where they change, not here.
        """
        t = _unchecked(data, tape=self, tid=self._fresh_id())
        self._param_ids[t.tid] = t.data.shape
        self._uses[t.tid] = 0
        return t

    def relu_masks(self) -> list:
        """The masks (input > 0) of the ReLUs recorded and not yet replayed, oldest first."""
        return [fn.relu_mask for _, _, fn in self._records if hasattr(fn, "relu_mask")]

    def reset(self) -> None:
        """Clear all records, parameters and the consumed flag."""
        self._records.clear()
        self._param_ids.clear()
        self._uses.clear()
        self._next_id = 0
        self._consumed = False


def record(
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    grad_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
) -> Tensor:
    """Wrap ``out_data`` in a Tensor, recording ``grad_fn`` if any input is taped.

    The output is not scanned for non-finite values: a NaN or infinity
    carries through every later op, and the ops where one could vanish
    (:func:`relu`, the row-dropping :func:`slice_axis` and
    :func:`gather_rows`, :func:`sigmoid`) check their inputs, as the model
    checks its scores.

    ``grad_fn`` receives the upstream gradient and returns one gradient array
    per input (``None`` for inputs that need none).
    """
    tapes = {x.tape for x in inputs if x.tape is not None}
    if len(tapes) > 1:
        raise ContractError("inputs belong to different tapes")
    if not tapes:
        return _unchecked(out_data)
    tape = tapes.pop()
    out = _unchecked(out_data, tape=tape, tid=tape._fresh_id())
    input_ids = [x.tid if x.tape is tape else None for x in inputs]
    uses = tape._uses
    for tid in input_ids:
        if tid in uses:
            uses[tid] += 1
    tape._records.append((out.tid, input_ids, grad_fn))
    return out


def gradients(tape: Tape, loss: Tensor) -> Iterator[Tuple[int, np.ndarray]]:
    """Gradient of a scalar ``loss`` with respect to each watched parameter, streamed.

    Yields ``(parameter id, gradient)`` once per watched parameter, as soon
    as the last record that reads the parameter has replayed: from then on
    no backward rule reads the parameter's array, so the consumer may update
    it in place (:func:`~stacked_stgcn.training.sgd_step`) and drop the
    gradient before the sweep makes the next one. Parameters no record
    reads come last, in watch order, as exact zeros.

    A tape supports one backward pass until reset: the sweep pops each
    record, and drops each intermediate adjoint once its producer has
    consumed it, so memory falls as it runs. The checks run at the call;
    the sweep runs as the stream is read.
    """
    if loss.tape is not tape:
        raise ContractError("loss was not produced on this tape")
    if loss.data.ndim != 0:
        raise ContractError("loss must be a scalar")
    if tape._consumed:
        raise ContractError("backward already called on this tape; reset first")
    tape._consumed = True
    return _sweep(tape, loss.tid)


def _sweep(tape: Tape, loss_id: int) -> Iterator[Tuple[int, np.ndarray]]:
    grads: dict = {loss_id: np.ones((), dtype=DTYPE)}
    records, uses = tape._records, tape._uses

    def take(pid):
        g = grads.pop(pid, None)
        return pid, np.zeros(tape._param_ids[pid], dtype=DTYPE) if g is None else g

    while records:
        # newest first: every consumer of ``out_id`` has already added to its
        # adjoint, and no later record reads it (outputs are never parameters)
        out_id, input_ids, grad_fn = records.pop()
        gout = grads.pop(out_id, None)
        if gout is not None:
            for tid, g in zip(input_ids, grad_fn(gout)):
                if tid is None or g is None:
                    continue
                g = np.asarray(g, dtype=DTYPE)
                grads[tid] = grads[tid] + g if tid in grads else g
        for tid in input_ids:
            if tid in uses:
                uses[tid] -= 1
                if not uses[tid]:  # its last reader has replayed
                    del uses[tid]
                    yield take(tid)
    for pid in list(uses):  # read by no record
        del uses[pid]
        yield take(pid)


def backward(tape: Tape, loss: Tensor) -> dict:
    """Gradient of a scalar ``loss`` with respect to every watched parameter.

    Returns a map from parameter id to gradient array, collected from
    :func:`gradients` (in its order); parameters the loss does not depend
    on get exact zeros.
    """
    return dict(gradients(tape, loss))


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects rank-2 tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner extents differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    a_taped, b_taped = a.tape is not None, b.tape is not None

    def grad_fn(gout):
        return [gout @ bd.T if a_taped else None, ad.T @ gout if b_taped else None]

    return record(ad @ bd, [a, b], grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be rank-1 and broadcast over the last axis."""
    if a.shape == b.shape:
        def grad_fn(gout):
            return [gout, gout]
    elif b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        lead = tuple(range(a.data.ndim - 1))

        def grad_fn(gout):
            return [gout, gout.sum(axis=lead, dtype=np.float64).astype(DTYPE)]
    else:
        raise DimensionError(f"incompatible shapes for add: {a.shape} + {b.shape}")
    return record(a.data + b.data, [a, b], grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(gout):
        return [gout * DTYPE(c)]

    return record(x.data * DTYPE(c), [x], grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"elementwise mul needs equal shapes: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(gout):
        return [gout * bd, gout * ad]

    return record(ad * bd, [a, b], grad_fn)


def relu(x: Tensor) -> Tensor:
    check_finite(x.data, "relu input")  # ReLU maps -inf to 0
    mask = x.data > 0  # ReLU'(0) = 0

    def grad_fn(gout):
        return [gout * mask]

    grad_fn.relu_mask = mask  # read by Tape.relu_masks
    return record(np.maximum(x.data, 0), [x], grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    check_finite(x.data, "sigmoid input")  # maps -inf to 0 and +inf to 1
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad_fn(gout):
        return [(gout * out * (1.0 - out)).astype(DTYPE)]

    return record(out, [x], grad_fn)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def grad_fn(gout):
        return [np.full(shape, gout, dtype=DTYPE)]

    return record(np.asarray(x.data.sum(dtype=np.float64), dtype=DTYPE), [x], grad_fn)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    axis = axis % x.data.ndim
    n = x.shape[axis]

    def grad_fn(gout):
        return [np.repeat(np.expand_dims(gout / n, axis), n, axis=axis).astype(DTYPE)]

    return record(x.data.mean(axis=axis, dtype=np.float64).astype(DTYPE), [x], grad_fn)


def concat(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not xs:
        raise DimensionError("concat needs at least one input")
    sizes = [x.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(gout):
        sl = [slice(None)] * gout.ndim
        pieces = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(gout[tuple(sl)])
        return pieces

    return record(np.concatenate([x.data for x in xs], axis=axis), list(xs), grad_fn)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    check_finite(x.data, "slice_axis input")  # the rows it drops
    shape = x.shape
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def grad_fn(gout):
        gx = np.zeros(shape, dtype=DTYPE)
        gx[sl] = gout
        return [gx]

    return record(x.data[sl], [x], grad_fn)


def gather_rows(x: Tensor, indices: Iterable[int]) -> Tensor:
    """Select rows of a rank-2 tensor by index; duplicates allowed.

    The gradient scatters rows back by assignment when no index repeats (a
    permutation, say), and accumulates with ``np.add.at`` otherwise; both
    give the same sums, since without repeats no row is added twice.
    """
    if x.data.ndim != 2:
        raise DimensionError("gather_rows expects a rank-2 tensor")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError("row index out of range")
    check_finite(x.data, "gather_rows input")  # the rows it drops
    shape = x.shape
    repeats = idx.size > 0 and np.bincount(idx, minlength=shape[0]).max() > 1

    def grad_fn(gout):
        gx = np.zeros(shape, dtype=DTYPE)
        if repeats:
            np.add.at(gx, idx, gout)
        else:
            gx[idx] = gout
        return [gx]

    return record(x.data[idx], [x], grad_fn)


def _band_product(rows: np.ndarray, x: np.ndarray, b: int) -> np.ndarray:
    """(T, M, d) product of a band's block rows with (T, N, d) input rows: one GEMM per timestep.

    ``rows[t]`` is block row t, its 2b+1 blocks of (M, N) side by side, and
    timestep t multiplies it with the (2b+1)N x d slab of input steps
    t-b..t+b. Inside the sequence the slabs overlap, so they are one strided
    view of the input, not copies. The 2b timesteps nearest its ends
    multiply only the part of their slab that lies inside it, so blocks
    that reach outside 0..T-1 are never read.
    """
    T, M, wn = rows.shape
    N, d = x.shape[1], x.shape[2]
    x = np.ascontiguousarray(x)
    out = np.empty((T, M, d), dtype=DTYPE)
    if T > 2 * b:
        slabs = np.lib.stride_tricks.as_strided(
            x, shape=(T - 2 * b, wn, d), strides=x.strides, writeable=False
        )
        np.matmul(rows[b : T - b], slabs, out=out[b : T - b], dtype=DTYPE)
    for t in [*range(min(b, T)), *range(max(b, T - b), T)]:
        lo, hi = max(0, t - b), min(T, t + b + 1)
        cols = slice((lo - t + b) * N, (hi - t + b) * N)
        np.matmul(rows[t, :, cols], x[lo:hi].reshape(-1, d), out=out[t], dtype=DTYPE)
    return out


def _transposed_rows(a: np.ndarray) -> np.ndarray:
    """Block rows, as :func:`_band_product` takes them, of the transpose of blocks ``a``.

    Block ``[u, b + delta]`` of the transpose is ``a[u + delta, b - delta].T``.
    """
    T, width, M, N = a.shape
    out = np.zeros((T, N, width, M), dtype=a.dtype)
    for k, delta, lo, hi in band_slices(T, width):
        out[lo:hi, :, k] = a[lo + delta : hi + delta, width - 1 - k].transpose(0, 2, 1)
    return out.reshape(T, N, width * M)


def banded_matmul(blocks: np.ndarray, x: Tensor) -> Tensor:
    """Product of a constant block-banded matrix with a rank-2 tensor.

    ``blocks`` is a (T, 2b+1, M, N) block array (see :mod:`stacked_stgcn.blocks`)
    or a plain 2-D matrix; ``x`` has T*N timestep-major rows and the output
    T*M. Only ``x`` receives a gradient: the product with the transposed
    band, which for symmetric adjacency is the band itself.
    """
    a = as_blocks(blocks)
    if x.data.ndim != 2:
        raise DimensionError("banded_matmul expects a rank-2 tensor")
    T, width, M, N = a.shape
    if x.shape[0] != T * N:
        raise DimensionError(f"row count {x.shape[0]} does not match adjacency {T * N}")
    d = x.shape[1]
    rows = a.transpose(0, 2, 1, 3).reshape(T, M, width * N)
    out = _band_product(rows, x.data.reshape(T, N, d), width // 2)

    def grad_fn(gout):
        g = _band_product(_transposed_rows(a), gout.reshape(T, M, d), width // 2)
        return [g.reshape(T * N, d)]

    return record(out.reshape(T * M, d), [x], grad_fn)


def _temporal_rows(name: str, x: Tensor, kernel: Tensor, stride: int, nodes: int):
    """``x``'s data as (T, nodes, d_in) rows, the kernel's taps and its output width."""
    if stride < 1:
        raise DimensionError("stride must be positive")
    if nodes < 1:
        raise DimensionError("nodes must be positive")
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise DimensionError(f"{name} expects x rank 2 and kernel rank 3")
    rows, d_in = x.shape
    k, kd_in, d_out = kernel.shape
    if kd_in != d_in:
        raise DimensionError(f"kernel input width {kd_in} != feature width {d_in}")
    if rows % nodes:
        raise DimensionError(f"{rows} rows do not split into {nodes} nodes")
    return x.data.reshape(rows // nodes, nodes, d_in), k, d_out


def _steps(index, steps: int):
    """The steps that a slice or an index array picks out of ``steps``, as a range or the array."""
    return range(steps)[index] if isinstance(index, slice) else index


def _tap_buffer(shape, first_writes) -> np.ndarray:
    """A buffer for tap products: empty where the first writers' steps cover every step."""
    covered = sum(len(_steps(index, shape[0])) for index in first_writes)
    return (np.empty if covered == shape[0] else np.zeros)(shape, dtype=DTYPE)


def _put(buf: np.ndarray, index, a: np.ndarray, b: np.ndarray, first: bool) -> None:
    """Write (``first``) or add the rows of ``a @ b`` at ``buf``'s steps ``index``."""
    steps = _steps(index, buf.shape[0])
    if first and isinstance(steps, range) and steps.step == 1:
        n = buf.shape[1]
        np.matmul(a, b, out=buf.reshape(-1, b.shape[1])[steps.start * n : steps.stop * n])
        return
    rows = (a @ b).reshape(-1, *buf.shape[1:])
    if first:
        buf[index] = rows
    else:
        buf[index] += rows


def _tap_products(
    x: Tensor, kernel: Tensor, x3: np.ndarray, pairs, out_shape, first_out: int, first_in: int
) -> Tensor:
    """Rows ``out[dst_j] += x3[src_j] @ kernel[j]`` summed over the taps j, flattened.

    ``x3`` is ``x``'s data as (steps, nodes, d_in), ``out_shape`` is
    (steps, nodes, d_out), and ``pairs[j]`` is tap j's (src, dst): two
    slices or index arrays over steps that pick as many steps each. Each
    tap is one GEMM over all the nodes of its steps. The input gradient is
    the same sum with src and dst swapped and each tap transposed (a conv's
    is a deconv), and ``gk[j] = x3[src_j]ᵀ g[dst_j]``.

    The caller states which taps write first: the dst steps of the first
    ``first_out`` taps are pairwise disjoint, and so are the src steps of the
    first ``first_in``. Those taps write their products (a contiguous run of
    steps straight from the GEMM) instead of adding them to zeros, the rest
    add in tap order, so every sum is the same; a buffer is zeroed only when
    its first writers leave steps unwritten.
    """
    kd = kernel.data
    d_in, d_out = kd.shape[1:]
    out = _tap_buffer(out_shape, [dst for _, dst in pairs[:first_out]])
    for j, (src, dst) in enumerate(pairs):
        _put(out, dst, x3[src].reshape(-1, d_in), kd[j], j < first_out)

    def grad_fn(gout):
        g3 = gout.reshape(out_shape)
        gx = _tap_buffer(x3.shape, [src for src, _ in pairs[:first_in]])
        gk = np.empty_like(kd)
        for j, (src, dst) in enumerate(pairs):
            g = g3[dst].reshape(-1, d_out)
            _put(gx, src, g, kd[j].T, j < first_in)
            rows = x3[src].reshape(-1, d_in)
            if len(rows):
                np.matmul(rows.T, g, out=gk[j])
            else:  # a tap no row uses
                gk[j] = 0
        return [gx.reshape(x.shape), gk]

    return record(out.reshape(-1, d_out), [x, kernel], grad_fn)


def _strided_taps(k: int, stride: int, strided_steps: int, max_steps: int):
    """Per tap j, the steps j, j+stride, ... (at most ``max_steps``, all below
    ``strided_steps``) and as many steps from 0."""
    for j in range(k):
        n = max(0, min(max_steps, -(-(strided_steps - j) // stride)))
        yield slice(j, j + n * stride, stride), slice(0, n)


def conv1d_temporal(
    x: Tensor, kernel: Tensor, stride: int, nodes: int = 1, pad: int = 0
) -> Tensor:
    """Valid strided 1-D convolution along time, per node.

    ``x`` is (T*nodes) x d_in in timestep-major order, i.e. a (T, nodes, d_in)
    stack whose nodes are convolved independently; ``kernel`` is
    k x d_in x d_out. ``pad`` zero steps are appended first; the output has
    ceil((T+pad-k+1)/stride) steps in the same layout. Tap j reads input
    steps j, j+stride, ... into output steps 0, 1, ...; the padding is
    never built, since its steps add nothing.
    """
    x3, k, d_out = _temporal_rows("conv1d_temporal", x, kernel, stride, nodes)
    t_len = len(x3) + pad
    if t_len < k:
        raise DimensionError(f"temporal extent {t_len} shorter than kernel {k}")
    n_out = (t_len - k) // stride + 1
    pairs = list(_strided_taps(k, stride, len(x3), n_out))
    # every tap writes output steps from 0; taps less than a stride apart read disjoint steps
    return _tap_products(x, kernel, x3, pairs, (n_out, nodes, d_out), 1, min(k, stride))


def deconv1d_temporal(
    x: Tensor, kernel: Tensor, stride: int, nodes: int = 1, steps: Optional[int] = None
) -> Tensor:
    """Transposed 1-D convolution along time; output has (T-1)*stride + k steps.

    ``x`` and the output use the timestep-major layout of
    :func:`conv1d_temporal`; ``steps``, when given, keeps only the first
    ``steps`` output steps. Tap j writes input steps 0, 1, ... to output
    steps j, j+stride, ..., the mirror of the conv.
    """
    x3, k, d_out = _temporal_rows("deconv1d_temporal", x, kernel, stride, nodes)
    t_full = (len(x3) - 1) * stride + k
    t_out = t_full if steps is None else steps
    if t_out > t_full:
        raise DimensionError(f"deconv produces {t_full} steps, need {t_out}")
    pairs = [(src, dst) for dst, src in _strided_taps(k, stride, t_out, len(x3))]
    return _tap_products(x, kernel, x3, pairs, (t_out, nodes, d_out), min(k, stride), 1)


def tap_matmul(x: Tensor, kernel: Tensor, taps) -> Tensor:
    """Row r of ``x`` times tap ``taps[r]`` of a k x d_in x d_out ``kernel``.

    This is a transposed convolution whose taps never overlap, on rows that
    already sit at their output steps. One GEMM per tap, over the rows that
    use it; a tap no row uses gets a zero gradient.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise DimensionError("tap_matmul expects x rank 2 and kernel rank 3")
    k, d_in, d_out = kernel.shape
    if d_in != x.shape[1]:
        raise DimensionError(f"kernel input width {d_in} != feature width {x.shape[1]}")
    taps = np.asarray(taps)
    if taps.shape != x.shape[:1]:
        raise DimensionError(f"{taps.shape} taps for {x.shape[0]} rows")
    if taps.size and (taps.min() < 0 or taps.max() >= k):
        raise DimensionError(f"tap index out of range for a kernel of {k} taps")
    pairs = [(rows, rows) for rows in (np.flatnonzero(taps == j) for j in range(k))]
    # each row uses one tap, so every tap writes first on both sides
    x3 = x.data.reshape(-1, 1, d_in)
    return _tap_products(x, kernel, x3, pairs, (len(taps), 1, d_out), k, k)


# ---------------------------------------------------------------------------
# serialization: rank then extents as little-endian uint32, then float32 data


def dump_tensor(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write rank, extents (u32 each) and the little-endian float32 data, without copies."""
    data = np.require(arr, "<f4", "C")
    fh.write(struct.pack(f"<{1 + data.ndim}I", data.ndim, *data.shape))
    fh.write(memoryview(data))


def load_tensor(fh: BinaryIO) -> np.ndarray:
    """Read one :func:`dump_tensor` record; ``ValueError`` if the file is too short for it."""
    raw = fh.read(4)
    if len(raw) != 4:
        raise ValueError("truncated tensor header")
    (rank,) = struct.unpack("<I", raw)
    if rank > 3:
        raise DimensionError(f"serialized rank {rank} exceeds 3")
    raw = fh.read(4 * rank)
    if len(raw) != 4 * rank:
        raise ValueError("truncated tensor extents")
    shape = struct.unpack(f"<{rank}I", raw)
    nbytes = 4 * math.prod(shape)
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if nbytes > left:
        raise ValueError(f"truncated tensor data: extents {shape} need {nbytes} bytes, {left} left")
    raw = fh.read(nbytes)
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(DTYPE)
