"""Block-banded matrices over the timestep-major node-time layout.

A matrix over T timesteps whose entries only couple timesteps at most b
apart is stored as an array of shape (T, 2b+1, M, N): ``blocks[t, b + delta]``
is the M x N block mapping the N rows of timestep t + delta onto the M rows
of timestep t. Blocks reaching outside 0..T-1 stay zero. Spatial adjacency
and centering are block-diagonal (b = 0, M = N), temporal adjacency is a
symmetric band and mean-pooling has M = 1 (or M = s output timesteps per
input step of a sequence subsampled by s); a dense matrix is the one-block
case T = 1, b = 0.

This module owns the layout: allocation (with :func:`allocatable`, the size
check of every input-sized array, and :func:`fits_in_memory`, that of
every input-sized loop), the symmetric edge scatter, stride
subsampling and symmetric normalization (checked, or unchecked for blocks
built symmetric). :func:`stacked_stgcn.tensor.banded_matmul`
applies block arrays to taped tensors.
"""

from __future__ import annotations

import math
import os
from typing import Iterator, Tuple

import numpy as np

from .errors import DimensionError, ValidationError


def as_blocks(a) -> np.ndarray:
    """View a block array as itself and a 2-D matrix as its (1, 1, M, N) case."""
    a = np.asarray(a)
    if a.ndim == 2:
        a = a[None, None]
    if a.ndim != 4 or a.shape[1] % 2 != 1:
        raise DimensionError(f"blocks must have shape (T, 2b+1, M, N), got {a.shape}")
    return a


def band_slices(num_steps: int, width: int) -> Iterator[Tuple[int, int, int, int]]:
    """(band index, delta, lo, hi) for each offset of a band of ``width`` blocks.

    Block row t of offset ``delta`` reaches timestep t + delta, which lies in
    0..num_steps-1 exactly for t in lo..hi-1.
    """
    half = width // 2
    for k in range(width):
        delta = k - half
        lo, hi = max(0, -delta), min(num_steps, num_steps - delta)
        if lo < hi:
            yield k, delta, lo, hi


def allocatable(shape: Tuple[int, ...], dtype) -> Tuple[int, ...]:
    """``shape``, or MemoryError if numpy cannot even address an array of it.

    numpy raises ValueError for a byte count past the largest index ("array
    is too big"), but MemoryError for one it can address and not allocate.
    Allocations whose size comes from input ask here first, so both fail
    the same way.
    """
    shape = tuple(int(n) for n in shape)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if max(nbytes, *shape) > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate {nbytes} bytes for an array of shape {shape}")
    return shape


def fits_in_memory(nbytes: int, what: str) -> None:
    """MemoryError if ``nbytes``, a lower bound on what ``what`` holds, exceeds physical memory.

    Loops whose trip count comes from input ask here first, sized in closed form."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise MemoryError(f"{what} need at least {nbytes} bytes, more than the "
                          f"{physical} bytes of physical memory")


def zeros(num_steps: int, band: int, num_nodes: int, dtype) -> np.ndarray:
    """Zero square blocks of half-width ``band``, clamped to num_steps - 1.

    Offsets beyond num_steps - 1 reach outside the sequence from every
    timestep, so they are not stored.
    """
    b = max(0, min(band, num_steps - 1))
    return np.zeros(allocatable((num_steps, 2 * b + 1, num_nodes, num_nodes), dtype), dtype)


def block_diagonal(mats: np.ndarray) -> np.ndarray:
    """(T, M, N) per-timestep blocks -> the (T, 1, M, N) block-diagonal array."""
    return np.asarray(mats)[:, None]


def raise_symmetric(blocks: np.ndarray, t, delta, i, j, w) -> None:
    """Raise edge weights in place, keeping the matrix symmetric.

    Edge k joins (i[k], t[k]) and (j[k], t[k] + delta[k]); both its entry and
    the mirrored one are raised to ``w[k]`` (max over duplicates). ``delta``
    may be a scalar; every offset must lie inside the band.
    """
    b = blocks.shape[1] // 2
    np.maximum.at(blocks, (t, b + delta, i, j), w)
    np.maximum.at(blocks, (t + delta, b - delta, j, i), w)


def set_symmetric(blocks: np.ndarray, t, delta, i, j, w) -> None:
    """:func:`raise_symmetric` for edges of which no two share an entry, mirrors included.

    Then each entry is written once, so on zero blocks assignment leaves the
    same bits as the max over nonnegative weights.
    """
    b = blocks.shape[1] // 2
    blocks[t, b + delta, i, j] = w
    blocks[t + delta, b - delta, j, i] = w


def subsample(blocks: np.ndarray, stride: int) -> np.ndarray:
    """Keep timesteps 0, s, 2s, ... and the offsets divisible by s = ``stride``, as a view.

    Surviving entries keep their weights; a band of half-width b becomes one
    of half-width b // stride. Subsampling by s and then by r equals
    subsampling by s * r.
    """
    # the offsets -s*(b//s) .. s*(b//s) sit at band indices b % s, b % s + s, ...
    return blocks[::stride, blocks.shape[1] // 2 % stride :: stride]


def normalize_symmetric(blocks: np.ndarray) -> np.ndarray:
    """D^-1/2 (I+A) D^-1/2 of a symmetric nonnegative square block array, in float64.

    Isolated nodes get degree 1 from the self loop, so no division by zero.
    """
    if blocks.ndim != 4 or blocks.shape[1] % 2 != 1 or blocks.shape[2] != blocks.shape[3]:
        raise ValidationError("adjacency must be square")
    if np.any(blocks < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    T, width, N, _ = blocks.shape
    inside = np.zeros((T, width), dtype=bool)
    for k, delta, lo, hi in band_slices(T, width):
        inside[lo:hi, k] = True
        mirror = blocks[lo + delta : hi + delta, width - 1 - k].transpose(0, 2, 1)
        if not np.array_equal(blocks[lo:hi, k], mirror):
            raise ValidationError("adjacency must be symmetric")
    if blocks[~inside].any():
        raise ValidationError("adjacency blocks reach outside the sequence")
    return normalize_built(blocks)


def normalize_built(blocks: np.ndarray) -> np.ndarray:
    """:func:`normalize_symmetric`'s arithmetic without its checks.

    For blocks symmetric, nonnegative and zero outside the sequence by
    construction, as :func:`raise_symmetric` and :func:`set_symmetric` on
    :func:`zeros` leave them, and their :func:`subsample` views.
    """
    T, width, N, _ = blocks.shape
    a_hat = blocks.astype(np.float64)
    a_hat[:, width // 2] += np.eye(N)
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1).sum(axis=-1))
    out = np.zeros(blocks.shape, dtype=np.float64)
    for k, delta, lo, hi in band_slices(T, width):
        rows, cols = d_inv_sqrt[lo:hi, :, None], d_inv_sqrt[lo + delta : hi + delta, None, :]
        out[lo:hi, k] = rows * a_hat[lo:hi, k] * cols
    return out
