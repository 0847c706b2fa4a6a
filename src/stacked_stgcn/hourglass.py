"""Encoder-decoder hourglass over STGCN layers, and stacking of blocks.

Each encoder level runs an STGCN layer and then a strided temporal
convolution; adjacency is subsampled per level to match, keeping its block
layout (see :class:`stacked_stgcn.graph.AdjacencyPair`): level l keeps
every (stride ** l)-th timestep of level 0, and band offsets divisible by
stride ** l (:func:`build_level_adjacency`). The decoder mirrors with
transposed convolutions, adding same-level encoder outputs (skip
connections). Temporal extents that do not divide by the stride are
zero-padded before the strided convolution and cropped after upsampling,
so a block always returns the temporal extent it was fed.

A decoder level is a transposed convolution and a skip add, with no
STGCN layer: the decoder is linear. Only the head reads the last block's
output, through a per-timestep node mean, so :func:`head_forward` can take
that mean first and run the last decoder on one row per timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as tn
from .blocks import normalize_built
from .blocks import subsample as subsample_blocks
from .errors import DimensionError
from .graph import AdjacencyPair
from .layers import StgcnLayerParams, stgcn_layer
# perfbench/tracing.py wraps these two here
from .layers import assemble_rows, normalize_adjacency  # noqa: F401
from .tensor import DTYPE, Tensor


@dataclass(frozen=True)
class LevelAdjacency:
    """Normalized spatial and temporal adjacency blocks for one resolution level."""

    ns: np.ndarray
    nt: np.ndarray
    num_steps: int
    num_tracks: int


def build_level_adjacency(adj: AdjacencyPair, levels: int, stride: int) -> List[LevelAdjacency]:
    """Normalized adjacency per level, level 0 being the input resolution.

    A_s is block-diagonal and a block's normalization reads that block only,
    so A_s is normalized once and level l strides it by stride ** l. A_t is
    subsampled by stride ** l from level 0 and normalized per level. The
    blocks are symmetric by construction, so the normalization skips the
    checks that :func:`~stacked_stgcn.layers.normalize_adjacency` makes.
    """
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    ns = normalize_built(adj.a_s).astype(DTYPE)
    nt = [normalize_built(subsample_blocks(adj.a_t, stride**l)).astype(DTYPE)
          for l in range(levels + 1)]
    return [LevelAdjacency(ns[:: stride**l], a, len(a), adj.num_tracks) for l, a in enumerate(nt)]


def _check_rows(h: Tensor, num_tracks: int, num_steps: int) -> None:
    if h.shape[0] != num_tracks * num_steps:
        raise DimensionError(f"{h.shape[0]} rows != {num_tracks} tracks x {num_steps} steps")


def temporal_conv_flat(
    h: Tensor, kernel: Tensor, stride: int, num_tracks: int, num_steps: int
) -> Tensor:
    """Strided valid convolution along time for every node of a flat layout.

    Input is zero-padded at the end to a multiple of the stride so the
    output has ceil(T/stride) steps, matching adjacency subsampling.
    """
    _check_rows(h, num_tracks, num_steps)
    pad = -(-num_steps // stride) * stride - num_steps
    return tn.conv1d_temporal(h, kernel, stride, nodes=num_tracks, pad=pad)


def temporal_deconv_flat(
    h: Tensor,
    kernel: Tensor,
    stride: int,
    num_tracks: int,
    num_steps: int,
    target_steps: int,
) -> Tensor:
    """Transposed convolution along time per node, cropped to target_steps."""
    _check_rows(h, num_tracks, num_steps)
    return tn.deconv1d_temporal(h, kernel, stride, nodes=num_tracks, steps=target_steps)


@dataclass
class EncoderLevelParams:
    stgcn: StgcnLayerParams
    conv_kernel: Tensor


@dataclass
class HourglassBlockParams:
    encoder: List[EncoderLevelParams]
    bottleneck: StgcnLayerParams
    decoder: List[Tensor]  # deconv kernels; index l mirrors encoder level l


def hourglass_encode(
    h: Tensor, levels: Sequence[LevelAdjacency], params: HourglassBlockParams, stride: int
) -> Tuple[Tensor, List[Tensor]]:
    """The encoder and bottleneck of one block: the bottleneck output and the
    encoder outputs its decoder adds back, level 0 first."""
    depth = len(params.encoder)
    if len(levels) < depth + 1:
        raise DimensionError("not enough adjacency levels for this block")
    num_tracks = levels[0].num_tracks

    skips: List[Tensor] = []
    x = h
    for l in range(depth):
        lv = levels[l]
        e = stgcn_layer(x, lv.ns, lv.nt, params.encoder[l].stgcn)
        skips.append(e)
        x = temporal_conv_flat(
            e, params.encoder[l].conv_kernel, stride, num_tracks, lv.num_steps
        )

    lv = levels[depth]
    return stgcn_layer(x, lv.ns, lv.nt, params.bottleneck), skips


def hourglass_forward(
    h: Tensor,
    levels: Sequence[LevelAdjacency],
    params: HourglassBlockParams,
    stride: int,
) -> Tensor:
    """One hourglass block; output temporal extent equals the input extent."""
    x, skips = hourglass_encode(h, levels, params, stride)
    num_tracks = levels[0].num_tracks
    for l in reversed(range(len(params.decoder))):
        x = temporal_deconv_flat(
            x, params.decoder[l], stride, num_tracks, levels[l + 1].num_steps, levels[l].num_steps
        )
        x = tn.add(x, skips[l])
    return x


def stack_forward(
    h: Tensor,
    levels: Sequence[LevelAdjacency],
    blocks: Sequence[HourglassBlockParams],
    stride: int,
) -> Tensor:
    """Sequential composition of hourglass blocks at shared adjacency levels."""
    x = h
    for block in blocks:
        x = hourglass_forward(x, levels, block, stride)
    return x


def head_forward(
    h: Tensor,
    pool: np.ndarray,
    w: Tensor,
    b: Optional[Tensor] = None,
    decoder: Sequence[Tuple[np.ndarray, Tensor, Tensor]] = (),
    stride: int = 1,
) -> Tensor:
    """Spatial mean-pool per timestep, then an affine map to class scores.

    ``pool`` is the block array of :func:`pooling_matrix` (or a dense
    T x N_t matrix) for the level of ``h``. With no ``decoder``, ``h`` is at
    level 0 and ``pool`` has one row per timestep.

    ``decoder`` is a block's decoder, taking ``h`` from level L back to
    level 0, as (pool, deconv kernel, skip) per level from L-1
    down to 0; level l's pool is
    ``pooling_matrix(presence, stride ** l)`` and ``pool`` is level L's.
    Its deconvs and skip adds are linear and, with kernel size = stride,
    give each level-0 step t one tap per level, ``(t // stride**l) % stride``,
    so the node mean is taken first and the decoder runs on one pooled row
    per timestep: the scores equal those of the plain head on that
    decoder's output, as in :func:`hourglass_forward`.
    """
    x = tn.banded_matmul(pool, h)
    for level_pool, kernel, skip in decoder:
        if kernel.shape[0] != stride:
            raise DimensionError(f"deconv kernel has {kernel.shape[0]} taps, stride is {stride}")
        steps, _, phases, _ = level_pool.shape
        if x.shape[0] > steps * phases:  # the deconv's crop to level l's steps
            x = tn.slice_axis(x, 0, 0, steps * phases)
        x = tn.tap_matmul(x, kernel, np.arange(steps * phases) // phases % stride)
        x = tn.add(x, tn.banded_matmul(level_pool, skip))
    scores = tn.matmul(x, w)
    if b is not None:
        scores = tn.add(scores, b)
    return scores
