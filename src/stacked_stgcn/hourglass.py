"""Encoder-decoder hourglass over STGCN layers, and stacking of blocks.

Each encoder level runs an STGCN layer and then a strided temporal
convolution; adjacency is subsampled per level to match, keeping its block
layout (see :class:`stacked_stgcn.graph.AdjacencyPair`): every stride-th
timestep survives, and so do band offsets divisible by the stride. The
decoder mirrors with transposed convolutions, adding same-level encoder
outputs when skip connections are on. Temporal extents that do not divide
by the stride are zero-padded before the strided convolution and cropped
after upsampling, so a block always returns the temporal extent it was fed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import tensor as tn
from .blocks import subsample as subsample_blocks
from .errors import DimensionError
from .graph import AdjacencyPair
from .layers import StgcnLayerParams, normalize_adjacency, stgcn_layer
from .layers import assemble_rows  # noqa: F401  (perfbench/tracing.py wraps it here)
from .tensor import Tensor


@dataclass(frozen=True)
class LevelAdjacency:
    """Normalized spatial and temporal adjacency blocks for one resolution level."""

    ns: np.ndarray
    nt: np.ndarray
    num_steps: int
    num_tracks: int


def subsample_adjacency(adj: AdjacencyPair, stride: int) -> AdjacencyPair:
    """Keep every stride-th timestep of both adjacency matrices.

    Surviving timesteps are 0, s, 2s, ...; surviving pairs stay connected
    iff they were connected in the input, so temporal edges must have
    spanned the gap for coarse-level connectivity to exist. A band of
    half-width b becomes one of half-width b // stride.
    """
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    if stride == 1:
        return adj
    a_s = subsample_blocks(adj.a_s, stride)
    return AdjacencyPair(
        a_s=a_s,
        a_t=subsample_blocks(adj.a_t, stride),
        num_tracks=adj.num_tracks,
        num_steps=a_s.shape[0],
    )


def build_level_adjacency(
    adj: AdjacencyPair, levels: int, stride: int
) -> List[LevelAdjacency]:
    """Normalized adjacency per level, level 0 being the input resolution."""
    out = []
    cur = adj
    for _ in range(levels + 1):
        out.append(
            LevelAdjacency(
                ns=normalize_adjacency(cur.a_s),
                nt=normalize_adjacency(cur.a_t),
                num_steps=cur.num_steps,
                num_tracks=cur.num_tracks,
            )
        )
        cur = subsample_adjacency(cur, stride)
    return out


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
class DecoderLevelParams:
    deconv_kernel: Tensor
    stgcn: Optional[StgcnLayerParams] = None


@dataclass
class HourglassBlockParams:
    encoder: List[EncoderLevelParams]
    bottleneck: StgcnLayerParams
    decoder: List[DecoderLevelParams]  # index l mirrors encoder level l


def hourglass_forward(
    h: Tensor,
    levels: Sequence[LevelAdjacency],
    params: HourglassBlockParams,
    stride: int,
    skip: bool = True,
) -> Tensor:
    """One hourglass block; output temporal extent equals the input extent."""
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
    x = stgcn_layer(x, lv.ns, lv.nt, params.bottleneck)

    for l in reversed(range(depth)):
        x = temporal_deconv_flat(
            x,
            params.decoder[l].deconv_kernel,
            stride,
            num_tracks,
            levels[l + 1].num_steps,
            levels[l].num_steps,
        )
        if skip:
            x = tn.add(x, skips[l])
        if params.decoder[l].stgcn is not None:
            x = stgcn_layer(x, levels[l].ns, levels[l].nt, params.decoder[l].stgcn)
    return x


def stack_forward(
    h: Tensor,
    levels: Sequence[LevelAdjacency],
    blocks: Sequence[HourglassBlockParams],
    stride: int,
    skip: bool = True,
) -> Tensor:
    """Sequential composition of hourglass blocks at shared adjacency levels."""
    x = h
    for block in blocks:
        x = hourglass_forward(x, levels, block, stride, skip=skip)
    return x


def head_forward(
    h: Tensor, pool: np.ndarray, w: Tensor, b: Optional[Tensor] = None
) -> Tensor:
    """Spatial mean-pool per timestep, then an affine map to class scores.

    ``pool`` is the (T, 1, 1, N) block array of :func:`pooling_matrix`, or a
    dense T x N_t matrix.
    """
    scores = tn.matmul(tn.banded_matmul(pool, h), w)
    if b is not None:
        scores = tn.add(scores, b)
    return scores
