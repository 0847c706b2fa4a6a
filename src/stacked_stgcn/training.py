"""Losses, optimizer, learning-rate schedule, training loop, checkpoints.

Training consumes one :class:`~stacked_stgcn.graph.Window` view per optimizer
step: sequences longer than the window are cropped at a random start, shorter
ones are zero-padded with the padding masked out of the loss. The optimizer is
plain SGD with an exponential step schedule lr(e) = lr0 * drop^floor(e / step).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DictCodec, atomic_write
from .errors import ContractError, NumericalError, ValidationError
from .graph import StgSequence, Window
from .graph import pad_sequence, slice_sequence  # noqa: F401  (perfbench/tracing.py wraps them)
from .model import ModelConfig, StgcnModel
from .tensor import DTYPE, Tensor, dump_tensor, gradients, load_tensor, record
from .tensor import backward  # noqa: F401  (perfbench/tracing.py wraps it)


@dataclass(frozen=True)
class TrainConfig(DictCodec):
    mode: str = "single"  # "single" | "multi"
    lr0: float = 0.0004
    sched_step: int = 1
    sched_drop: float = 0.9
    max_window: int = 50
    epochs: int = 30
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ValidationError("lr0 must be finite and positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(DTYPE(self.lr0)):
                raise ValidationError(f"lr0 {self.lr0!r} overflows float32, the update's precision")
        if not 0 <= self.momentum < 1:
            raise ValidationError("momentum must be in [0, 1)")
        if not 0 < self.sched_drop <= 1:
            raise ValidationError("sched_drop must be in (0, 1]")
        if min(self.sched_step, self.max_window, self.epochs) < 1 or self.seed < 0:
            raise ValidationError("bad training configuration")


# ---------------------------------------------------------------------------
# losses (numerically stabilized, recorded directly on the tape)


def masked_bce_loss(scores: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with logits over masked-in timesteps."""
    targets = np.asarray(targets, dtype=DTYPE)
    mask = np.asarray(mask, dtype=bool)
    if scores.shape != targets.shape or mask.shape != (scores.shape[0],):
        raise ValidationError("scores, targets and mask shapes disagree")
    cell_mask = np.broadcast_to(mask[:, None], scores.shape).astype(DTYPE)
    m = cell_mask.sum()
    if m == 0:
        raise ValidationError("all positions masked out; loss undefined")
    s = scores.data.astype(np.float64)
    y = targets.astype(np.float64)
    per_cell = np.maximum(s, 0) - s * y + np.log1p(np.exp(-np.abs(s)))
    loss = (per_cell * cell_mask).sum() / m
    sig = 1.0 / (1.0 + np.exp(-s))

    def grad_fn(gout):
        g = float(gout) * (sig - y) * cell_mask / m
        return [g.astype(DTYPE)]

    return record(np.asarray(loss, dtype=DTYPE), [scores], grad_fn)


def masked_ce_loss(scores: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over masked-in timesteps."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    T, C = scores.shape
    if labels.shape != (T,) or mask.shape != (T,):
        raise ValidationError("labels/mask shapes disagree with scores")
    if np.any((labels < 0) | (labels >= C)):
        raise ValidationError("label index out of range")
    m = int(mask.sum())
    if m == 0:
        raise ValidationError("all positions masked out; loss undefined")
    s = scores.data.astype(np.float64)
    smax = s.max(axis=1, keepdims=True)
    logz = smax[:, 0] + np.log(np.exp(s - smax).sum(axis=1))
    per_t = logz - s[np.arange(T), labels]
    loss = per_t[mask].sum() / m
    softmax = np.exp(s - logz[:, None])

    def grad_fn(gout):
        g = softmax.copy()
        g[np.arange(T), labels] -= 1.0
        g *= mask[:, None] / m
        return [(float(gout) * g).astype(DTYPE)]

    return record(np.asarray(loss, dtype=DTYPE), [scores], grad_fn)


def sequence_loss(scores: Tensor, window: Window, mode: str) -> Tensor:
    if mode == "single":
        return masked_ce_loss(scores, window.labels, window.label_mask)
    return masked_bce_loss(scores, window.labels, window.label_mask)


# ---------------------------------------------------------------------------
# optimizer and schedule


# floats per block of the SGD update: its temporary and the block stay in cache
UPDATE_BLOCK = 1 << 16


def step_lr(epoch: int, cfg: TrainConfig) -> float:
    return cfg.lr0 * cfg.sched_drop ** (epoch // cfg.sched_step)


def sgd_step(
    params: Dict[str, np.ndarray],
    grads: Union[Mapping[str, np.ndarray], Iterable[Tuple[str, np.ndarray]]],
    lr: float,
    momentum: float = 0.0,
    velocity: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """In-place SGD update p <- p - lr * g, with optional momentum.

    ``grads`` maps parameter paths to gradients, or is an iterable of
    ``(path, gradient)`` pairs, such as :func:`train`'s stream from
    :func:`~stacked_stgcn.tensor.gradients`: each parameter is then updated
    as soon as the backward sweep has finished its gradient, while the
    gradient is still in cache, and the gradient is dropped before the next
    is made, so no model-sized gradient set is ever held.

    Each parameter is updated in blocks of ``UPDATE_BLOCK`` floats through
    one small temporary, so no model-sized ``lr * g`` is built, and each
    block is checked as it is written. A non-finite value does not stop the
    pairs: once all are applied, :class:`NumericalError` names the first
    non-finite parameter in the order of ``params``, whatever order the
    pairs came in. Parameters must be C-contiguous, as a
    :class:`~stacked_stgcn.model.ParameterStore` keeps them.
    """
    if lr <= 0:
        raise ValidationError("learning rate must be positive")
    if isinstance(grads, Mapping):
        grads = grads.items()
    step, tmp = DTYPE(lr), np.empty(UPDATE_BLOCK, dtype=DTYPE)
    non_finite = set()
    for key, g in grads:
        p = params[key]
        if not p.flags.c_contiguous:
            raise ContractError(f"parameter {key!r} is not C-contiguous")
        flat, g = p.reshape(-1), g.reshape(-1)
        if momentum > 0:
            assert velocity is not None
            v = velocity.setdefault(key, np.zeros_like(p)).reshape(-1)
        for lo in range(0, flat.size, UPDATE_BLOCK):
            part = slice(lo, lo + UPDATE_BLOCK)
            block, gb = flat[part], g[part]
            if momentum > 0:
                vb = v[part]
                vb *= DTYPE(momentum)
                vb += gb
                gb = vb
            block -= np.multiply(gb, step, out=tmp[: len(block)])
            if not np.isfinite(block).all():
                non_finite.add(key)
        params[key] = p  # the same array: bumps a ParameterStore's version
    for key in params:
        if key in non_finite:
            raise NumericalError(f"non-finite value in parameter {key!r} after the update")


def keep_freed_heap() -> None:
    """Let glibc's malloc keep a training step's freed memory for the next step.

    A step frees all it allocated, much of it at the top of the heap; past
    the trim threshold (adaptive, about twice the largest array freed so
    far) glibc gives that memory back to the OS, and the next step faults
    every page in again (on the cad120 preset, up to 3k minor faults per
    step at N=6 and 15k at N=40, depending on where the heap's live blocks
    happen to lie). Fixed thresholds keep the pages. This sets process-wide
    malloc parameters; on other platforms it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the ceiling of glibc's adaptive rule
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as that rule sets it


def train_window_sample(seq: StgSequence, max_window: int, rng: np.random.Generator) -> Window:
    """``max_window`` steps from a random start, or from 0 (zero-padded) if T is shorter."""
    if max_window < 1:
        raise ValidationError("max_window must be >= 1")
    if seq.num_steps > max_window:
        return Window(seq, int(rng.integers(0, seq.num_steps - max_window + 1)), max_window)
    return Window(seq, 0, max_window)


def leave_one_group_out(
    dataset: Sequence[StgSequence], groups: Sequence
) -> List[Tuple[List[StgSequence], List[StgSequence]]]:
    """Cross-validation folds holding one group (e.g. subject) out per fold.

    Four distinct groups give the four-fold leave-one-subject-out protocol.
    Folds are ordered by sorted group label.
    """
    if len(groups) != len(dataset):
        raise ValidationError("need one group label per sequence")
    if not dataset:
        raise ValidationError("empty dataset")
    folds = []
    for g in sorted(set(groups)):
        held_in = [s for s, gg in zip(dataset, groups) if gg != g]
        held_out = [s for s, gg in zip(dataset, groups) if gg == g]
        folds.append((held_in, held_out))
    return folds


# ---------------------------------------------------------------------------
# training loop


@dataclass
class CurvePoint:
    epoch: int
    split: str
    loss: float
    metric: float


# non-finite values are checked at the loss and the update, which raise NumericalError;
# numpy's own overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: Sequence[StgSequence],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    out_dir: Optional[str] = None,
    model: Optional[StgcnModel] = None,
) -> Tuple[StgcnModel, List[CurvePoint]]:
    """Train a model; deterministic given the config seed.

    Returns the trained model and the loss curve. When ``out_dir`` is given,
    a checkpoint is written per epoch along with the curve CSV. Each step
    streams its gradients into :func:`sgd_step`, and :func:`keep_freed_heap`
    keeps the memory a step frees for the next.
    """
    if not dataset:
        raise ValidationError("empty training dataset")
    for seq in dataset:
        if seq.mode != train_cfg.mode:
            raise ValidationError(
                f"sequence mode {seq.mode!r} does not match training mode {train_cfg.mode!r}"
            )
    if model is None:
        model = StgcnModel(model_cfg, seed=train_cfg.seed)
    keep_freed_heap()
    rng = np.random.default_rng(train_cfg.seed + 1)
    velocity: Dict[str, np.ndarray] = {}
    curve: List[CurvePoint] = []

    for epoch in range(train_cfg.epochs):
        lr = step_lr(epoch, train_cfg)
        order = rng.permutation(len(dataset))
        losses = []
        for i in order:
            window = train_window_sample(dataset[i], train_cfg.max_window, rng)
            tape, taped, scores = model.forward_taped(window)
            loss = sequence_loss(scores, window, train_cfg.mode)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, sequence {i}"
                )
            paths = {t.tid: path for path, t in taped.items()}
            stream = ((paths[tid], g) for tid, g in gradients(tape, loss))
            sgd_step(model.params, stream, lr, train_cfg.momentum, velocity)
            losses.append(loss_val)
        curve.append(CurvePoint(epoch, "train", float(np.mean(losses)), lr))
        if out_dir is not None:
            save_checkpoint(
                os.path.join(out_dir, f"epoch_{epoch:04d}.ckpt"),
                model, train_cfg, epoch, rng,
            )
    if out_dir is not None:
        write_curve(os.path.join(out_dir, "curve.csv"), curve)
    return model, curve


def write_curve(path: str, curve: Sequence[CurvePoint]) -> None:
    with atomic_write(path) as fh:
        fh.write("epoch,split,loss,metric\n")
        for p in curve:
            fh.write(f"{p.epoch},{p.split},{p.loss!r},{p.metric!r}\n")


# ---------------------------------------------------------------------------
# checkpoint format: length-prefixed JSON manifest + concatenated tensor blobs


@dataclass(frozen=True)
class CheckpointHeader(DictCodec):
    """The JSON header; ``rng_state`` is written for information and never read back."""

    format: str
    model_config: ModelConfig
    train_config: TrainConfig
    epoch: int
    keys: Tuple[str, ...]
    rng_state: Optional[dict]


def save_checkpoint(
    path: str,
    model: StgcnModel,
    train_cfg: TrainConfig,
    epoch: int,
    rng: Optional[np.random.Generator] = None,
) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    keys = tuple(sorted(model.params))
    header = CheckpointHeader(
        "stgcn-checkpoint-1", model.cfg, train_cfg, epoch, keys,
        _rng_state_to_json(rng) if rng is not None else None,
    )
    blob = json.dumps(header.to_dict(), sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for key in keys:
            dump_tensor(fh, model.params[key])


def load_checkpoint(path: str) -> Tuple[StgcnModel, TrainConfig, int, Optional[dict]]:
    with open(path, "rb") as fh:
        raw = fh.read(4)
        if len(raw) != 4:
            raise ValidationError(f"truncated checkpoint header: {path}")
        (n,) = struct.unpack("<I", raw)
        blob = fh.read(n)
        if len(blob) != n:
            raise ValidationError(f"truncated checkpoint header: {path}")
        try:
            doc = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise ValidationError(f"corrupt checkpoint header: {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != "stgcn-checkpoint-1":
            raise ValidationError(f"not a checkpoint file: {path}")
        header = CheckpointHeader.from_dict(doc, f"checkpoint {path}")
        params = {}
        for key in header.keys:
            try:
                params[key] = load_tensor(fh)
            except ValueError as exc:
                raise ValidationError(f"checkpoint {path}, tensor {key!r}: {exc}") from exc
    try:
        model = StgcnModel.from_params(header.model_config, params)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from exc
    return model, header.train_config, header.epoch, header.rng_state


def _rng_state_to_json(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))
