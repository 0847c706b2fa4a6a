"""Finite-difference verification of model gradients (the `gradcheck` command)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .graph import StgSequence, Window
from .model import StgcnModel
from .tensor import DTYPE, backward
from .training import sequence_loss


@dataclass
class ParamReport:
    name: str
    checked: int
    rel_ok: int
    abs_ok_rest: int
    max_abs_err: float
    passed: bool
    kinked: int  # out-of-tolerance coordinates skipped because +-STEP flips a ReLU mask


STEP = 1e-3  # central-difference step
REL_TOL = 1e-2
ABS_TOL = 1e-3
MAX_COORDS = 24  # coordinates sampled per parameter


def check_model_gradients(
    model: StgcnModel, seq: StgSequence, mode: str, seed: int = 0
) -> List[ParamReport]:
    """Compare tape gradients with central finite differences per parameter.

    A parameter passes when every sampled coordinate meets the relative
    tolerance or the absolute tolerance; the relative one is counted only
    where the gradient's scale exceeds ``ABS_TOL``. A coordinate that
    meets neither and whose ``+-STEP`` flips a ReLU mask has crossed a
    kink, where the central difference is no derivative: it is skipped,
    counted in ``kinked`` and not in ``checked`` or ``max_abs_err``.
    """
    window = Window(seq)
    levels = model.prepare_levels(window)  # constant: built once, not per forward
    tape, taped, scores = model.forward_taped(window, levels=levels)
    loss = sequence_loss(scores, window, mode)
    base_masks = tape.relu_masks()
    grads_by_id = backward(tape, loss)
    analytic = {path: grads_by_id[t.tid] for path, t in taped.items()}

    def loss_value() -> Tuple[float, bool]:
        """The loss at the current parameters, and whether a ReLU mask differs from the base."""
        t, _, s = model.forward_taped(window, levels=levels)
        kinked = any(not np.array_equal(m, b) for m, b in zip(t.relu_masks(), base_masks))
        return float(sequence_loss(s, window, mode).data), kinked

    rng = np.random.default_rng(seed)
    reports = []
    for name in sorted(model.params):
        p = model.params[name]
        flat = p.reshape(-1)
        n = flat.size
        coords = (
            np.arange(n) if n <= MAX_COORDS else rng.choice(n, size=MAX_COORDS, replace=False)
        )
        rel_ok = 0
        abs_ok_rest = 0
        max_err = 0.0
        failed_abs = 0
        kinked = 0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + DTYPE(STEP)
            up, up_kinked = loss_value()
            flat[c] = orig - DTYPE(STEP)
            down, down_kinked = loss_value()
            flat[c] = orig
            numeric = (up - down) / (2 * STEP)
            a = float(analytic[name].reshape(-1)[c])
            err = abs(a - numeric)
            scale = max(abs(a), abs(numeric))
            # the relative criterion only makes sense above the absolute floor
            if scale > ABS_TOL and err <= REL_TOL * scale:
                rel_ok += 1
            elif err <= ABS_TOL:
                abs_ok_rest += 1
            elif up_kinked or down_kinked:
                kinked += 1  # across a kink the difference is no derivative
                continue
            else:
                failed_abs += 1
            max_err = max(max_err, err)
        checked = len(coords) - kinked
        passed = failed_abs == 0
        reports.append(
            ParamReport(name, checked, rel_ok, abs_ok_rest, max_err, passed, kinked)
        )
    return reports
