"""The three benchmark workloads: set-up, the measured run, output checks.

Every workload is a closed loop with a single caller. Its op is what
``attempted`` counts: one optimizer step for ``train-*``, one
``stacked-stgcn eval`` invocation for ``eval-vgg-t300``. Geometry comes from
the presets under ``configs/``; features and labels come from ``SynthConfig``
with the preset's cluster widths and class count, seeded by ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from stacked_stgcn import cli, evaluate, graph, training
from stacked_stgcn.model import ModelConfig, StgcnModel
from stacked_stgcn.synth import SynthConfig, generate_dataset
from stacked_stgcn.tensor import backward

SETUP_REPS = 3        # set-up is repeated and its median reported
TRAIN_SEQUENCES = 4   # one epoch is this many optimizer steps
EVAL_SEQUENCES = 1    # one eval takes ~13 s on 2 cores, so 1-2 fit a 20 s run


@dataclass(frozen=True)
class Spec:
    name: str
    preset: str
    tracks_per_cluster: int
    t_range: tuple
    smoke_t_range: tuple


SPECS = {
    s.name: s
    for s in (
        Spec("train-n6", "cad120", 3, (60, 120), (12, 16)),
        Spec("train-n40", "cad120", 20, (60, 120), (12, 16)),
        Spec("eval-vgg-t300", "charades_vgg", 3, (300, 300), (24, 24)),
    )
}

SMOKE_D_MODEL = 8
SMOKE_WINDOW, SMOKE_HOP = 8, 4


@dataclass
class OpResult:
    """One measured unit: a training.train call or one eval invocation."""

    seconds: float           # wall time inside training.train / cli.main
    op_ms: List[float]       # durations of the ops that completed (steps, or the eval)
    windows: int             # windows trained on or scored
    attempted: int           # ops started: the completed ones plus one that raised
    failed: int = 0          # ops that raised or failed an output check
    errors: List[str] = field(default_factory=list)


def _load_preset(root: str, preset: str, smoke: bool):
    with open(os.path.join(root, "configs", f"{preset}.model.json")) as fh:
        model_doc = json.load(fh)
    with open(os.path.join(root, "configs", f"{preset}.train.json")) as fh:
        train_doc = json.load(fh)
    if smoke:
        model_doc["d_model"] = SMOKE_D_MODEL
        train_doc["max_window"] = SMOKE_WINDOW
    return ModelConfig.from_dict(model_doc), train_doc


def _synth(spec: Spec, model_cfg: ModelConfig, mode: str, seed: int, count: int, smoke: bool):
    cfg = SynthConfig(
        num_classes=model_cfg.num_classes,
        cluster_feature_lens=model_cfg.cluster_feature_lens,
        tracks_per_cluster=spec.tracks_per_cluster,
        t_range=spec.smoke_t_range if smoke else spec.t_range,
        temporal_span=model_cfg.span,
        mode=mode,
    )
    seqs, _ = generate_dataset(cfg, seed, count)
    return seqs


class TrainWorkload:
    """``training.train`` on the cad120 preset.

    A measured run is one ``training.train`` call of as many whole epochs as
    fit the time it is given, as a user runs ``train`` for many epochs at once.
    """

    def __init__(self, spec: Spec, root: str, workdir: str, seed: int, smoke: bool):
        self.spec, self.root, self.workdir, self.seed, self.smoke = spec, root, workdir, seed, smoke
        self.calls = 0

    def setup(self) -> None:
        """Synthesize the data set, build the model and take one warm-up step."""
        model_cfg, train_doc = _load_preset(self.root, self.spec.preset, self.smoke)
        self.model_cfg = model_cfg
        self.train_cfg = training.TrainConfig.from_dict({**train_doc, "seed": self.seed})
        self.data = _synth(self.spec, model_cfg, self.train_cfg.mode, self.seed,
                           TRAIN_SEQUENCES, self.smoke)
        self.model = StgcnModel(model_cfg, seed=self.seed)
        self.initial = {k: v.copy() for k, v in self.model.params.items()}
        # the warm-up step leaves the parameters untouched (no SGD update)
        t0 = time.perf_counter()
        window = training.train_window_sample(
            self.data[0], self.train_cfg.max_window, np.random.default_rng(self.seed))
        tape, _, scores = self.model.forward_taped(window)
        backward(tape, training.sequence_loss(scores, window, self.train_cfg.mode))
        self.epoch_estimate = TRAIN_SEQUENCES * (time.perf_counter() - t0)

    def run_for(self, budget_s: float) -> List[OpResult]:
        epochs = max(1, int(budget_s // self.epoch_estimate))
        cfg = replace(self.train_cfg, epochs=epochs, seed=self.seed + self.calls)
        self.calls += 1
        # a step ends when sgd_step returns and starts when the previous step
        # or the epoch's checkpoint write ended
        stamps: List[tuple] = []
        orig_sgd, orig_save = training.sgd_step, training.save_checkpoint

        def stamped(fn, kind):
            def probe(*args, **kwargs):
                out = fn(*args, **kwargs)
                stamps.append((time.perf_counter(), kind))
                return out
            return probe

        training.sgd_step = stamped(orig_sgd, "step")
        training.save_checkpoint = stamped(orig_save, "save")
        t0 = time.perf_counter()
        try:
            self.model, curve = training.train(
                self.data, self.model_cfg, cfg, out_dir=self.workdir, model=self.model)
        except Exception as exc:  # the steps before it completed; the one that raised failed
            seconds = time.perf_counter() - t0
            op_ms = self._step_ms(t0, stamps)
            return [OpResult(seconds, op_ms, len(op_ms), len(op_ms) + 1, 1,
                             [f"train: {type(exc).__name__}: {exc}"])]
        finally:
            training.sgd_step, training.save_checkpoint = orig_sgd, orig_save
        seconds = time.perf_counter() - t0
        op_ms = self._step_ms(t0, stamps)
        self.last_checkpoint = os.path.join(self.workdir, f"epoch_{epochs - 1:04d}.ckpt")
        errors = []
        if len(curve) != epochs or not all(math.isfinite(p.loss) for p in curve):
            errors.append("non-finite or missing epoch loss")
        return [OpResult(seconds, op_ms, len(op_ms), len(op_ms),
                         len(op_ms) if errors else 0, errors)]

    @staticmethod
    def _step_ms(t0: float, stamps: List[tuple]) -> List[float]:
        op_ms, prev = [], t0
        for t, kind in stamps:
            if kind == "step":
                op_ms.append((t - prev) * 1e3)
            prev = t
        return op_ms

    def final_checks(self) -> List[str]:
        """Checkpoint round-trip and parameter change; both independent of float values."""
        errors = []
        loaded, _, _, _ = training.load_checkpoint(self.last_checkpoint)
        params = self.model.params
        if sorted(loaded.params) != sorted(params) or not all(
            np.array_equal(loaded.params[k], params[k]) for k in params
        ):
            errors.append("checkpoint does not round-trip through load_checkpoint")
        if all(np.array_equal(self.initial[k], params[k]) for k in params):
            errors.append("training left every parameter unchanged")
        return errors


class EvalWorkload:
    """``stacked-stgcn eval`` on a saved charades_vgg model and STGS manifest."""

    def __init__(self, spec: Spec, root: str, workdir: str, seed: int, smoke: bool):
        self.spec, self.root, self.workdir, self.seed, self.smoke = spec, root, workdir, seed, smoke
        self.window, self.hop = (SMOKE_WINDOW, SMOKE_HOP) if smoke else (50, 10)
        self.manifest = os.path.join(workdir, "manifest.json")
        self.checkpoint = os.path.join(workdir, "model.ckpt")
        self.out = os.path.join(workdir, "eval.json")
        self.labels: Optional[Dict[str, np.ndarray]] = None

    def setup(self) -> None:
        """Write the test manifest and checkpoint, then one warm-up forward."""
        model_cfg, train_doc = _load_preset(self.root, self.spec.preset, self.smoke)
        train_cfg = training.TrainConfig.from_dict({**train_doc, "seed": self.seed})
        seqs = _synth(self.spec, model_cfg, train_cfg.mode, self.seed,
                      EVAL_SEQUENCES, self.smoke)
        entries = []
        for i, seq in enumerate(seqs):
            name = f"seq_{i:04d}"
            graph.save_stgs(seq, os.path.join(self.workdir, name))
            entries.append({"path": name, "split": "test"})
        with open(self.manifest, "w") as fh:
            json.dump({"root": ".", "sequences": entries}, fh)
        model = StgcnModel(model_cfg, seed=self.seed)
        training.save_checkpoint(self.checkpoint, model, train_cfg, 0)
        model.forward_scores(graph.slice_sequence(seqs[0], 0, min(self.window, seqs[0].num_steps)))
        self.windows = sum(
            len(evaluate.window_starts(s.num_steps, self.window, self.hop)) for s in seqs)

    def run_for(self, budget_s: float) -> List[OpResult]:
        """Eval invocations until the budget is used up; at least one."""
        results: List[OpResult] = []
        t0 = time.perf_counter()
        while not results or time.perf_counter() - t0 < budget_s:
            results.append(self._invoke())
            if results[-1].failed:
                break
        return results

    def _invoke(self) -> OpResult:
        argv = ["eval", "--manifest", self.manifest, "--checkpoint", self.checkpoint,
                "--out", self.out]
        if self.smoke:
            argv += ["--window", str(self.window), "--hop", str(self.hop)]
        if os.path.exists(self.out):
            os.remove(self.out)
        console = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return OpResult(time.perf_counter() - t0, [], 0, 1, 1,
                            [f"eval raised {type(exc).__name__}: {exc}"])
        seconds = time.perf_counter() - t0
        errors = [f"eval exited {rc}: {console.getvalue().strip()}"] if rc != 0 else self._check()
        return OpResult(seconds, [seconds * 1e3], self.windows, 1, 1 if errors else 0, errors)

    def _check(self) -> List[str]:
        """Finite fused scores; mAP in [0, 1] and equal to mean_ap recomputed."""
        if self.labels is None:
            with open(self.manifest) as fh:
                entries = json.load(fh)["sequences"]
            self.labels = {
                e["path"]: graph.load_stgs(os.path.join(self.workdir, e["path"])).labels
                for e in entries
            }
        with open(self.out) as fh:
            doc = json.load(fh)
        errors = []
        scores, truth = [], []
        for entry in doc["sequences"]:
            if not np.all(np.isfinite(np.asarray(entry["full_scores"], dtype=np.float64))):
                errors.append(f"{entry['path']}: non-finite fused score")
            scores.append(np.asarray(entry["point_scores"], dtype=np.float64))
            truth.append(self.labels[entry["path"]][entry["eval_points"]])
        if len(scores) != len(self.labels):
            errors.append("eval output does not cover every manifest sequence")
            return errors
        m_ap = doc["mAP"]
        recomputed = evaluate.mean_ap(np.vstack(scores), np.vstack(truth))
        if not 0.0 <= m_ap <= 1.0:
            errors.append(f"mAP {m_ap} outside [0, 1]")
        if abs(recomputed - m_ap) > 1e-9:
            errors.append(f"mAP {m_ap} != mean_ap recomputed from point_scores {recomputed}")
        return errors

    def final_checks(self) -> List[str]:
        return []


def make(name: str, root: str, workdir: str, seed: int, smoke: bool):
    spec = SPECS[name]
    cls = TrainWorkload if name.startswith("train") else EvalWorkload
    return cls(spec, root, workdir, seed, smoke)

