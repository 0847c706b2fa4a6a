"""Command-line surface: synth, ingest, train, infer, eval, gradcheck.

Exit codes: 0 on success, 2 on validation or configuration errors (missing,
truncated or unreadable input files, unwritable outputs, any other OS error,
and inputs such as a huge window that need more memory than there is
included), 3 on numerical failures (NaN loss, failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .config import DictCodec, atomic_write, read_json
from .errors import ContractError, DimensionError, NumericalError, ValidationError
from .evaluate import evaluate_multi, evaluate_single, sliding_infer
from .graph import StgSequence, load_stgs, save_stgs
from .ingest import ingest_cad120_file
from .gradcheck import check_model_gradients
from .model import ModelConfig, StgcnModel
from .synth import SynthConfig, generate_dataset, synth_generate
from .training import TrainConfig, load_checkpoint, train


@dataclass(frozen=True)
class _DatasetEntry(DictCodec):
    path: str
    split: Optional[str] = None


@dataclass(frozen=True)
class _DatasetManifest(DictCodec):
    sequences: Tuple[_DatasetEntry, ...]
    root: str = "."


@dataclass(frozen=True)
class _SynthRun(DictCodec):
    synth: SynthConfig
    train_count: int = 20
    test_count: int = 0

    def __post_init__(self):
        if min(self.train_count, self.test_count) < 0:
            raise ValidationError("train_count and test_count must be >= 0")


def _read(record, path: str, kind: str):
    return record.from_dict(read_json(path), f"{kind} {path}")


def _refuse_overwrite(path: str, force: bool) -> None:
    if force:
        return
    if os.path.isdir(path) and os.listdir(path):
        raise ValidationError(f"output directory {path!r} is not empty (use --force)")
    if os.path.isfile(path):
        raise ValidationError(f"output file {path!r} exists (use --force)")


def _write_json(path: str, doc) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc))


def _load_manifest(path: str, split: Optional[str]) -> List[Tuple[str, StgSequence]]:
    manifest = _read(_DatasetManifest, path, "dataset manifest")
    root = os.path.join(os.path.dirname(path), manifest.root)
    out = [
        (entry.path, load_stgs(os.path.join(root, entry.path)))
        for entry in manifest.sequences
        if split is None or entry.split == split
    ]
    if not out:
        raise ValidationError(f"no sequences for split {split!r} in {path}")
    return out


def cmd_synth(args) -> int:
    run = _read(_SynthRun, args.config, "synth config")
    _refuse_overwrite(args.out, args.force)
    seqs, oracle = generate_dataset(run.synth, args.seed, run.train_count + run.test_count)
    os.makedirs(args.out, exist_ok=True)  # only now: a failed draw leaves no directory
    entries = []
    for i, seq in enumerate(seqs):
        name = f"seq_{i:04d}"
        save_stgs(seq, os.path.join(args.out, name))
        entries.append(_DatasetEntry(name, "train" if i < run.train_count else "test"))
    manifest = _DatasetManifest(sequences=tuple(entries))
    with atomic_write(os.path.join(args.out, "manifest.json")) as fh:
        json.dump(manifest.to_dict(), fh, indent=1, sort_keys=True)
    means = [[m.tolist() for m in row] for row in oracle["means"]]
    with atomic_write(os.path.join(args.out, "oracle.json")) as fh:
        json.dump(dict(oracle, means=means), fh, sort_keys=True)
    print(f"wrote {len(seqs)} sequences to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    seq = ingest_cad120_file(args.input)
    _refuse_overwrite(args.out, args.force)
    save_stgs(seq, args.out)
    print(f"ingested {seq.num_tracks} tracks x {seq.num_steps} segments -> {args.out}")
    return 0


def cmd_train(args) -> int:
    model_cfg = _read(ModelConfig, args.model_config, "model config")
    train_cfg = replace(_read(TrainConfig, args.train_config, "train config"), seed=args.seed)
    data = [seq for _, seq in _load_manifest(args.manifest, "train")]
    _refuse_overwrite(args.out, args.force)
    model, curve = train(data, model_cfg, train_cfg, out_dir=args.out)
    print(f"trained {train_cfg.epochs} epochs; final loss {curve[-1].loss:.6f}")
    return 0


def cmd_infer(args) -> int:
    model, train_cfg, _, _ = load_checkpoint(args.checkpoint)
    data = _load_manifest(args.manifest, args.split)
    result = []
    for path, seq in data:
        timeline = sliding_infer(seq, model, window=args.window, hop=args.hop)
        result.append(
            {
                "path": path,
                "scores": timeline.scores.tolist(),
                "coverage": timeline.coverage.tolist(),
            }
        )
    _write_json(args.out, {"sequences": result})
    print(f"wrote fused score timelines for {len(result)} sequences to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, train_cfg, _, _ = load_checkpoint(args.checkpoint)
    data = _load_manifest(args.manifest, args.split)
    seqs = [seq for _, seq in data]
    mode = seqs[0].mode
    for path, seq in data:
        if seq.mode != mode:
            raise ValidationError(
                f"sequence {path} has label mode {seq.mode!r}, but {data[0][0]} has {mode!r}; "
                "eval needs one label mode per manifest split"
            )
    if mode == "single":
        metrics = evaluate_single(
            seqs, model, window=args.window, hop=args.hop, per_frame=args.per_frame
        )
    else:
        metrics = evaluate_multi(seqs, model, window=args.window, hop=args.hop)
        # name each sequence's score details by its STGS path
        metrics["sequences"] = [
            {"path": path, **details} for (path, _), details in zip(data, metrics["sequences"])
        ]
    _write_json(args.out, metrics)
    key = "macro_f1" if mode == "single" else "mAP"
    print(f"{key}: {metrics[key]:.4f} -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.model_config:
        model_cfg = _read(ModelConfig, args.model_config, "model config")
        synth_cfg = SynthConfig(
            num_classes=model_cfg.num_classes,
            cluster_feature_lens=model_cfg.cluster_feature_lens,
            t_range=(8, 8),
            temporal_span=model_cfg.span,
            mode=model_cfg.head_mode,
        )
    else:
        model_cfg = ModelConfig(
            cluster_feature_lens=(4, 6),
            num_classes=3,
            d_model=8,
            levels=2,
            stack_depth=2,
            span=3,
        )
        synth_cfg = SynthConfig(
            num_classes=3, cluster_feature_lens=(4, 6), t_range=(8, 8), mode="single"
        )
    seq, _ = synth_generate(synth_cfg, args.seed)
    model = StgcnModel(model_cfg, seed=args.seed)
    reports = check_model_gradients(model, seq, model_cfg.head_mode, seed=args.seed)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        kinks = f", {r.kinked} skipped across a ReLU kink" if r.kinked else ""
        print(
            f"{status:4s} {r.name}: {r.rel_ok}/{r.checked} within relative tolerance, "
            f"max abs err {r.max_abs_err:.2e}{kinks}"
        )
    if failed:
        raise NumericalError(f"{len(failed)} parameter(s) failed the gradient check")
    print(f"all {len(reports)} parameters passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacked-stgcn",
        description="Stacked hourglass spatio-temporal GCN for action segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert a feature table to STGS")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-config", required=True)
    p.add_argument("--train-config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="sliding-window inference")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--hop", type=int, default=10)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="evaluate a checkpoint (F1 or mAP)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--hop", type=int, default=10)
    p.add_argument("--per-frame", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model-config")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        # non-finite values are checked where they matter and exit 3 with one
        # message; numpy's own overflow warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValidationError, ContractError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a window too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
