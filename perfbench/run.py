#!/usr/bin/env python3
"""Benchmark of the stacked-stgcn library: training steps and ``eval``.

Run from the repository root:

    python3 perfbench/run.py --workload train-n6 --seed 1 --seconds 20 --trace 0

Workloads: ``train-n6``, ``train-n40`` and ``eval-vgg-t300`` (see
``perfbench/README.md``); ``--workload all`` runs the three in turn. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs half its time untraced and half traced,
reports the per-layer metrics from the traced half plus the tracing overhead,
and writes its spans to ``.perfbench_out/``. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
``--smoke`` shrinks d_model and T so every workload finishes in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train-n6", "train-n40", "eval-vgg-t300")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": _nproc(),
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it, but never below the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(work, seconds: float, trace: bool):
    """Run the workload for about ``seconds``; with tracing, half untraced, half traced.

    Returns (untraced results, traced results, tracer).
    """
    from tracing import Tracer

    if not trace:
        return work.run_for(seconds), [], None
    tracer = Tracer()
    plain = work.run_for(seconds / 2)
    tracer.install()
    try:
        traced = work.run_for(seconds / 2)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def end_to_end(setup_s, results, name: str) -> dict:
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
           "process high-water mark")
    op_ms = [x for r in results for x in r.op_ms]
    if not op_ms:  # nothing to time; the result is already marked failed
        return {"setup_s": (statistics.median(setup_s), "s"), "peak_rss_mb": rss}
    p_tail, pct = tail(op_ms)
    n = len(op_ms)
    op = "optimizer step" if name.startswith("train") else "eval invocation"
    windows = sum(r.windows for r in results)
    busy = sum(r.seconds for r in results)
    return {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "op_ms_p50": (statistics.median(op_ms), "ms", f"median {op}, n={n}"),
        "op_ms_tail": (p_tail, "ms", f"p{pct:.0f} {op}, n={n}"),
        "windows_per_s": (windows / busy, "1/s", f"{windows} windows in {busy:.2f} s"),
        "peak_rss_mb": rss,
    }


def per_layer(tracer, plain, traced, name: str):
    """Per-layer metrics per traced op, plus the partition check of one op."""
    from tracing import LAYERS

    root_name = "training.step" if name.startswith("train") else "cli.main"
    roots = [i for i, s in enumerate(tracer.spans) if s.name == root_name]
    ops = sum(len(r.op_ms) for r in traced)
    if not roots or not ops or not any(r.op_ms for r in plain):
        return {}, None, [f"no traced {root_name} completed"]
    self_t = tracer.self_times()
    dur, self_by_name, self_by_layer = {}, {}, {layer: 0.0 for layer in LAYERS}
    for s, st in zip(tracer.spans, self_t):
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + st
        self_by_layer[s.name.split(".")[0]] += st
    c = tracer.counts
    builds = c["graph.build_adjacency.calls"]
    forwards = c["model.forward_taped.calls"]

    def ms(span):
        return (dur.get(span, 0.0) * 1e3 / ops, "ms")

    def self_ms(span):
        return (self_by_name.get(span, 0.0) * 1e3 / ops, "ms")

    m = {
        "tensor.backward.ms": ms("tensor.backward"),
        "tensor.records": (c["tensor.records"] / forwards if forwards else 0.0, "count"),
        "tensor.matmul.calls": (c["tensor.matmul.calls"] / ops, "count"),
        "tensor.matmul.gflop": (c["tensor.matmul.gflop"] / ops, "GFLOP"),
        "graph.build_adjacency.ms": ms("graph.build_adjacency"),
        "graph.build_adjacency.calls": (builds / ops, "count"),
        "graph.adjacency.mb": (c["graph.adjacency.mb"] / builds if builds else 0.0, "MB"),
        "graph.build_adjacency.useful_ratio": (
            tracer.useful_ratio(roots, "graph.build_adjacency"), "ratio"),
        "hourglass.build_level_adjacency.ms": ms("hourglass.build_level_adjacency"),
        "layers.normalize_adjacency.ms": ms("layers.normalize_adjacency"),
        "hourglass.temporal_conv_flat.ms": ms("hourglass.temporal_conv_flat"),
        "hourglass.temporal_deconv_flat.ms": ms("hourglass.temporal_deconv_flat"),
        "layers.stgcn_layer.ms": ms("layers.stgcn_layer"),
        "layers.stgcn_layer.calls": (c["layers.stgcn_layer.calls"] / ops, "count"),
        "layers.subtract_mean.ms": ms("layers.subtract_mean"),
        "hourglass.head_forward.ms": ms("hourglass.head_forward"),
        "model.forward_taped.ms": ms("model.forward_taped"),
        # the model module's own code in a forward: the closure runs inside hourglass spans
        "model.forward_taped.self_ms": (
            self_ms("model.forward_taped")[0] + self_ms("model.first_layer")[0], "ms"),
        "model.first_layer.ms": ms("model.first_layer"),
        "model.forward_scores.calls": (c["model.forward_scores.calls"] / ops, "count"),
        "training.sequence_loss.ms": ms("training.sequence_loss"),
        "training.sgd_step.ms": ms("training.sgd_step"),
        "training.save_checkpoint.ms": ms("training.save_checkpoint"),
        "training.load_checkpoint.ms": ms("training.load_checkpoint"),
        "graph.load_stgs.ms": ms("graph.load_stgs"),
        "graph.slice_sequence.ms": ms("graph.slice_sequence"),
        "evaluate.sliding_infer.ms": ms("evaluate.sliding_infer"),
        "evaluate.sliding_infer.calls": (c["evaluate.sliding_infer.calls"] / ops, "count"),
        "evaluate.sliding_infer.useful_ratio": (
            tracer.useful_ratio(roots, "evaluate.sliding_infer"), "ratio"),
        "evaluate.evaluate_multi.self_ms": self_ms("evaluate.evaluate_multi"),
        "cli.eval.self_ms": self_ms("cli.eval"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_by_layer[layer] * 1e3 / ops, "ms")
    plain_ms = statistics.median(x for r in plain for x in r.op_ms)
    traced_ms = statistics.median(x for r in traced for x in r.op_ms)
    m["trace.overhead_pct"] = ((traced_ms / plain_ms - 1.0) * 100.0, "%")
    m["trace.spans"] = (len(tracer.spans) / ops, "count")

    # one traced op: its layers' self times must add up to its duration
    root = roots[0]
    span = tracer.spans[root]
    partition = tracer.layer_partition(root, self_t)
    gap = abs(sum(partition.values()) - (span.end - span.start))
    check = {"span": root_name, "duration_ms": (span.end - span.start) * 1e3,
             "self_ms": {k: v * 1e3 for k, v in sorted(partition.items())}, "gap_ms": gap * 1e3}
    errors = [] if gap <= 1e-9 else [f"layer self times miss the {root_name} duration by {gap} s"]
    return m, check, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        codes = [subprocess.run([sys.executable, __file__, "--workload", w] + rest).returncode
                 for w in WORKLOADS]
        return max(codes)

    for var in THREAD_VARS:
        os.environ.setdefault(var, str(_nproc()))
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "stacked_stgcn")) or not os.path.isdir(
        os.path.join(ROOT, "configs")
    ):
        print(f"error: no stacked_stgcn source tree and configs/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        work = workloads.make(args.workload, ROOT, workdir, args.seed, args.smoke)
        setup_s = []
        for _ in range(workloads.SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            work.setup()
            setup_s.append(time.perf_counter() - t0)
        plain, traced, tracer = measure(work, args.seconds, bool(args.trace))
        results = plain + traced
        errors = [e for r in results for e in r.errors]
        failed = sum(r.failed for r in results)
        attempted = max(1, sum(r.attempted for r in results))
        if not failed:
            errors += work.final_checks()
            if errors:
                failed = attempted
        check = None
        if args.trace:
            metrics, check, trace_errors = per_layer(tracer, plain, traced, args.workload)
            errors += trace_errors
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                         args.workload)
        else:
            metrics = end_to_end(setup_s, plain, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit, *note) in metrics.items():
        print(f"  {key:40s} {value:14.4f} {unit:6s} {note[0] if note else ''}")
    print(f"  {'fail_ratio':40s} {failed}/{attempted}")
    if check:
        print(f"  partition of one {check['span']} ({check['duration_ms']:.3f} ms, "
              f"gap {check['gap_ms']:.2e} ms): "
              + ", ".join(f"{k} {v:.3f}" for k, v in check["self_ms"].items()))
    for e in errors:
        print(f"  check failed: {e}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "env": env, "errors": errors, "partition": check,
                   "setup_s": setup_s, "op_ms": [r.op_ms for r in results],
                   "notes": {k: v[2] for k, v in metrics.items() if len(v) > 2}}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
