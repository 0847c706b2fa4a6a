#!/usr/bin/env python3
"""Test of the benchmark itself, on the fast ``--smoke`` sizes.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

Every workload runs end to end untraced and traced. Each run must print a
final JSON line with exactly the contract's keys, pass its output checks,
and emit exactly the metric names BENCHMARK.json lists for that mode. The
traced run must write its spans and partition one op's duration into layer
self times. A copy holding only BENCHMARK.json and perfbench/ must fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SEED = 3


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, extra=("--smoke",)):
    cmd = _bench()["command"] + ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str) -> None:
    bench = _bench()
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in listed}
        assert set(result["metrics"]) == set(names), (
            sorted(set(result["metrics"]) ^ set(names)))
        for key, metric in result["metrics"].items():
            assert metric["unit"] == names[key], key
            assert isinstance(metric["value"], float), key
    with open(os.path.join(OUT, f"result-{workload}-seed{SEED}-trace1.json")) as fh:
        partition = json.load(fh)["partition"]
    assert partition["gap_ms"] <= 1e-6, partition
    with open(os.path.join(OUT, f"spans-{workload}-seed{SEED}.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and all(
        {"name", "start", "end", "parent", "workload"} <= set(s) for s in spans)
    assert all(s["workload"] == workload and s["end"] >= s["start"] for s in spans)


def test_train_n6():
    check_workload("train-n6")


def test_train_n40():
    check_workload("train-n40")


def test_eval_vgg_t300():
    check_workload("eval-vgg-t300")


def test_fails_without_the_program():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    bench = _bench()
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, bench["workloads"][0]["name"], 0, extra=())
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
