#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, both modes.

    python3 perfbench/smoke_test.py

For each workload of BENCHMARK.json it runs perfbench/run.py with --tiny
for one second, untraced and traced, and asserts that the last stdout line
is the result object with every declared metric under its declared unit
(end-to-end metrics untraced, per-layer metrics traced).  It also checks
that a directory holding only BENCHMARK.json and perfbench/ fails without
printing a result, since the benchmark builds the program from src/.
Correctness failures are reported, not asserted: the gate's job is to
report them, with the failing cells named.  Takes a few minutes, most of
it the first build.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT, timeout=900):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def check_result(proc, declared):
    """@return a list of problems with one run's output."""
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            problems.append("metric %s unit %r, declared %r"
                            % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s value is not a number" % name)
    for name in set(metrics) - set(declared):
        problems.append("metric %s is not declared" % name)
    if not result.get("correct", False):
        print("    note: correct=false; failing cells:")
        for line in lines:
            if line.startswith("# FAILED"):
                print("     ", line)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems = check_result(run(workload, trace), declared[trace])
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)

    # A directory with only BENCHMARK.json and perfbench/ must fail.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare, timeout=180)
    has_result = any(l.startswith("{") for l in proc.stdout.splitlines())
    bare_ok = proc.returncode != 0 and not has_result
    print("bare directory fails without a result: %s"
          % ("ok" if bare_ok else "FAIL"))
    failures += not bare_ok
    shutil.rmtree(bare, ignore_errors=True)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
