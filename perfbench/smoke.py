#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny size, traced and
untraced, plus a run where the sources are missing.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is the result object with
correct, attempted and failed set, and that it carries exactly the metrics
BENCHMARK.json names, each with its declared unit and a finite value. The
run without sources must exit non-zero and print no result. Exits 1 on the
first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check(bench, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        return f"failed checks: {result}"
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        return (f"missing {sorted(set(declared) - set(got))}, "
                f"extra {sorted(set(got) - set(declared))}")
    for name, unit in declared.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            return f"{name} unit {got[name]['unit']!r}, declared {unit!r}"
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return f"{name} value {value!r}"
        if f"{name} " not in proc.stdout:
            return f"{name} is not printed by name"
    return None


def check_without_sources():
    """In a directory with only BENCHMARK.json and perfbench/, the run must
    fail before printing a result."""
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "trunk-train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return f"exit {proc.returncode} with stdout {proc.stdout[-300:]!r}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            err = check(bench, w["name"], trace)
            print(f"{w['name']} trace {trace}: {err or 'ok'}", flush=True)
            problems += err is not None
    err = check_without_sources()
    print(f"without sources: {err or 'ok'}")
    problems += err is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
