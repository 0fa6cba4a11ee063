#!/usr/bin/env python3
"""Smoke test of Veil-Bench at reduced size.

    python3 perfbench/smoke.py --exe _build/default/perfbench/veilbench.exe \
        --benchmark BENCHMARK.json

For every workload, with tracing off and on (--small, no time budget):
  * the last stdout line parses as the result object, with exactly the
    keys correct/attempted/failed/metrics, correct=true and failed=0;
  * its metrics are exactly BENCHMARK.json's end_to_end (trace 0) or
    per_layer (trace 1) names, with the same units, each printed on a
    human-readable line with its unit; end-to-end values are never 0;
  * the traced run reproduces the untraced run's simulated figures;
and every correctness oracle, fed one deliberately corrupted expected
value, fails the run (exit 1, correct=false, failed > 0).  Finally the
launcher must fail, without a result, in a directory holding only
BENCHMARK.json and the benchmark's files.  Prints nothing on success.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ORACLES = {
    "audit-smp": ["getpid", "read-content", "slog-chain", "slog-count"],
    "enclave-sql": ["sql-reference", "encsvc-degraded"],
    "fleet-http": ["fleet-served", "fleet-slog", "fleet-log-fetch"],
}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)


def run(exe, out_dir, workload, trace, corrupt=None):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--small", "--out", out_dir]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p, lines, result


def simulated(lines):
    return [l for l in lines if l.startswith("simulated:")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", required=True)
    ap.add_argument("--benchmark", required=True)
    args = ap.parse_args()
    exe = os.path.abspath(args.exe)
    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    check({w["name"] for w in bench["workloads"]} == set(ORACLES), "workloads differ from BENCHMARK.json")
    out_dir = tempfile.mkdtemp(prefix="veilbench-smoke-")
    try:
        for workload in ORACLES:
            sims = {}
            for trace in (0, 1):
                tag = f"{workload} trace={trace}"
                p, lines, result = run(exe, out_dir, workload, trace)
                check(p.returncode == 0, f"{tag}: exit {p.returncode}: {p.stderr[-500:]}")
                if result is None:
                    check(False, f"{tag}: last line is not JSON")
                    continue
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
                check(result.get("correct") is True and result.get("failed") == 0, f"{tag}: not correct")
                check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, f"{tag}: attempted")
                metrics = result.get("metrics", {})
                want = {m["name"]: m["unit"] for m in specs[trace]}
                check(set(metrics) == set(want), f"{tag}: metric names {sorted(set(metrics) ^ set(want))}")
                for name, unit in want.items():
                    m = metrics.get(name, {})
                    v = m.get("value")
                    check(set(m) == {"value", "unit"} and m.get("unit") == unit, f"{tag}: {name} unit")
                    check(isinstance(v, (int, float)) and math.isfinite(v), f"{tag}: {name} value")
                    if trace == 0:
                        check(isinstance(v, (int, float)) and v > 0, f"{tag}: {name} is 0")
                    check(any(l.split()[:1] == [name] and unit in l.split() for l in lines[:-1]),
                          f"{tag}: {name} not printed with its unit")
                sims[trace] = simulated(lines)
            check(len(sims.get(0, [])) == 1 and sims.get(0) == sims.get(1),
                  f"{workload}: traced simulated figures differ: {sims}")
            for oracle in ORACLES[workload]:
                tag = f"{workload} --corrupt {oracle}"
                p, _, result = run(exe, out_dir, workload, 0, corrupt=oracle)
                check(p.returncode == 1, f"{tag}: exit {p.returncode}, want 1")
                check(result is not None and result.get("correct") is False and result.get("failed", 0) > 0,
                      f"{tag}: oracle did not fire")
        # the launcher in a directory with only BENCHMARK.json and perfbench/
        bare = tempfile.mkdtemp(prefix="veilbench-bare-")
        try:
            here = os.path.dirname(os.path.abspath(__file__))
            shutil.copytree(here, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(args.benchmark, os.path.join(bare, "BENCHMARK.json"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit-smp", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True, timeout=170)
            check(p.returncode != 0, "bare directory: launcher exited 0")
            check("correct" not in p.stdout, "bare directory: launcher printed a result")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
