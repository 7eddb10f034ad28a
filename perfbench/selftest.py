#!/usr/bin/env python3
"""Self-test of the benchmark, about a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload once at reduced size (--quick), untraced and
   traced, and checks that the last line is the result object, that all
   outputs pass, and that every metric BENCHMARK.json names is printed
   with its unit.
2. Runs every workload against a reference with one value corrupted
   per workload and checks that each run reports a failed item.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   the benchmark, and checks that it fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

WORKLOADS = ("scenarios", "loop_sweep")
KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--quick", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if set(result) == KEYS else None


def check_metrics(proc, result, wanted):
    problems = []
    if set(result["metrics"]) != set(wanted):
        problems.append(f"metrics {sorted(result['metrics'])}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                      (int, float)):
            problems.append(f"{name}: {got}")
        if not any(line.startswith(f"{name} = ") and line.endswith(
                f" {unit}") for line in proc.stdout.splitlines()):
            problems.append(f"{name} not printed with unit {unit}")
    return problems


def corrupt(reference):
    """One wrong value per workload, each in what --quick runs."""
    import workloads as w
    reference["scenarios"]["comparator_curve"]["report"]["n_levels"] = 512
    key = w.loop_key(64, -20, "ideal")
    reference["loop_sweep"][key] = [v + 20.0
                                    for v in reference["loop_sweep"][key]]
    return reference


def main():
    root = run.ROOT
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(root, workload, trace)
            result = result_of(proc)
            if result is None:
                failures.append(f"{workload} trace {trace}: no result\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: outputs failed")
            failures += [f"{workload} trace {trace}: {p}"
                         for p in check_metrics(proc, result, units[trace])]

    run.import_program()
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        bad = Path(tmp) / "corrupt.json"
        bad.write_text(json.dumps(corrupt(json.loads(
            run.REFERENCE.read_text()))))
        for workload in WORKLOADS:
            result = result_of(bench(root, workload, 0, "--reference",
                                     str(bad)))
            if result is None or result["correct"] or not result["failed"]:
                failures.append(f"{workload}: corrupted reference passed")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "loop_sweep", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append("benchmark ran without the program")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
