"""Tiny-scale smoke test of the benchmark.

Runs every workload with one op per class and the fewest passes (so every
op class, every reference check and the pass medians run), with and
without tracing, and checks that

* every answer of the program under test matches its reference,
* the printed metric names are exactly those in BENCHMARK.json,
* a tampered answer counts as exactly one failed op,
* in a directory that holds only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Usage (from the root of a checkout): python3 perfbench/smoke.py
Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads
import worker


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def tamper_first(result: dict) -> None:
    result["answers"][0][0] = ["tampered"]


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metric_names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    expect(
        {w["name"] for w in spec["workloads"]} <= set(workloads.SHARES),
        "BENCHMARK.json names a workload that workloads.SHARES lacks",
    )
    for workload, shares in workloads.SHARES.items():
        n = len(shares)
        for trace in (False, True):
            result = run.run(workload, 0, n, 0, trace)
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
            expect(
                result["attempted"] == n * (worker.MIN_PASSES + trace),
                f"{workload}: attempted {result['attempted']}",
            )
            expect(
                set(result["metrics"]) == metric_names[trace],
                f"{workload} trace={trace}: metrics {sorted(result['metrics'])}",
            )
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{workload}: non-numeric metric",
            )
        result = run.run(workload, 0, n, 0, False, tamper=tamper_first)
        expect(
            result["failed"] == 1 and not result["correct"],
            f"{workload}: a tampered answer gave {result['failed']} failures",
        )
        print(f"ok {workload}")

    bare = run.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
