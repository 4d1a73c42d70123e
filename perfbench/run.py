"""polyface benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|face_sweep|geometry \
        --seed N --seconds S --trace 0|1

The op list is made from the seed (workloads.py); a fresh worker process
(worker.py) that imports polyface from ``src/`` runs it in passes for
--seconds.  This process then checks every answer against references that
do not use polyface (refs.py) and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics of a
second, traced pass when --trace is 1.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def run_worker(
    workload: str, inputs: list, warmup: list, seconds: float, trace: bool, seed: int
) -> dict:
    if not (ROOT / "src" / "polyface" / "__init__.py").is_file():
        raise BenchError(f"no polyface sources under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    spans_dir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(exist_ok=True)
    try:
        job = {
            "workload": workload,
            "inputs": inputs,
            "warmup": warmup,
            "seconds": seconds,
            "trace": trace,
            "spans_path": str(spans_dir / f"spans-{workload}-seed{seed}.json"),
        }
        (workdir / "job.json").write_text(json.dumps(job))
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(workdir)],
                cwd=ROOT, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# reference checks: each returns True when the answer is right


def check_certify(op, answer, ctx) -> bool:
    rc, text = answer
    kind = op["input"][0]
    if rc != 0 or refs.report_digest(text) != ctx["digests"].get(json.dumps(op["input"])):
        return False
    report = json.loads(text)
    details = report["details"]
    if not all(a["pass"] for a in report["assertions"]):
        return False
    if kind == "theorem1":
        n = op["input"][1]
        return details["face_size"] == 2 ** n and details["lop_size"] == factorial(2 * n)
    if kind == "dcp":
        m = op["input"][1]
        return (
            details["face_size"] == factorial(m)
            and details["rows"] == m * (m - 1) * (m + 1) // 6
            and details["dcp_size"] == 2 * factorial(m)
        )
    edges = [tuple(e) for e in op["input"][1]]
    return (
        details["stable_size"] == refs.stable_count(4, edges)
        and details["face_size"] == refs.lemma1_face_size(ctx["lop8"], edges)
        and sum(details["fibers"].values()) == details["face_size"]
    )


def check_face_sweep(op, answer, ctx) -> bool:
    kind, host_name, items = op["input"]
    host = ctx["hosts"][host_name]
    if kind == "ineq":
        return answer == [list(host.check_inequality(*form)) for form in items]
    return answer == list(host.extract(items))


def check_geometry(op, answer, ctx) -> bool:
    kind, host_name, *args = op["input"]
    host = ctx["hosts"][host_name]
    cls = op["cls"]
    if kind == "adjacent":
        # every pair of bqp vertices is adjacent (the quadric graph is complete)
        expected = True if host_name == "bqp5" else refs.two_point_adjacent(host.words, *args)
        return answer is expected
    if kind == "face":
        ok, coeffs, beta = answer
        subset = args[0]
        # every 3-subset of bqp vertices is a face; a pair is a face iff it is an edge
        expected = True if host_name == "bqp4" else refs.two_point_adjacent(host.words, *subset)
        if ok is not expected:
            return False
        return not ok or refs.face_certificate_ok(coeffs, beta, subset, host.words, host.dim)
    if cls == "conv_in_lop5":
        return answer is True
    i, j, k = op["meta"]
    # the point breaks y(i,j) + y(j,k) - y(i,k) >= 0, which every vertex keeps
    terms = [[refs.pair_coord(i, j, 5), 1], [refs.pair_coord(j, k, 5), 1],
             [refs.pair_coord(i, k, 5), -1]]
    return answer is False and host.check_inequality(terms, ">=", 0)[0]


CHECKS = {"certify": check_certify, "face_sweep": check_face_sweep, "geometry": check_geometry}


def reference_context(workload: str, hosts: dict) -> dict:
    ctx = {"hosts": hosts}
    if workload == "certify":
        ctx["digests"] = refs.load_digests()
        ctx["lop8"] = refs.lop_words(8)
    return ctx


# ---------------------------------------------------------------------------
# metrics


def op_medians(result: dict) -> list:
    """Each op's latency: its median over the passes."""
    return [statistics.median(times) for times in zip(*result["op_s"])]


def end_to_end(result: dict) -> dict:
    lat = op_medians(result)
    return {
        "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
        "job_s": {"value": sum(lat), "unit": "s"},
        "op_p50_ms": {"value": percentile_ms(lat, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile_ms(lat, 90), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "generators.calls": (calls.get("generators", 0), "count"),
        "generators.vertices": (counts.get("generators.vertices", 0), "count"),
        "generators.self_s": (self_s.get("generators", 0.0), "s"),
        "core.vertexset.calls": (calls.get("core.vertexset", 0), "count"),
        "core.vertexset.self_s": (self_s.get("core.vertexset", 0.0), "s"),
        "core.affine.calls": (calls.get("core.affine", 0), "count"),
        "core.affine.self_s": (self_s.get("core.affine", 0.0), "s"),
        "faces.forms": (counts.get("faces.forms", 0), "count"),
        "faces.words_scanned": (counts.get("faces.words_scanned", 0), "count"),
        "faces.self_s": (self_s.get("faces", 0.0), "s"),
        "faces.face_yield": (
            ratio(counts.get("faces.face_vertices", 0), counts.get("faces.host_vertices", 0)),
            "ratio",
        ),
        "constructions.calls": (calls.get("constructions", 0), "count"),
        "constructions.assertions": (counts.get("constructions.assertions", 0), "count"),
        "constructions.self_s": (self_s.get("constructions", 0.0), "s"),
        "cli.calls": (calls.get("cli", 0), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "geometry.lp.calls": (calls.get("geometry.lp", 0), "count"),
        "geometry.lp.cells": (counts.get("geometry.lp.cells", 0), "count"),
        "geometry.lp.feasible_ratio": (
            ratio(counts.get("geometry.lp.feasible", 0), calls.get("geometry.lp", 0)),
            "ratio",
        ),
        "geometry.lp.self_s": (self_s.get("geometry.lp", 0.0), "s"),
        "geometry.predicate.self_s": (self_s.get("geometry.predicate", 0.0), "s"),
        "host.spin_ms": (result["spin_ms"], "ms"),
        "trace.overhead_ratio": (
            result["traced_job_s"] / sum(op_medians(result)), "ratio"
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def neighbour_ratios(latencies) -> dict:
    """Cost ratio of the ops ranked just above and just below p50 and p90."""
    ordered = sorted(latencies)
    out = {}
    for q in (50, 90):
        rank = q * (len(ordered) - 1) // 100
        out[f"p{q}"] = ordered[rank + 1] / ordered[rank] if ordered[rank] > 0 else 0.0
    return out


def run(
    workload: str, seed: int, n_ops: int, seconds: float, trace: bool, tamper=None
) -> dict:
    """Make, run and check one op list; returns the result object.

    Every pass's answer to every op is checked, so ``attempted`` counts op
    runs: ops × passes, plus ops once more for the traced pass.

    ``tamper``, if given, edits the worker's answers before they are checked;
    the smoke test uses it to show that a wrong answer counts as a failure.
    """
    hosts = {name: refs.Host(name) for name in workloads.HOSTS[workload]}
    ops = workloads.make_ops(workload, seed, n_ops, hosts)
    result = run_worker(
        workload, [op["input"] for op in ops], workloads.warmup_indices(ops), seconds,
        trace, seed,
    )
    if tamper is not None:
        tamper(result)

    ctx = reference_context(workload, hosts)
    check = CHECKS[workload]

    def right(op, answer) -> bool:
        try:
            return check(op, answer, ctx)
        except (KeyError, TypeError, ValueError, IndexError):  # malformed answer
            return False

    runs = result["answers"] + ([result["traced_answers"]] if trace else [])
    failed = sum(
        1 for answers in runs for op, answer in zip(ops, answers) if not right(op, answer)
    )
    hosts_ok = all(result["hosts"][name] == host.digest for name, host in hosts.items())

    print(
        f"# {workload} seed={seed} ops={len(ops)} passes={len(result['pass_s'])} pass_s="
        f"{[round(t, 3) for t in result['pass_s']]} median_pass_s="
        f"{statistics.median(result['pass_s']):.4f} host.spin_ms={result['spin_ms']:.2f} "
        f"neighbour_ratios={json.dumps(neighbour_ratios(op_medians(result)))} "
        f"hosts_ok={hosts_ok}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0 and hosts_ok,
        "attempted": sum(len(answers) for answers in runs),
        "failed": failed,
        "metrics": per_layer(result) if trace else end_to_end(result),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHARES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(
            args.workload, args.seed, workloads.OPS_PER_PASS[args.workload], args.seconds,
            bool(args.trace),
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
