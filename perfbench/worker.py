"""One workload run against polyface, in a process of its own.

Usage: python3 perfbench/worker.py WORKDIR

Reads WORKDIR/job.json (written by run.py: workload, op inputs, warm-up op
indices, seconds to run for, trace flag, spans path), writes
WORKDIR/result.json.  This process imports polyface from the checkout's
``src/`` and nothing that checks answers, so its peak RSS and set-up time
belong to the workload alone.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-ups repeated after the job; setup_s is the median of these and the
# first one.
SETUP_REPEATS = 6

# Passes over the op list, at the least, whatever --seconds says: each op's
# latency is a median over the passes.
MIN_PASSES = 3


def spin_ms() -> float:
    """Host-speed probe: median time of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        start = perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


def import_polyface():
    """A fresh import of the package, so every set-up round pays for it."""
    for name in [n for n in sys.modules if n == "polyface" or n.startswith("polyface.")]:
        del sys.modules[name]
    import polyface
    import polyface.cli  # noqa: F401  (the certify ops call it)

    if not Path(polyface.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polyface imported from {polyface.__file__}, not from {SRC}")
    return polyface


# ---------------------------------------------------------------------------
# builders: turn op inputs into (call, summarize) pairs.  ``call`` is the
# timed part; ``summarize`` reduces its result to a small JSON answer.


def build_certify(pf, inputs, workdir: Path):
    graph_files: dict = {}

    def argv_for(inp):
        if inp[0] == "theorem1":
            return ["verify", "theorem1", "--n", str(inp[1]), "--format", "json"]
        if inp[0] == "dcp":
            return ["verify", "dcp", "--m", str(inp[1]), "--max-cols", "60", "--format", "json"]
        edges = inp[1]
        key = "_".join(f"{i}{j}" for i, j in edges) or "none"
        if key not in graph_files:
            path = workdir / f"graph-{key}.txt"
            path.write_text("n 4\n" + "".join(f"{i} {j}\n" for i, j in edges))
            graph_files[key] = str(path)
        return ["verify", "lemma1", "--graph", graph_files[key], "--format", "json"]

    def cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = pf.cli.main(argv)
        return [rc, out.getvalue()]

    return [((lambda argv=argv_for(inp): cli(argv)), None) for inp in inputs], {}


def build_face_sweep(pf, inputs, workdir: Path):
    emb = pf.dcp_embedding(6)
    hosts = {
        "lop8": pf.lop_vertices(8),
        "dcp6": pf.dcp_vertices(emb.matrix, max_cols=60, layout=emb.layout),
    }

    def form(terms, relation, rhs, dim):
        coeffs = [0] * dim
        for coord, coeff in terms:
            coeffs[coord] = coeff
        return pf.LinearForm(tuple(coeffs), relation, rhs)

    def face_op(host, system):
        def call():
            try:
                return pf.extract_face(host, system)
            except pf.NotSupportingError as exc:
                return exc

        def summarize(result):
            if isinstance(result, pf.NotSupportingError):
                index = next(i for i, f in enumerate(system.equalities) if f is result.form)
                return ["reject", index, result.witness.word]
            return [
                "face",
                len(result.face),
                hash(result.face.words),
                [c.direction for c in result.checks],
                [c.attained for c in result.checks],
            ]

        return call, summarize

    def ineq_op(host, forms):
        def call():
            return [pf.is_valid_inequality(f, host) for f in forms]

        def summarize(checks):
            return [[c.valid, c.attained, c.witness.word if c.witness else None] for c in checks]

        return call, summarize

    ops = []
    for kind, host_name, items in inputs:
        host = hosts[host_name]
        dim = host.layout.dim
        if kind == "face":
            eqs = tuple(form(terms, "=", rhs, dim) for terms, rhs in items)
            ops.append(face_op(host, pf.FaceSystem(host.layout, eqs)))
        else:
            ops.append(ineq_op(host, [form(t, rel, rhs, dim) for t, rel, rhs in items]))
    return ops, {name: hash(h.words) for name, h in hosts.items()}


def build_geometry(pf, inputs, workdir: Path):
    hosts = {
        "lop5": pf.lop_vertices(5),
        "bqp5": pf.bqp_vertices(5),
        "bqp4": pf.bqp_vertices(4),
        "lop4": pf.lop_vertices(4),
    }

    def face_summary(result):
        ok, cert = result
        return [ok, list(cert.coeffs), cert.rhs] if cert else [ok, None, None]

    ops = []
    for kind, host_name, *args in inputs:
        host = hosts[host_name]
        dim = host.layout.dim
        if kind == "adjacent":
            u, v = (pf.Vertex01(dim, w) for w in args)
            ops.append((lambda u=u, v=v, h=host: pf.adjacent(u, v, h), None))
        elif kind == "face":
            subset = [pf.Vertex01(dim, w) for w in args[0]]
            ops.append((lambda s=subset, h=host: pf.is_face_subset(s, h), face_summary))
        else:
            point = pf.RationalPoint.of(Fraction(c) for c in args[0])
            ops.append((lambda p=point, h=host: pf.conv_membership(p, h), None))
    return ops, {name: hash(h.words) for name, h in hosts.items()}


BUILDERS = {"certify": build_certify, "face_sweep": build_face_sweep, "geometry": build_geometry}


def run_ops(ops, tracer=None):
    """Run the op list once; returns (wall seconds, per-op seconds, answers)."""
    latencies, answers = [], []
    gc.collect()
    start = perf_counter()
    for index, (call, summarize) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            call = tracer.wrap("bench", "op", call)
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crash is a failed op, not a failed run
            result, summarize = ["error", f"{type(exc).__name__}: {exc}"], None
        latencies.append(perf_counter() - t0)
        answers.append(summarize(result) if summarize else result)
    return perf_counter() - start, latencies, answers


def main(workdir: Path) -> None:
    job = json.loads((workdir / "job.json").read_text())
    build = BUILDERS[job["workload"]]
    inputs = job["inputs"]
    sys.path.insert(0, str(SRC))
    result = {"spin_ms": spin_ms(), "setup_s": []}

    def set_up():
        start = perf_counter()
        pf = import_polyface()
        ops, hosts = build(pf, inputs, workdir)
        result["setup_s"].append(perf_counter() - start)
        return pf, ops, hosts

    # The job runs on the first set-up's objects, in a heap that has held
    # nothing else, as in a user's process.
    pf, ops, result["hosts"] = set_up()

    for index in job["warmup"]:
        call, summarize = ops[index]
        call()
    # The same list runs again while the time left holds one more pass;
    # run.py takes each op's median over the passes, so a burst of load on
    # the host moves one sample, not the result.
    result["pass_s"], result["op_s"], result["answers"] = [], [], []
    start = perf_counter()
    while len(result["pass_s"]) < MIN_PASSES or (
        perf_counter() - start + statistics.median(result["pass_s"]) <= job["seconds"]
    ):
        pass_s, op_s, answers = run_ops(ops)
        result["pass_s"].append(pass_s)
        result["op_s"].append(op_s)
        result["answers"].append(answers)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for _ in range(SETUP_REPEATS):
        ops = None  # let the previous round's objects go before timing the next
        pf, ops, _ = set_up()

    if job["trace"]:
        ops = None
        tracer = tracing.Tracer()
        tracing.install(tracer)
        ops, _ = build(pf, inputs, workdir)
        result["traced_job_s"], _, result["traced_answers"] = run_ops(ops, tracer)
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["spans_path"])

    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
