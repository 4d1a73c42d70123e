"""Regenerate report_digests.json: the SHA-256 of the canonical JSON report
of every certify op input (theorem1 n=4, dcp m=6, lemma1 on each of the 64
graphs on 4 vertices).

Usage (from the root of a checkout): python3 perfbench/make_digests.py

Run it only when a change to the report bytes is intended; the benchmark
counts any other change to them as a failed op.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

import refs
import worker


def all_inputs() -> list:
    pairs = list(itertools.combinations(range(1, 5), 2))
    graphs = [
        [list(p) for p, keep in zip(pairs, mask) if keep]
        for mask in itertools.product((0, 1), repeat=len(pairs))
    ]
    return [["theorem1", 4], ["dcp", 6]] + [["lemma1", edges] for edges in graphs]


def main() -> None:
    sys.path.insert(0, str(worker.SRC))
    pf = worker.import_polyface()
    workdir = worker.HERE.parent / ".perfbench_tmp" / "digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = all_inputs()
        ops, _ = worker.build_certify(pf, inputs, workdir)
        digests = {}
        for inp, (call, _) in zip(inputs, ops):
            rc, text = call()
            if rc != 0:
                raise SystemExit(f"{inp} exited with {rc}")
            digests[json.dumps(inp)] = refs.report_digest(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
