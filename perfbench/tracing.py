"""Span tracing from outside the program.

``install`` rebinds polyface's public functions to timing wrappers in every
polyface module namespace that holds them, and wraps the few methods that
carry the core layer's work.  Each call records a span (name, start, end,
parent, op); spans stay in memory until ``write_spans``.  Count hooks add
exact work counts at the same boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import bisect
import json
import sys
from collections import Counter
from time import perf_counter

# (layer, module, function names, count hook name)
FUNCTIONS = [
    ("generators", "polyface.generators",
     ["bqp_vertices", "lop_vertices", "lop_vertices_oracle", "stable_vertices",
      "dcp_vertices", "dcp_vertices_naive"], "vertices"),
    ("faces", "polyface.faces", ["is_valid_inequality"], "scan"),
    ("faces", "polyface.faces", ["extract_face"], "extract"),
    ("faces", "polyface.faces", ["three_cycle_forms"], None),
    ("constructions", "polyface.constructions",
     ["theorem1_verify", "lemma1_verify", "dcp_verify"], "assertions"),
    ("constructions", "polyface.constructions",
     ["theorem1_system", "theorem1_project", "theorem1_lift", "lemma1_system",
      "lemma1_project", "lemma1_lift", "dcp_embedding", "dcp_face_system"], None),
    ("cli", "polyface.cli", ["main"], None),
    ("geometry.lp", "polyface.geometry", ["lp_feasible"], "lp"),
    ("geometry.predicate", "polyface.geometry",
     ["conv_membership", "adjacent", "is_face_subset", "clique_check"], None),
]

# (layer, module, class, method names)
METHODS = [
    ("core.vertexset", "polyface.core", "VertexSet", ["__init__", "from_words", "restrict_to_words"]),
    ("core.affine", "polyface.core", "AffineMapQ", ["apply"]),
]


def _count_vertices(counts, args, result):
    counts["generators.vertices"] += len(result)


def _count_scan(counts, args, result):
    vset = args[1]
    counts["faces.forms"] += 1
    if result.valid:
        counts["faces.words_scanned"] += len(vset)
    else:
        counts["faces.words_scanned"] += bisect.bisect_left(vset.words, result.witness.word) + 1


def _count_extract(counts, args, result):
    vset = args[0]
    counts["faces.words_scanned"] += len(vset)
    counts["faces.host_vertices"] += len(vset)
    counts["faces.face_vertices"] += len(result.face)


def _count_assertions(counts, args, result):
    counts["constructions.assertions"] += len(result.assertions)


def _count_lp(counts, args, result):
    problem = args[0]
    counts["geometry.lp.cells"] += len(problem.constraints) * problem.variables
    counts["geometry.lp.feasible"] += result.status in ("feasible", "optimal")


HOOKS = {
    "vertices": _count_vertices,
    "scan": _count_scan,
    "extract": _count_extract,
    "assertions": _count_assertions,
    "lp": _count_lp,
}


class Tracer:
    def __init__(self):
        # span: [layer, name, start, end, parent index, op]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([layer, name, perf_counter(), 0.0, parent, self.op])

    def _close(self):
        self.spans[self._stack.pop()][3] = perf_counter()

    def wrap(self, layer: str, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Calls and self time per layer, plus the hooks' counts."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (layer, name, start, end, parent, op), covered in zip(self.spans, child):
            calls[layer] += 1
            self_s[layer] += end - start - covered
        return {"calls": calls, "self_s": self_s, "counts": self.counts}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["layer", "name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
            )


def install(tracer: Tracer) -> None:
    """Rebind polyface's public functions and core methods to ``tracer``."""
    modules = [m for n, m in sys.modules.items() if n == "polyface" or n.startswith("polyface.")]
    for layer, module, names, hook in FUNCTIONS:
        for name in names:
            original = getattr(sys.modules[module], name)
            traced = tracer.wrap(layer, name, original, HOOKS.get(hook))
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, traced)
    for layer, module, cls_name, names in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        for name in names:
            attr = cls.__dict__[name]
            qualname = f"{cls_name}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(layer, qualname, attr.__func__)))
            else:
                setattr(cls, name, tracer.wrap(layer, qualname, attr))
