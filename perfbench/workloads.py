"""Seeded op lists for the three workloads.

Each workload is a fixed mix of op classes.  A class's share of the list is
fixed, so the seed changes which graphs, equalities, vertex pairs and points
are drawn, and the order they run in, but not how many ops of each kind run.
The shares are chosen so that the class boundaries in the sorted latency
list sit well away from the p50 and p90 ranks: a percentile then never falls
on the step between a cheap class and a dearer one.

An op is a dict: ``cls`` names its class, ``input`` is what the worker
receives (JSON, no expected answer), ``meta`` stays with the parent for the
reference check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from refs import pair_coord, two_point_adjacent

# Class shares per workload, cheaper classes first (see README.md for the
# per-class costs on polyface 0.1.0 behind these numbers).
SHARES = {
    "certify": {"dcp": 0.20, "lemma1": 0.50, "theorem1": 0.30},
    "face_sweep": {"face_dcp6": 0.10, "reject_lop8": 0.15, "ineq_lop8": 0.15, "face_lop8": 0.60},
    # The heavy-tailed classes (face3_bqp4, conv_in_lop5, face2_lop4) get 1%
    # each: one input can cost 40x another, so with larger shares job_s and
    # op_p90_ms would depend on the seed.  p50 falls in the ~2 ms cluster of
    # cheap adjacency and membership calls, p90 in the dense middle of
    # adj_no_lop5 (~25 ms).
    "geometry": {
        "adj_bqp5": 0.23,
        "conv_out_lop5": 0.25,
        "adj_yes_lop5": 0.25,
        "face3_bqp4": 0.01,
        "adj_no_lop5": 0.24,
        "conv_in_lop5": 0.01,
        "face2_lop4": 0.01,
    },
}

# Ops in one pass of the list.  The list is fixed for a seed; the worker
# runs it in passes until --seconds are used up (at least three times), and
# each op's latency is its median over the passes, so a burst of load on the
# host moves one sample, not the result.  certify's inputs barely depend on
# the seed (three fixed commands, lemma1 graphs of similar cost), so its
# pass is short (~9 s) and it gets more passes; geometry's costs depend on
# the inputs drawn, so its pass holds more ops (~12 s).  face_sweep's pass
# takes ~10 s.
OPS_PER_PASS = {"certify": 24, "face_sweep": 160, "geometry": 1000}

HOSTS = {
    "certify": (),
    "face_sweep": ("lop8", "dcp6"),
    "geometry": ("lop5", "bqp5", "bqp4", "lop4"),
}


def class_counts(shares: dict, n: int) -> dict:
    """Fixed per-class counts summing to n; every class gets at least one op
    once n reaches the number of classes."""
    counts = {c: max(1, int(s * n)) for c, s in shares.items()}
    largest = max(shares, key=shares.get)
    counts[largest] += n - sum(counts.values())
    return counts


def make_ops(workload: str, seed: int, n: int, hosts: dict) -> list[dict]:
    """The op list for one run; ``hosts`` maps host names to reference
    ``refs.Host`` objects (geometry draws verdict-stratified pairs)."""
    rng = random.Random(f"{workload}:{seed}")
    gen = GENERATORS[workload]
    ops = []
    for cls, count in class_counts(SHARES[workload], n).items():
        ops.extend({"cls": cls, **gen(cls, rng, hosts)} for _ in range(count))
    rng.shuffle(ops)
    return ops


def warmup_indices(ops: list[dict]) -> list[int]:
    """The first op of each class; run once, untimed, before the job."""
    seen = {}
    for index, op in enumerate(ops):
        seen.setdefault(op["cls"], index)
    return sorted(seen.values())


# ---------------------------------------------------------------------------
# certify: cold `polyface verify` runs through the in-process CLI


def certify_op(cls, rng, hosts):
    if cls == "theorem1":
        return {"input": ["theorem1", 4], "meta": None}
    if cls == "dcp":
        return {"input": ["dcp", 6], "meta": None}
    # Any graph but the edgeless one, whose face is all of lop(8): it would
    # set the peak RSS of the runs that happen to draw it.
    edges = []
    while not edges:
        edges = [e for e in itertools.combinations(range(1, 5), 2) if rng.random() < 0.5]
    return {"input": ["lemma1", [list(e) for e in edges]], "meta": None}


# ---------------------------------------------------------------------------
# face_sweep: face systems and validity checks on cached hosts


def lop8_tight(rng):
    """A supporting equality of lop(8): a three-cycle form at 0 or 1, or a
    coordinate at 0 or 1."""
    if rng.random() < 0.7:
        i, j, k = sorted(rng.sample(range(1, 9), 3))
        terms = [[pair_coord(i, j, 8), 1], [pair_coord(j, k, 8), 1], [pair_coord(i, k, 8), -1]]
    else:
        i, j = sorted(rng.sample(range(1, 9), 2))
        terms = [[pair_coord(i, j, 8), 1]]
    return [terms, rng.randint(0, 1)]


def distinct(draw, rng, k: int) -> list:
    """k equalities on pairwise different coordinate sets, so that no system
    repeats or contradicts a form and face sizes stay near |V| / 2^k (the
    largest face sets the run's peak RSS)."""
    eqs: dict = {}
    while len(eqs) < k:
        terms, rhs = draw(rng)
        eqs.setdefault(frozenset(coord for coord, _ in terms), [terms, rhs])
    return list(eqs.values())


def lop8_non_supporting(rng):
    """y(a) + y(b) = 1 for two distinct pairs: 0, 1 and 2 all occur on
    lop(8), so neither relaxation is valid."""
    a, b = rng.sample(range(28), 2)
    return [[[a, 1], [b, 1]], 1]


def dcp6_tight(rng):
    """A supporting equality of the 52-column dcp(6) host: a column at 0 or
    1, or two columns summing to 0 or 2."""
    if rng.random() < 0.5:
        return [[[rng.randrange(52), 1]], rng.randint(0, 1)]
    a, b = rng.sample(range(52), 2)
    return [[[a, 1], [b, 1]], rng.choice((0, 2))]


def face_sweep_op(cls, rng, hosts):
    if cls == "face_lop8":
        eqs = distinct(lop8_tight, rng, rng.randint(2, 4))
        return {"input": ["face", "lop8", eqs], "meta": None}
    if cls == "reject_lop8":
        eqs = distinct(lop8_tight, rng, rng.randint(1, 3))
        return {"input": ["face", "lop8", eqs + [lop8_non_supporting(rng)]], "meta": None}
    if cls == "face_dcp6":
        eqs = distinct(dcp6_tight, rng, rng.randint(2, 4))
        return {"input": ["face", "dcp6", eqs], "meta": None}
    # ineq_lop8: three valid three-cycle inequalities and one tightened,
    # invalid one, in random order
    forms = []
    for valid in rng.sample([True, True, True, False], 4):
        i, j, k = sorted(rng.sample(range(1, 9), 3))
        terms = [[pair_coord(i, j, 8), 1], [pair_coord(j, k, 8), 1], [pair_coord(i, k, 8), -1]]
        relation = rng.choice(("<=", ">="))
        rhs = (1 if relation == "<=" else 0) if valid else (0 if relation == "<=" else 1)
        forms.append([terms, relation, rhs])
    return {"input": ["ineq", "lop8", forms], "meta": None}


# ---------------------------------------------------------------------------
# geometry: LP predicates on small hosts


def lop5_pair(rng, hosts, adjacent: bool):
    """A pair of lop(5) vertices whose reference verdict is ``adjacent``."""
    words = hosts["lop5"].words
    while True:
        u, v = rng.sample(words, 2)
        if two_point_adjacent(words, u, v) == adjacent:
            return sorted((u, v))


def lop5_point(rng, hosts, inside: bool):
    """A weighted mean of three lop(5) vertices; for an outside point, a
    triple (i, j, k) is then set to y(i,j) = y(j,k) = 0, y(i,k) = 1, which
    breaks the valid inequality y(i,j) + y(j,k) - y(i,k) >= 0."""
    words = rng.sample(hosts["lop5"].words, 3)
    weights = [rng.randint(1, 4) for _ in words]
    total = sum(weights)
    coords = [
        Fraction(sum(wt for wt, w in zip(weights, words) if (w >> (9 - c)) & 1), total)
        for c in range(10)
    ]
    meta = None
    if not inside:
        i, j, k = sorted(rng.sample(range(1, 6), 3))
        coords[pair_coord(i, j, 5)] = Fraction(0)
        coords[pair_coord(j, k, 5)] = Fraction(0)
        coords[pair_coord(i, k, 5)] = Fraction(1)
        meta = [i, j, k]
    return [str(c) for c in coords], meta


def geometry_op(cls, rng, hosts):
    if cls in ("adj_yes_lop5", "adj_no_lop5"):
        u, v = lop5_pair(rng, hosts, cls == "adj_yes_lop5")
        return {"input": ["adjacent", "lop5", u, v], "meta": None}
    if cls == "adj_bqp5":
        u, v = sorted(rng.sample(hosts["bqp5"].words, 2))
        return {"input": ["adjacent", "bqp5", u, v], "meta": None}
    if cls == "face3_bqp4":
        subset = sorted(rng.sample(hosts["bqp4"].words, 3))
        return {"input": ["face", "bqp4", subset], "meta": None}
    if cls == "face2_lop4":
        subset = sorted(rng.sample(hosts["lop4"].words, 2))
        return {"input": ["face", "lop4", subset], "meta": None}
    coords, meta = lop5_point(rng, hosts, cls == "conv_in_lop5")
    return {"input": ["conv", "lop5", coords], "meta": meta}


GENERATORS = {"certify": certify_op, "face_sweep": face_sweep_op, "geometry": geometry_op}
