"""Pins the exact answers of the rational simplex.

Where a program has several optimal or feasible points, the one returned
depends on the pivot sequence, which no other test fixes.  The SHA-256
values below were recorded from a solver whose answers are audited by
substitution; any change to Bland's entering rule, the leaving tie-break,
the column order of the standard form or the pivot arithmetic shows here.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from polyface import (
    LPConstraint,
    LPProblem,
    adjacent,
    bqp_vertices,
    is_face_subset,
    lop_vertices,
    lp_feasible,
)

RANDOM_LPS = "b8f747d28e82409567e3b8ed842ef218f5a0a3582e422cbc9c4bc6b4077ddf13"
FACE_CERTIFICATES = "31fb0c063218983bb9624a5a02d86b3b8b1754188bb0c0b175a5fd17b78e94c6"
ADJACENCY = "500b213b0c5d3ba15b00d3ffeaec96903362be011944fcb437c69567b6ecb3d7"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_problem(rng: random.Random) -> LPProblem:
    """One small program: free or nonnegative variables, every relation,
    integer or fractional right-hand sides, with or without an objective."""
    nvars = rng.randint(0, 4)
    constraints = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
        rhs = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 3)))
        constraints.append(LPConstraint(coeffs, rng.choice(("<=", ">=", "=")), rhs))
    if rng.random() < 0.25:
        # A scaled copy of an equality makes a redundant row for phase one.
        con = rng.choice(constraints)
        k = rng.choice((1, 2, -1))
        constraints.append(
            LPConstraint(tuple(k * c for c in con.coeffs), "=", k * con.rhs)
        )
    objective = None
    if rng.random() < 0.5:
        objective = tuple(rng.randint(-3, 3) for _ in range(nvars))
    return LPProblem(
        nvars,
        tuple(constraints),
        objective=objective,
        sense=rng.choice(("max", "min")),
        nonnegative=rng.random() < 0.5,
    )


def random_lp_answers(count: int = 1000, seed: int = 2017):
    rng = random.Random(seed)
    for _ in range(count):
        result = lp_feasible(random_problem(rng))
        yield repr((result.status, result.point, result.objective_value))


def test_random_lp_answers_are_pinned():
    answers = list(random_lp_answers())
    statuses = {a.split("'")[1] for a in answers}
    assert statuses == {"feasible", "infeasible", "optimal", "unbounded"}
    assert digest(answers) == RANDOM_LPS


def face_certificates():
    for vs in (bqp_vertices(3), lop_vertices(3)):
        vertices = vs.vertices
        for size in (1, 2, 3):
            for subset in combinations(vertices, size):
                ok, certificate = is_face_subset(list(subset), vs)
                yield f"{ok} {certificate.render() if ok else None}"
    vs = lop_vertices(4)
    for subset in ((0, 1), (0, 23), (3, 5, 9)):
        ok, certificate = is_face_subset([vs.vertices[i] for i in subset], vs)
        yield f"{ok} {certificate.render() if ok else None}"


def test_face_certificates_are_pinned():
    assert digest(face_certificates()) == FACE_CERTIFICATES


def adjacency_verdicts():
    for vs in (lop_vertices(4), bqp_vertices(3)):
        for u, v in combinations(vs.vertices, 2):
            yield str(adjacent(u, v, vs))
    vs = lop_vertices(5)
    rng = random.Random(5)
    for _ in range(30):
        u, v = rng.sample(vs.vertices, 2)
        yield str(adjacent(u, v, vs))


def test_adjacency_verdicts_are_pinned():
    assert digest(adjacency_verdicts()) == ADJACENCY
