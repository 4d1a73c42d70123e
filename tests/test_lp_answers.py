"""Pins the exact answers of the rational simplex.

Where a program has several optimal or feasible points, the one returned
depends on the pivot sequence, which no other test fixes.  The SHA-256
values below were recorded from a solver whose answers are audited by
substitution; any change to Bland's entering rule, the leaving tie-break,
the column order of the standard form or the pivot arithmetic shows here.

The solver maximises over equality rows and nonnegative variables.  The
random programs may have inequalities, free variables or a minimum;
``standard_form`` rewrites them into the solver's form.

Face verdicts and face certificates have separate pins: the verdicts are a
fact about the polytopes, the certificates one dual solution among many.

The solver pivots in integers over one shared denominator.  The ``Fraction``
simplex it replaced is kept below as an oracle: the same columns and the
same Bland's rule, every pivot row divided out in ``Fraction``.  Both must
return the same status, point, objective value and duals on the random
programs and on the hull programs of the geometry predicates.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import polyface.geometry
from polyface import (
    LPConstraint,
    LPProblem,
    LPResult,
    RationalPoint,
    adjacent,
    bqp_vertices,
    is_face_subset,
    lop_vertices,
    lp_feasible,
)

RANDOM_LPS = "b8f747d28e82409567e3b8ed842ef218f5a0a3582e422cbc9c4bc6b4077ddf13"
RANDOM_DUALS = "6cd994be00d114cc5320036d9b7d1bd4cac3c97b6a55305cc7f668432ea07d21"
FACE_VERDICTS = "afea0428334788366c8e23676e1cd5e722d1c048263d2f0eb64e4d35d6d54034"
FACE_CERTIFICATES = "98c8c7778bfe378f2ce1cbd5e5cd699a4d7511c47d0f066d8492b3f51debfe99"
ADJACENCY = "500b213b0c5d3ba15b00d3ffeaec96903362be011944fcb437c69567b6ecb3d7"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Row(NamedTuple):
    """One row ``coeffs . x <relation> rhs`` of a random program."""

    coeffs: tuple
    relation: str
    rhs: object


class Program(NamedTuple):
    variables: int
    rows: tuple[Row, ...]
    objective: tuple | None


def random_problem(rng: random.Random):
    """One small program: free or nonnegative variables, every relation,
    integer or fractional right-hand sides, with or without an objective,
    maximised or minimised.  Returned as (program, sense, nonnegative)."""
    nvars = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
        rhs = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 3)))
        rows.append(Row(coeffs, rng.choice(("<=", ">=", "=")), rhs))
    if rng.random() < 0.25:
        # A scaled copy of an equality makes a redundant row for phase one.
        row = rng.choice(rows)
        k = rng.choice((1, 2, -1))
        rows.append(Row(tuple(k * c for c in row.coeffs), "=", k * row.rhs))
    objective = None
    if rng.random() < 0.5:
        objective = tuple(rng.randint(-3, 3) for _ in range(nvars))
    program = Program(nvars, tuple(rows), objective)
    return program, rng.choice(("max", "min")), rng.random() < 0.5


def standard_form(program: Program, sense: str, nonnegative: bool) -> LPProblem:
    """The solver's program: a free variable x becomes the columns x+ then
    x-, a minimum of c becomes a maximum of -c, and after those columns
    each inequality gets a slack column in row order, +1 for <= and -1
    for >=."""

    def split(coeffs):
        return tuple(coeffs) if nonnegative else tuple(v for c in coeffs for v in (c, -c))

    inequalities = [i for i, row in enumerate(program.rows) if row.relation != "="]
    constraints = []
    for i, row in enumerate(program.rows):
        slack = tuple(
            (1 if row.relation == "<=" else -1) if k == i else 0 for k in inequalities
        )
        constraints.append(LPConstraint(split(row.coeffs) + slack, row.rhs))
    objective = program.objective
    if objective is not None:
        objective = split(c if sense == "max" else -c for c in objective)
        objective += (0,) * len(inequalities)
    width = len(split([0] * program.variables)) + len(inequalities)
    return LPProblem(width, tuple(constraints), objective)


def solve(program: Program, sense: str, nonnegative: bool):
    """Status, point and objective value of ``program`` in its own variables,
    plus the solver's program and result."""
    std = standard_form(program, sense, nonnegative)
    result = lp_feasible(std)
    point = result.point
    if point is not None:
        if nonnegative:
            point = point[: program.variables]
        else:
            point = tuple(point[2 * i] - point[2 * i + 1] for i in range(program.variables))
    value = None
    if result.status == "optimal":
        value = sum((c * x for c, x in zip(program.objective, point)), start=Fraction(0))
    return (result.status, point, value), std, result


def random_lps(count: int = 1000, seed: int = 2017):
    rng = random.Random(seed)
    for _ in range(count):
        yield solve(*random_problem(rng))


def test_random_lp_answers_are_pinned():
    answers = [repr(answer) for answer, _, _ in random_lps()]
    statuses = {a.split("'")[1] for a in answers}
    assert statuses == {"feasible", "infeasible", "optimal", "unbounded"}
    assert digest(answers) == RANDOM_LPS


def test_random_lp_duals_are_pinned():
    assert digest(repr(result.duals) for _, _, result in random_lps()) == RANDOM_DUALS


def test_optimal_duals_certify_the_optimum():
    """Without the solver: strong duality and dual feasibility A^T y >= c.
    On a slack column the latter is the sign of an inequality's dual,
    y >= 0 for <= and y <= 0 for >=."""
    optimal = 0
    for _, problem, result in random_lps():
        if result.status != "optimal":
            assert result.duals is None
            continue
        optimal += 1
        duals, constraints = result.duals, problem.constraints
        assert len(duals) == len(constraints)
        assert sum(y * con.rhs for y, con in zip(duals, constraints)) == result.objective_value
        for j, c in enumerate(problem.objective):
            assert sum(y * con.coeffs[j] for y, con in zip(duals, constraints)) >= c
    assert optimal >= 100


def face_subsets():
    for vs in (bqp_vertices(3), lop_vertices(3)):
        vertices = vs.vertices
        for size in (1, 2, 3):
            for subset in combinations(vertices, size):
                yield list(subset), vs
    vs = lop_vertices(4)
    for subset in ((0, 1), (0, 23), (3, 5, 9)):
        yield [vs.vertices[i] for i in subset], vs


def test_face_verdicts_are_pinned():
    verdicts = (str(is_face_subset(subset, vs)[0]) for subset, vs in face_subsets())
    assert digest(verdicts) == FACE_VERDICTS


def test_face_certificates_are_pinned():
    def lines():
        for subset, vs in face_subsets():
            ok, certificate = is_face_subset(subset, vs)
            yield f"{ok} {certificate.render() if ok else None}"

    assert digest(lines()) == FACE_CERTIFICATES


def adjacency_pairs():
    for vs in (lop_vertices(4), bqp_vertices(3)):
        for u, v in combinations(vs.vertices, 2):
            yield u, v, vs
    vs = lop_vertices(5)
    rng = random.Random(5)
    for _ in range(30):
        u, v = rng.sample(vs.vertices, 2)
        yield u, v, vs


def test_adjacency_verdicts_are_pinned():
    verdicts = (str(adjacent(u, v, vs)) for u, v, vs in adjacency_pairs())
    assert digest(verdicts) == ADJACENCY


def fraction_eliminate(row: list, prow: list, j: int) -> list:
    """``row`` minus the multiple of ``prow`` (whose column ``j`` is 1) that
    clears its column ``j``."""
    f = row[j]
    return [a - f * b for a, b in zip(row, prow)] if f else row


class FractionTableau:
    """The dense ``Fraction`` tableau, in the layout of the integer one but
    with each pivot row divided by its pivot.  Adds its pivots to
    ``counts``."""

    def __init__(self, rows, basis, costs, counts: Counter):
        self.rows = rows
        self.basis = basis
        self.counts = counts
        self.price(costs)

    def price(self, costs) -> None:
        cost = [*costs, 0]
        for row, j in zip(self.rows, self.basis):
            cost = fraction_eliminate(cost, row, j)
        self.cost = cost

    def pivot(self, r: int, j: int) -> None:
        self.counts["pivots"] += 1
        piv = self.rows[r][j]
        if piv != 1:
            inv = Fraction(1) / piv
            self.rows[r] = [c * inv for c in self.rows[r]]
        prow = self.rows[r]
        self.rows = [
            prow if i == r else fraction_eliminate(row, prow, j)
            for i, row in enumerate(self.rows)
        ]
        self.cost = fraction_eliminate(self.cost, prow, j)
        self.basis[r] = j

    def minimize(self, enterable: int) -> str:
        while True:
            enter = next((j for j in range(enterable) if self.cost[j] < 0), -1)
            if enter < 0:
                return "optimal"
            best_key = None
            best_row = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    key = (Fraction(row[-1]) / a, self.basis[i])
                    if best_key is None or key < best_key:
                        best_key = key
                        best_row = i
            if best_row < 0:
                return "unbounded"
            self.pivot(best_row, enter)


def fraction_lp(problem: LPProblem, counts: Counter) -> LPResult:
    """The two-phase ``Fraction`` simplex.  Adds its pivots and the negative
    pivots of its drive-out loop to ``counts``."""
    nvars = problem.variables
    nrows = len(problem.constraints)
    rows = []
    for r, con in enumerate(problem.constraints):
        row = list(con.coeffs) if con.rhs >= 0 else [-a for a in con.coeffs]
        rows.append(row + [int(i == r) for i in range(nrows)] + [abs(con.rhs)])
    costs = [0] * nvars + [1] * nrows
    tab = FractionTableau(rows, list(range(nvars, nvars + nrows)), costs, counts)
    assert tab.minimize(nvars) == "optimal"
    if tab.cost[-1] != 0:
        return LPResult("infeasible")
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= nvars:
            enter = next((j for j in range(nvars) if tab.rows[r][j] != 0), None)
            if enter is None:
                del tab.rows[r], tab.basis[r]
                continue
            counts["negative drive-out pivots"] += tab.rows[r][enter] < 0
            tab.pivot(r, enter)
        r += 1

    def extract() -> tuple:
        point = [Fraction(0)] * nvars
        for row, j in zip(tab.rows, tab.basis):
            point[j] = Fraction(row[-1])
        return tuple(point)

    if problem.objective is None:
        return LPResult("feasible", extract())
    tab.price([-c for c in problem.objective] + [0] * nrows)
    if tab.minimize(nvars) == "unbounded":
        return LPResult("unbounded")
    point = extract()
    value = sum((c * x for c, x in zip(problem.objective, point)), start=Fraction(0))
    duals = tuple(
        Fraction(-d if con.rhs < 0 else d)
        for d, con in zip(tab.cost[nvars:-1], problem.constraints)
    )
    return LPResult("optimal", point, value, duals)


def test_fraction_oracle_agrees_on_random_programs():
    counts = Counter()
    for _, problem, result in random_lps():
        assert repr(fraction_lp(problem, counts)) == repr(result)
    # The drive-out loop is the one place a pivot can be negative, and the
    # integer tableau negates itself there; make sure that path is exercised.
    assert counts["negative drive-out pivots"] >= 40
    assert counts["pivots"] >= 2000


def test_fraction_oracle_agrees_on_hull_programs(monkeypatch):
    """The midpoint program of every pinned pair (all pairs of lop(4) and
    bqp(3), 30 seeded pairs of lop(5)), posed here on the other words
    because ``adjacent`` skips it when two other vertices have the pair's
    sum, and every program ``is_face_subset`` poses on the 1-3 subsets of
    bqp(3) and lop(3)."""
    solved = []
    solve = polyface.geometry.lp_feasible

    def recording(problem):
        result = solve(problem)
        solved.append((problem, result))
        return result

    monkeypatch.setattr(polyface.geometry, "lp_feasible", recording)
    for u, v, vs in adjacency_pairs():
        rest = [w for w in vs.words if w != u.word and w != v.word]
        polyface.geometry._hull(RationalPoint.midpoint(u, v), vs.layout.dim, rest)
    for subset, vs in face_subsets():
        is_face_subset(subset, vs)
    assert len(solved) == 276 + 28 + 30 + (8 + 28 + 56) + (6 + 15 + 20) + 3
    counts = Counter()
    for problem, result in solved:
        assert repr(fraction_lp(problem, counts)) == repr(result)
