"""Exact rational linear programming and the vertex-geometry predicates.

The solver is a two-phase primal simplex over ``fractions.Fraction`` with
Bland's anti-cycling rule and explicit artificial variables: slow by design,
exact by construction.  Every answer is audited by substituting the returned
point back into the constraints before it leaves this module.

Program form.  The solver takes one form: maximise c.x subject to A x = b,
x >= 0.  Inequalities, free variables and minimisation are the caller's to
rewrite; every program this module poses is already in that form.

Tableau layout.  Columns come in a fixed order: the structural columns, then
one artificial per row.  Each row ends with its right-hand side, kept
nonnegative by negating the row before its artificial is appended.  The cost
row holds the reduced costs of the current objective under the current basis
and ends with minus the objective value; one pricing routine builds it for
both phases, with cost 1 on the artificials in phase one and the negated
objective in phase two.  The artificials leave the basis after phase one and
never re-enter, but their columns stay: at a phase-two optimum the reduced
cost of row r's artificial is row r's dual y_r (negated if the row was
negated), a free y with ``b.y == objective value`` and ``A^T y >= c``.

Every predicate solves one hull LP: a column per host vertex, a row per
coordinate and a convexity row.

* ``conv_membership`` - hull membership as pure LP feasibility,
* ``adjacent``        - two vertices are adjacent iff their midpoint escapes
                        the hull of the remaining vertices,
* ``is_face_subset``  - a vertex subset is a face iff no convex combination
                        equal to its barycenter puts weight outside it,
* ``clique_check``    - pairwise adjacency of a vertex list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import LinearForm, Vertex01, VertexSet
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidVertexError,
    PolyfaceError,
)


@dataclass(frozen=True)
class RationalPoint:
    """A point with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, values) -> "RationalPoint":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def midpoint(cls, u: Vertex01, v: Vertex01) -> "RationalPoint":
        if u.dim != v.dim:
            raise DimensionMismatchError(f"midpoint of dims {u.dim} and {v.dim}")
        return cls(
            tuple(Fraction(a + b, 2) for a, b in zip(u.bits, v.bits))
        )


@dataclass(frozen=True)
class LPConstraint:
    """One equality row ``coeffs . x == rhs``."""

    coeffs: tuple
    rhs: object


@dataclass(frozen=True)
class LPProblem:
    """Maximise ``objective . x`` subject to the equality ``constraints``
    and x >= 0, over exact rationals.

    ``objective`` is optional; without it only feasibility is decided.
    """

    variables: int
    constraints: tuple[LPConstraint, ...]
    objective: tuple | None = None


@dataclass(frozen=True)
class LPResult:
    status: str  # "feasible" | "optimal" | "infeasible" | "unbounded"
    point: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None  # one per constraint, if optimal


def _eliminate(row: list, prow: list, j: int) -> list:
    """``row`` minus the multiple of ``prow`` (whose column ``j`` is 1) that
    clears its column ``j``."""
    f = row[j]
    return [a - f * b for a, b in zip(row, prow)] if f else row


class _Tableau:
    """Dense simplex tableau with Bland's rule over exact rationals, in the
    layout described at the top of this module."""

    def __init__(self, rows, basis, costs):
        self.rows = rows
        self.basis = basis
        self.price(costs)

    def price(self, costs) -> None:
        """Set the cost row to the reduced costs of ``costs`` (one entry per
        column) under the current basis."""
        cost = [*costs, 0]
        for row, j in zip(self.rows, self.basis):
            cost = _eliminate(cost, row, j)
        self.cost = cost

    def pivot(self, r: int, j: int) -> None:
        piv = self.rows[r][j]
        if piv != 1:
            inv = Fraction(1) / piv
            self.rows[r] = [c * inv for c in self.rows[r]]
        prow = self.rows[r]
        self.rows = [
            prow if i == r else _eliminate(row, prow, j)
            for i, row in enumerate(self.rows)
        ]
        self.cost = _eliminate(self.cost, prow, j)
        self.basis[r] = j

    def minimize(self, enterable: int) -> str:
        """Run Bland's rule to optimality over columns [0, enterable).

        Entering: lowest-index column with negative reduced cost.  Leaving:
        minimum ratio, ties broken by lowest basic-variable index.
        """
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


def _audit(problem: LPProblem, point) -> None:
    for con in problem.constraints:
        if sum(c * x for c, x in zip(con.coeffs, point)) != con.rhs:
            raise PolyfaceError("simplex returned a point violating an equality")
    if any(x < 0 for x in point):
        raise PolyfaceError("simplex returned a negative coordinate")


def lp_feasible(problem: LPProblem) -> LPResult:
    """Solve ``max c.x`` subject to ``A x = b``, ``x >= 0`` exactly.

    Without an objective, stops after phase one and reports feasibility with
    an exact witness point.  With an objective, continues to optimality,
    reporting the duals with the optimum and unboundedness distinctly.
    An inequality enters as an equality with its own slack column: maximise
    3x + 2y subject to x + y <= 4 and x <= 2.

    >>> result = lp_feasible(LPProblem(
    ...     4, (LPConstraint((1, 1, 1, 0), 4), LPConstraint((1, 0, 0, 1), 2)),
    ...     objective=(3, 2, 0, 0)))
    >>> result.status
    'optimal'
    >>> [str(x) for x in result.point], str(result.objective_value)
    (['2', '2', '0', '0'], '10')
    >>> [str(y) for y in result.duals]
    ['2', '1']
    """
    nvars = problem.variables
    if nvars < 0:
        raise InvalidParameterError("variable count must be >= 0")
    for con in problem.constraints:
        if len(con.coeffs) != nvars:
            raise DimensionMismatchError(
                f"constraint of width {len(con.coeffs)} in a {nvars}-variable program"
            )
    if problem.objective is not None and len(problem.objective) != nvars:
        raise DimensionMismatchError("objective width does not match variable count")

    nrows = len(problem.constraints)
    rows = []
    for r, con in enumerate(problem.constraints):
        row = list(con.coeffs) if con.rhs >= 0 else [-a for a in con.coeffs]
        rows.append(row + [int(i == r) for i in range(nrows)] + [abs(con.rhs)])
    # Phase one: minimize the sum of the artificials.
    tab = _Tableau(rows, list(range(nvars, nvars + nrows)), [0] * nvars + [1] * nrows)
    if tab.minimize(nvars) != "optimal":  # phase one is bounded below by zero
        raise PolyfaceError("internal error: unbounded feasibility phase")
    if tab.cost[-1] != 0:
        return LPResult("infeasible")

    # Drive the artificials out of the basis; drop the rows left redundant.
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= nvars:
            enter = next((j for j in range(nvars) if tab.rows[r][j] != 0), None)
            if enter is None:
                del tab.rows[r], tab.basis[r]
                continue
            tab.pivot(r, enter)
        r += 1

    def extract() -> tuple[Fraction, ...]:
        point = [Fraction(0)] * nvars
        for row, j in zip(tab.rows, tab.basis):
            point[j] = Fraction(row[-1])
        _audit(problem, point)
        return tuple(point)

    if problem.objective is None:
        return LPResult("feasible", extract())

    # Phase two on the real objective; the artificials never re-enter.
    tab.price([-c for c in problem.objective] + [0] * nrows)
    if tab.minimize(nvars) == "unbounded":
        return LPResult("unbounded")
    point = extract()
    value = sum(
        (c * x for c, x in zip(problem.objective, point)), start=Fraction(0)
    )
    duals = tuple(
        Fraction(-d if con.rhs < 0 else d)
        for d, con in zip(tab.cost[nvars:-1], problem.constraints)
    )
    return LPResult("optimal", point, value, duals)


def _hull(p: RationalPoint, vset: VertexSet, objective=None) -> LPResult:
    """Convex weights on the words of ``vset`` combining to ``p``; any
    ``objective`` is maximised."""
    dim = vset.layout.dim
    if p.dim != dim:
        raise DimensionMismatchError(f"point of dim {p.dim} against vertex set of dim {dim}")
    words = vset.words
    constraints = [
        LPConstraint(tuple((w >> (dim - 1 - d)) & 1 for w in words), p.coords[d])
        for d in range(dim)
    ]
    constraints.append(LPConstraint((1,) * len(words), 1))
    return lp_feasible(LPProblem(len(words), tuple(constraints), objective))


def conv_membership(p: RationalPoint, v: VertexSet) -> bool:
    """True iff ``p`` is a convex combination of the vertices of ``v``."""
    return _hull(p, v).status == "feasible"


def adjacent(u: Vertex01, v: Vertex01, vset: VertexSet) -> bool:
    """Midpoint criterion: u and v are adjacent vertices iff (u+v)/2 lies
    outside the hull of the remaining vertices."""
    if u == v:
        raise InvalidParameterError("adjacency needs two distinct vertices")
    if u not in vset or v not in vset:
        raise InvalidVertexError("both vertices must belong to the set")
    rest = vset.restrict_to_words(
        w for w in vset.words if w != u.word and w != v.word
    )
    return not conv_membership(RationalPoint.midpoint(u, v), rest)


def is_face_subset(
    s: list[Vertex01], vset: VertexSet
) -> tuple[bool, LinearForm | None]:
    """Decide whether ``s`` is exactly the vertex set of a face.

    Maximises the weight outside ``s`` of a convex combination equal to the
    barycenter of ``s``, which lies in the relative interior of the smallest
    face containing ``s``: ``s`` is a face iff the maximum is 0.  Then the
    optimal duals (y, z) of the coordinate and convexity rows give -y.x <= z,
    tight on ``s`` with a unit gap on every other vertex; scaled to integers,
    it is re-validated against all vertices before being returned.

    >>> from polyface import lop_vertices
    >>> lop3 = lop_vertices(3)
    >>> ok, certificate = is_face_subset(
    ...     [Vertex01.from_string("111"), Vertex01.from_string("011")], lop3)
    >>> ok, certificate.render()
    (True, '0 1 1 <= 2')
    >>> is_face_subset(
    ...     [Vertex01.from_string("111"), Vertex01.from_string("000")], lop3)
    (False, None)
    """
    if not s:
        raise InvalidParameterError("the candidate face must be nonempty")
    dim = vset.layout.dim
    want = set()
    for x in s:
        if x not in vset:
            raise InvalidVertexError(f"{x} is not a vertex of the set")
        want.add(x.word)
    counts = (sum((w >> (dim - 1 - d)) & 1 for w in want) for d in range(dim))
    barycenter = RationalPoint(tuple(Fraction(c, len(want)) for c in counts))
    objective = tuple(int(w not in want) for w in vset.words)
    result = _hull(barycenter, vset, objective)
    if result.objective_value:
        return False, None
    scale = lcm(*(u.denominator for u in result.duals))
    coeffs = tuple(int(-u * scale) for u in result.duals[:dim])
    beta = int(result.duals[dim] * scale)
    certificate = LinearForm(coeffs, "<=", beta)
    for word in vset.words:
        value = certificate.evaluate_word(word)
        if word in want:
            if value != beta:
                raise PolyfaceError("face certificate failed equality re-validation")
        elif value > beta - 1:
            raise PolyfaceError("face certificate failed gap re-validation")
    return True, certificate


def clique_check(s: list[Vertex01], vset: VertexSet) -> bool:
    """True iff all vertices in ``s`` are pairwise adjacent in ``vset``."""
    if len(s) < 2:
        raise InvalidParameterError("a clique check needs at least two vertices")
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            if not adjacent(s[a], s[b], vset):
                return False
    return True
