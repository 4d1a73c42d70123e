"""Exact rational linear programming and the vertex-geometry predicates.

The solver is a two-phase primal simplex over ``fractions.Fraction`` with
Bland's anti-cycling rule and explicit artificial variables: slow by design,
exact by construction.  Every answer is audited by substituting the returned
point back into the constraints before it leaves this module.

Tableau layout.  Columns come in a fixed order: the structural columns (a
free variable x split into x+ then x-), one slack per inequality in
constraint order (+1 for <=, -1 for >=), then one artificial per row.  Each
row ends with its right-hand side, kept nonnegative by negating the whole
row.  The cost row holds the reduced costs of the current objective under
the current basis and ends with minus the objective value; one pricing
routine builds it for both phases, with cost 1 on the artificials in phase
one and the real objective in phase two, after the artificials have left
the basis and their columns are dropped.

Derived predicates:

* ``conv_membership`` - hull membership as pure LP feasibility,
* ``adjacent``        - two vertices are adjacent iff their midpoint escapes
                        the hull of the remaining vertices,
* ``is_face_subset``  - a vertex subset is a face iff a hyperplane holds it
                        with equality and clears everything else by a unit
                        gap (lossless for rational data after scaling),
* ``clique_check``    - pairwise adjacency of a vertex list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import RELATIONS, LinearForm, Vertex01, VertexSet
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
    def from_vertex(cls, v: Vertex01) -> "RationalPoint":
        return cls(tuple(Fraction(b) for b in v.bits))

    @classmethod
    def midpoint(cls, u: Vertex01, v: Vertex01) -> "RationalPoint":
        if u.dim != v.dim:
            raise DimensionMismatchError(f"midpoint of dims {u.dim} and {v.dim}")
        return cls(
            tuple(Fraction(a + b, 2) for a, b in zip(u.bits, v.bits))
        )


@dataclass(frozen=True)
class LPConstraint:
    coeffs: tuple
    relation: str
    rhs: object

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise InvalidParameterError(f"relation must be one of {RELATIONS}")


@dataclass(frozen=True)
class LPProblem:
    """A linear program over exact rationals.

    Variables are free unless ``nonnegative`` is set.  ``objective`` is
    optional; without it only feasibility is decided.
    """

    variables: int
    constraints: tuple[LPConstraint, ...]
    objective: tuple | None = None
    sense: str = "max"
    nonnegative: bool = False


@dataclass(frozen=True)
class LPResult:
    status: str  # "feasible" | "optimal" | "infeasible" | "unbounded"
    point: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None


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
        value = sum(c * x for c, x in zip(con.coeffs, point))
        ok = (
            value <= con.rhs
            if con.relation == "<="
            else value >= con.rhs if con.relation == ">=" else value == con.rhs
        )
        if not ok:
            raise PolyfaceError(
                f"simplex returned a point violating {con.relation} constraint"
            )
    if problem.nonnegative and any(x < 0 for x in point):
        raise PolyfaceError("simplex returned a negative coordinate")


def lp_feasible(problem: LPProblem) -> LPResult:
    """Solve the program exactly.

    Without an objective, stops after phase one and reports feasibility with
    an exact witness point.  With an objective, continues to optimality and
    reports unboundedness distinctly.
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
    if problem.sense not in ("max", "min"):
        raise InvalidParameterError(f"sense must be 'max' or 'min', got {problem.sense}")

    def split(coeffs) -> list:
        """Standard-form columns: a free variable x becomes x+ - x-."""
        if problem.nonnegative:
            return list(coeffs)
        return [v for c in coeffs for v in (c, -c)]

    nslack = sum(con.relation != "=" for con in problem.constraints)
    rows = []
    k = 0
    for con in problem.constraints:
        slack = [0] * nslack
        if con.relation != "=":
            slack[k] = 1 if con.relation == "<=" else -1
            k += 1
        row = split(con.coeffs) + slack + [con.rhs]
        rows.append([-a for a in row] if con.rhs < 0 else row)
    width = len(split([0] * nvars)) + nslack
    nrows = len(rows)
    rows = [
        row[:-1] + [int(i == r) for i in range(nrows)] + row[-1:]
        for r, row in enumerate(rows)
    ]
    # Phase one: minimize the sum of the artificials.
    basis = list(range(width, width + nrows))
    tab = _Tableau(rows, basis, [0] * width + [1] * nrows)
    if tab.minimize(width) != "optimal":  # phase one is bounded below by zero
        raise PolyfaceError("internal error: unbounded feasibility phase")
    if tab.cost[-1] != 0:
        return LPResult("infeasible")

    # Drive the artificials out of the basis; drop the rows left redundant.
    r = 0
    while r < len(tab.rows):
        if tab.basis[r] >= width:
            enter = next((j for j in range(width) if tab.rows[r][j] != 0), None)
            if enter is None:
                del tab.rows[r], tab.basis[r]
                continue
            tab.pivot(r, enter)
        r += 1
    tab.rows = [row[:width] + row[-1:] for row in tab.rows]

    def extract() -> tuple[Fraction, ...]:
        std = [Fraction(0)] * width
        for row, j in zip(tab.rows, tab.basis):
            std[j] = Fraction(row[-1])
        if problem.nonnegative:
            point = tuple(std[:nvars])
        else:
            point = tuple(std[2 * i] - std[2 * i + 1] for i in range(nvars))
        _audit(problem, point)
        return point

    if problem.objective is None:
        return LPResult("feasible", extract())

    # Phase two on the real objective.
    sign = -1 if problem.sense == "max" else 1
    tab.price([sign * c for c in split(problem.objective)] + [0] * nslack)
    if tab.minimize(width) == "unbounded":
        return LPResult("unbounded")
    point = extract()
    value = sum(
        (c * x for c, x in zip(problem.objective, point)), start=Fraction(0)
    )
    return LPResult("optimal", point, value)


def conv_membership(p: RationalPoint, v: VertexSet) -> bool:
    """True iff ``p`` is a convex combination of the vertices of ``v``."""
    dim = v.layout.dim
    if p.dim != dim:
        raise DimensionMismatchError(
            f"point of dim {p.dim} against vertex set of dim {dim}"
        )
    words = v.words
    n = len(words)
    constraints = []
    for d in range(dim):
        shift = dim - 1 - d
        coeffs = tuple((w >> shift) & 1 for w in words)
        constraints.append(LPConstraint(coeffs, "=", p.coords[d]))
    constraints.append(LPConstraint((1,) * n, "=", 1))
    result = lp_feasible(
        LPProblem(variables=n, constraints=tuple(constraints), nonnegative=True)
    )
    return result.status == "feasible"


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

    Searches for a rational hyperplane a.x = b with a.x = b on ``s`` and
    a.x <= b - 1 on every other vertex (the unit gap costs nothing after
    scaling).  On success returns an integer certificate, re-validated
    against all vertices before being returned.
    """
    if not s:
        raise InvalidParameterError("the candidate face must be nonempty")
    dim = vset.layout.dim
    want = set()
    for x in s:
        if x not in vset:
            raise InvalidVertexError(f"{x} is not a vertex of the set")
        want.add(x.word)
    constraints = []
    for word in vset.words:
        coeffs = tuple(
            (word >> (dim - 1 - d)) & 1 for d in range(dim)
        ) + (-1,)
        if word in want:
            constraints.append(LPConstraint(coeffs, "=", 0))
        else:
            constraints.append(LPConstraint(coeffs, "<=", -1))
    result = lp_feasible(
        LPProblem(variables=dim + 1, constraints=tuple(constraints))
    )
    if result.status != "feasible":
        return False, None
    point = result.point
    scale = lcm(*(Fraction(c).denominator for c in point)) if point else 1
    coeffs = tuple(int(c * scale) for c in point[:dim])
    beta = int(point[dim] * scale)
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
