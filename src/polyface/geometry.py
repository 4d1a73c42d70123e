"""Exact rational linear programming and the vertex-geometry predicates.

The solver is a two-phase primal simplex with Bland's anti-cycling rule and
explicit artificial variables.  It pivots in integers and returns exact
rationals: slow by design, exact by construction.  Every answer is audited
by substituting the returned point back into the constraints before it
leaves this module.

Program form.  The solver takes one form: maximise c.x subject to A x = b,
x >= 0, with integer A and c and rational b.  Inequalities, free variables
and minimisation are the caller's to rewrite; every program this module
poses is already in that form.

Tableau layout.  Columns come in a fixed order: the structural columns, then
one artificial per row.  Each row ends with its right-hand side, kept
nonnegative by negating the row before its artificial is appended, and
scaled to an integer by L, the lcm of the right-hand sides' denominators.
Every entry is an integer numerator over one shared positive denominator
``det`` (over ``det * L`` in the right-hand-side column), so a basic column
holds ``det`` in its own row.  This is Edmonds' integer-preserving simplex:
a pivot on p = T[r][j] keeps row r, sets every other row i to
(p T[i] - T[i][j] T[r]) / det, a division that is always exact, and then
makes p the new ``det``.  Only the loop that drives the artificials out can
meet p < 0; it first negates the whole tableau and ``det``.  The cost row,
over the same ``det``, holds the reduced costs of the current objective
under the current basis and ends with minus the objective value (over
``det * L``); one pricing routine builds it for both phases, with cost 1 on
the artificials in phase one and the negated objective in phase two.  The
artificials leave the basis after phase one and never re-enter, but their
columns stay: at a phase-two optimum the reduced cost of row r's
artificial, over ``det``, is row r's dual y_r (negated if the row was
negated), a free y with ``b.y == objective value`` and ``A^T y >= c``.

Every predicate rests on one hull LP: a column per host vertex, a row per
coordinate and a convexity row.  ``adjacent`` first looks for two other
vertices with the same sum, which settles "not adjacent" by one addition,
and poses its LP only when there are none.

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
from itertools import combinations, compress
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
    """One equality row ``coeffs . x == rhs``: ``int`` coefficients and a
    rational (``int`` or ``Fraction``) right-hand side."""

    coeffs: tuple
    rhs: object


@dataclass(frozen=True)
class LPProblem:
    """Maximise ``objective . x`` subject to the equality ``constraints``
    and x >= 0, over exact rationals.

    ``objective`` is optional; without it only feasibility is decided.  Its
    entries, like the constraint coefficients, are ``int``s.
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


def _eliminate(row: list, prow: list, support: list, j: int, p: int, det: int) -> list:
    """``row`` with its column ``j`` cleared against the pivot row ``prow``,
    whose column ``j`` holds ``p``, and moved from denominator ``det`` to
    ``p``.  ``support`` holds the nonzero entries (k, prow[k])."""
    f = row[j]
    if p != det:
        if not f:
            return [a * p // det for a in row]
        return [(a * p - f * b) // det for a, b in zip(row, prow)]
    if not f:
        return row
    # With p == det, det divides every f * prow[k], and only the support moves.
    row = row.copy()
    for k, b in support:
        row[k] -= f * b // det
    return row


class _Tableau:
    """Dense integer simplex tableau with Bland's rule, in the layout
    described at the top of this module."""

    def __init__(self, rows, basis, costs):
        self.rows = rows
        self.basis = basis
        self.det = 1
        self.price(costs)

    def price(self, costs) -> None:
        """Set the cost row to the reduced costs of ``costs`` (one integer
        per column) under the current basis."""
        det = self.det
        cost = [c * det for c in costs] + [0]
        for row, j in zip(self.rows, self.basis):
            f = costs[j]
            if f:
                cost = [a - f * b for a, b in zip(cost, row)]
        self.cost = cost

    def pivot(self, r: int, j: int) -> None:
        p = self.rows[r][j]
        if p < 0:
            self.rows = [[-a for a in row] for row in self.rows]
            self.cost = [-a for a in self.cost]
            self.det = -self.det
            p = -p
        det = self.det
        prow = self.rows[r]
        support = list(compress(enumerate(prow), prow))
        self.rows = [
            prow if i == r else _eliminate(row, prow, support, j, p, det)
            for i, row in enumerate(self.rows)
        ]
        self.cost = _eliminate(self.cost, prow, support, j, p, det)
        self.basis[r] = j
        self.det = p

    def minimize(self, enterable: int) -> str:
        """Run Bland's rule to optimality over columns [0, enterable).

        Entering: lowest-index column with negative reduced cost.  Leaving:
        minimum ratio, ties broken by lowest basic-variable index.  The
        ratios b/a are compared by cross-multiplying, as a > 0.
        """
        basis = self.basis
        while True:
            cost = self.cost
            enter = next((j for j in range(enterable) if cost[j] < 0), -1)
            if enter < 0:
                return "optimal"
            best_row = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if best_row >= 0:
                        gap = b * best_a - best_b * a
                        if gap > 0 or (gap == 0 and basis[i] > basis[best_row]):
                            continue
                    best_row, best_a, best_b = i, a, b
            if best_row < 0:
                return "unbounded"
            self.pivot(best_row, enter)


_is_int = int.__instancecheck__  # isinstance(x, int), mapped without a lambda


def _audit(problem: LPProblem, point) -> None:
    support = [(j, x) for j, x in enumerate(point) if x]
    for con in problem.constraints:
        coeffs = con.coeffs
        if sum(coeffs[j] * x for j, x in support) != con.rhs:
            raise PolyfaceError("simplex returned a point violating an equality")
    if any(x < 0 for _, x in support):
        raise PolyfaceError("simplex returned a negative coordinate")


def lp_feasible(problem: LPProblem) -> LPResult:
    """Solve ``max c.x`` subject to ``A x = b``, ``x >= 0`` exactly.

    Without an objective, stops after phase one and reports feasibility with
    an exact witness point.  With an objective, continues to optimality,
    reporting the duals with the optimum and unboundedness distinctly.
    Constraint coefficients and objective entries must be ``int``s, or
    InvalidParameterError is raised; right-hand sides may be any rationals.
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
        if not all(map(_is_int, con.coeffs)):
            raise InvalidParameterError("constraint coefficients must be integers")
    if problem.objective is not None:
        if len(problem.objective) != nvars:
            raise DimensionMismatchError("objective width does not match variable count")
        if not all(map(_is_int, problem.objective)):
            raise InvalidParameterError("objective entries must be integers")

    # Only the right-hand sides are scaled to integers, by the lcm of their
    # denominators; the point divides it back out.
    rhs = [Fraction(con.rhs) for con in problem.constraints]
    scale = lcm(*(b.denominator for b in rhs))
    nrows = len(rhs)
    rows = []
    for r, (con, b) in enumerate(zip(problem.constraints, rhs)):
        row = list(con.coeffs) if b >= 0 else [-a for a in con.coeffs]
        row += [int(i == r) for i in range(nrows)]
        row.append(abs(b.numerator) * (scale // b.denominator))
        rows.append(row)
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
        denominator = tab.det * scale
        for row, j in zip(tab.rows, tab.basis):
            point[j] = Fraction(row[-1], denominator)
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
        (problem.objective[j] * x for j, x in enumerate(point) if x), start=Fraction(0)
    )
    duals = tuple(
        Fraction(-d if b < 0 else d, tab.det) for d, b in zip(tab.cost[nvars:-1], rhs)
    )
    return LPResult("optimal", point, value, duals)


def _hull(p: RationalPoint, dim: int, words, objective=None) -> LPResult:
    """Convex weights on the ``dim``-bit ``words`` combining to ``p``; any
    ``objective`` is maximised."""
    if p.dim != dim:
        raise DimensionMismatchError(f"point of dim {p.dim} against vertex set of dim {dim}")
    constraints = [
        LPConstraint(tuple((w >> (dim - 1 - d)) & 1 for w in words), p.coords[d])
        for d in range(dim)
    ]
    constraints.append(LPConstraint((1,) * len(words), 1))
    return lp_feasible(LPProblem(len(words), tuple(constraints), objective))


def conv_membership(p: RationalPoint, v: VertexSet) -> bool:
    """True iff ``p`` is a convex combination of the vertices of ``v``."""
    return _hull(p, v.layout.dim, v.words).status == "feasible"


def _nonadjacency_pair(u: int, v: int, words) -> tuple[int, int] | None:
    """Two ``words`` w, z, neither u nor v, with u + v == w + z as 0/1
    vectors, or None if there are none.

    Such a w agrees with u and v wherever they agree, so it lies in their
    smallest cube face, and its partner z = u + v - w keeps the common bits
    and takes the differing bits that w lacks.
    """
    common, diff = u & v, u ^ v
    face = [w for w in words if w & ~diff == common]
    members = set(face)
    for w in face:
        if w != u and w != v and (z := common | (diff & ~w)) in members:
            return w, z
    return None


def adjacent(u: Vertex01, v: Vertex01, vset: VertexSet) -> bool:
    """Midpoint criterion: u and v are adjacent vertices iff (u+v)/2 lies
    outside the hull of the remaining vertices.

    A vertex pair decides first.  If u + v = w + z for two other vertices,
    the midpoint is (w + z)/2, in the hull of the rest, so u and v are not
    adjacent; this holds on every 0/1 set.  Only without such a pair does
    the midpoint LP decide.

    On the double-covering polytope conv{x in {0,1}^n : Bx = 2}, four ones
    per row of B, the pair always exists when u and v are not adjacent
    (Maksimenko, "The common face of some 0/1-polytopes with NP-complete
    nonadjacency relation", J. Math. Sci., 2014).  For then some other
    vertex w lies in the smallest cube face holding u and v, or that cube
    face would cut out the edge [u, v].  Let D be the columns where u and
    v differ.  On each row, u, v and w agree outside D and have row sum 2,
    so each has the same number a of ones in the row's columns in D; as u
    and v are complementary on D, the row meets D in 2a columns.  So w
    complemented on D, which is z = u + v - w, also has a ones there, row
    sum 2, and is a vertex.  A face inherits the pair, since w + z = u + v
    forces w and z onto every face holding u and v, and an affine
    bijection keeps sums.  So lop(m), affinely a face of a double-covering
    polytope, and bqp(n), affinely a face of lop(2n) (Theorem 1), never
    need the LP for "not adjacent".

    >>> from polyface import lop_vertices
    >>> lop3 = lop_vertices(3)
    >>> adjacent(Vertex01.from_string("111"), Vertex01.from_string("000"), lop3)
    False
    >>> adjacent(Vertex01.from_string("110"), Vertex01.from_string("100"), lop3)
    True
    """
    if u == v:
        raise InvalidParameterError("adjacency needs two distinct vertices")
    if u not in vset or v not in vset:
        raise InvalidVertexError("both vertices must belong to the set")
    if _nonadjacency_pair(u.word, v.word, vset.words) is not None:
        return False
    rest = [w for w in vset.words if w != u.word and w != v.word]
    midpoint = RationalPoint.midpoint(u, v)
    return _hull(midpoint, vset.layout.dim, rest).status != "feasible"


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
    result = _hull(barycenter, dim, vset.words, objective)
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
    return all(adjacent(u, v, vset) for u, v in combinations(s, 2))
