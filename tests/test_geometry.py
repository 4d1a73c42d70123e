import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyface import (
    CoordLayout,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidVertexError,
    LPConstraint,
    LPProblem,
    LPResult,
    PolyfaceError,
    RationalPoint,
    Vertex01,
    VertexSet,
    adjacent,
    bqp_vertices,
    clique_check,
    conv_membership,
    dcp_embedding,
    dcp_vertices,
    extract_face,
    is_face_subset,
    lop_vertices,
    lp_feasible,
    theorem1_system,
)
import polyface.geometry as geometry
from polyface.geometry import _audit, _hull, _nonadjacency_pair, _Tableau


def solve_unique(rows, rhs):
    """Exact Gaussian elimination; unique solution or None.

    Returns None when the system is inconsistent or underdetermined.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [
        [Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)
    ]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None
    if len(pivot_cols) < ncols:
        return None
    solution = [Fraction(0)] * ncols
    for row_i, c in enumerate(pivot_cols):
        solution[c] = aug[row_i][ncols]
    return solution


def hull_oracle(coords, vset) -> bool:
    """Independent hull membership: search small barycentric simplices.

    A point lies in the hull iff some affinely independent subset of at most
    dim + 1 vertices carries it with nonnegative unique coefficients.
    """
    dim = vset.layout.dim
    vertices = list(vset)
    for size in range(1, dim + 2):
        for subset in combinations(vertices, size):
            rows = [[v.bit(d) for v in subset] for d in range(dim)]
            rows.append([1] * size)
            lam = solve_unique(rows, list(coords) + [Fraction(1)])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def unit_gap_face(s, vset) -> bool:
    """Independent face test: search for a hyperplane a.x = b on ``s`` with
    a.x <= b - 1 on every other vertex, in free variables (a, b) split into
    nonnegative columns x+ then x-, followed by one slack column per vertex
    outside ``s``.  One row per host vertex."""
    dim = vset.layout.dim
    want = {x.word for x in s}
    outside = [w for w in vset.words if w not in want]
    constraints = []
    for word in vset.words:
        coeffs = tuple((word >> (dim - 1 - d)) & 1 for d in range(dim)) + (-1,)
        split = tuple(v for c in coeffs for v in (c, -c))
        slack = tuple(int(w == word) for w in outside)
        constraints.append(LPConstraint(split + slack, 0 if word in want else -1))
    problem = LPProblem(2 * (dim + 1) + len(outside), tuple(constraints))
    return lp_feasible(problem).status == "feasible"


class TestLpFeasible:
    """Programs in the solver's form: equality rows over nonnegative
    variables, an inequality written with its own slack column."""

    def test_box_feasible(self):
        # x >= 0 and x <= 1 in the columns (x, s, t)
        problem = LPProblem(
            3,
            (
                LPConstraint((1, -1, 0), 0),
                LPConstraint((1, 0, 1), 1),
            ),
        )
        result = lp_feasible(problem)
        assert result.status == "feasible"
        assert 0 <= result.point[0] <= 1

    def test_contradiction_infeasible(self):
        # x >= 1 and x <= 0
        problem = LPProblem(
            3,
            (
                LPConstraint((1, -1, 0), 1),
                LPConstraint((1, 0, 1), 0),
            ),
        )
        assert lp_feasible(problem).status == "infeasible"

    def test_unbounded_with_objective(self):
        problem = LPProblem(
            2,
            (LPConstraint((1, -1), 0),),
            objective=(1, 0),
        )
        assert lp_feasible(problem).status == "unbounded"

    def test_optimal_value(self):
        # max 3x + 2y with x + y <= 4 and x <= 2
        problem = LPProblem(
            4,
            (
                LPConstraint((1, 1, 1, 0), 4),
                LPConstraint((1, 0, 0, 1), 2),
            ),
            objective=(3, 2, 0, 0),
        )
        result = lp_feasible(problem)
        assert result.status == "optimal"
        assert result.objective_value == 10
        assert result.point == (2, 2, 0, 0)
        assert result.duals == (2, 1)

    def test_min_sense(self):
        # a minimum of x + y with x + y >= 3 is a maximum of -x - y
        problem = LPProblem(
            3,
            (LPConstraint((1, 1, -1), 3),),
            objective=(-1, -1, 0),
        )
        result = lp_feasible(problem)
        assert result.status == "optimal"
        assert result.objective_value == -3
        assert result.duals == (-1,)

    def test_negated_row_optimum_and_duals(self):
        # max -x - 2y with x + y >= 2, written -x - y + s = -2, and x <= 3;
        # the first row is negated inside the solver and its dual flipped back
        problem = LPProblem(
            4,
            (
                LPConstraint((-1, -1, 1, 0), -2),
                LPConstraint((1, 0, 0, 1), 3),
            ),
            objective=(-1, -2, 0, 0),
        )
        result = lp_feasible(problem)
        assert result.status == "optimal"
        assert result.point == (2, 0, 0, 1)
        assert result.objective_value == -2
        assert result.duals == (1, 0)

    def test_exact_fractional_solution(self):
        problem = LPProblem(
            1,
            (LPConstraint((3,), 1),),
        )
        result = lp_feasible(problem)
        assert result.status == "feasible"
        assert result.point == (Fraction(1, 3),)

    def test_negative_rhs_normalization(self):
        problem = LPProblem(
            3,
            (
                LPConstraint((-1, 1, 0), -2),  # -x <= -2, so x >= 2
                LPConstraint((1, 0, 1), 5),
            ),
        )
        result = lp_feasible(problem)
        assert result.status == "feasible"
        assert 2 <= result.point[0] <= 5

    def test_zero_variable_infeasible(self):
        problem = LPProblem(0, (LPConstraint((), 1),))
        assert lp_feasible(problem).status == "infeasible"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lp_feasible(LPProblem(2, (LPConstraint((1,), 0),)))

    def test_rational_rhs_with_mixed_denominators(self):
        problem = LPProblem(
            2,
            (
                LPConstraint((2, 0), Fraction(1, 2)),
                LPConstraint((0, -3), Fraction(-2, 3)),
            ),
        )
        result = lp_feasible(problem)
        assert result.status == "feasible"
        assert result.point == (Fraction(1, 4), Fraction(2, 9))

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(1), 1.0, "1"])
    def test_non_integer_coefficient_is_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="coefficients"):
            lp_feasible(LPProblem(2, (LPConstraint((1, value), 1),)))

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(1), 1.0, "1"])
    def test_non_integer_objective_is_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="objective"):
            lp_feasible(LPProblem(2, (LPConstraint((1, 1), 1),), objective=(1, value)))

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_feasible_points_are_exact(self, data):
        nvars = data.draw(st.integers(1, 3))
        nrows = data.draw(st.integers(1, 4))
        rows = []
        for _ in range(nrows):
            coeffs = tuple(
                data.draw(st.integers(-3, 3)) for _ in range(nvars)
            )
            relation = data.draw(st.sampled_from(["<=", ">=", "="]))
            rhs = data.draw(st.integers(-4, 4))
            rows.append((coeffs, relation, rhs))
        inequalities = [i for i, row in enumerate(rows) if row[1] != "="]
        constraints = tuple(
            LPConstraint(
                coeffs
                + tuple((1 if relation == "<=" else -1) * (k == i) for k in inequalities),
                rhs,
            )
            for i, (coeffs, relation, rhs) in enumerate(rows)
        )
        result = lp_feasible(LPProblem(nvars + len(inequalities), constraints))
        assert result.status in ("feasible", "infeasible")
        if result.status == "feasible":
            assert all(x >= 0 for x in result.point)
            for con in constraints:
                assert sum(c * x for c, x in zip(con.coeffs, result.point)) == con.rhs
            for coeffs, relation, rhs in rows:
                value = sum(c * x for c, x in zip(coeffs, result.point))
                if relation == "<=":
                    assert value <= rhs
                elif relation == ">=":
                    assert value >= rhs
                else:
                    assert value == rhs


class TestConvMembership:
    def test_midpoint_of_two_vertices(self):
        vs = lop_vertices(3)
        u, v = vs.vertices[0], vs.vertices[-1]
        assert conv_membership(RationalPoint.midpoint(u, v), vs)

    def test_point_outside_unit_cube(self):
        vs = lop_vertices(3)
        assert not conv_membership(RationalPoint.of((2, 0, 0)), vs)

    def test_center_point(self):
        vs = lop_vertices(3)
        center = RationalPoint.of([Fraction(1, 2)] * 3)
        assert conv_membership(center, vs)

    def test_cube_corner_outside(self):
        # (1,0,1) violates a transitivity inequality, so it escapes the hull
        vs = lop_vertices(3)
        assert not conv_membership(RationalPoint.of((1, 0, 1)), vs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conv_membership(RationalPoint.of((1,)), lop_vertices(3))

    def test_agrees_with_barycentric_oracle_on_vertices_and_midpoints(self):
        vs = lop_vertices(3)
        points = [RationalPoint.of(v.bits) for v in vs]
        points += [
            RationalPoint.midpoint(u, v)
            for u, v in combinations(vs.vertices, 2)
        ]
        points += [
            RationalPoint.of((1, 0, 1)),
            RationalPoint.of((0, 1, 0)),
            RationalPoint.of([Fraction(1, 3)] * 3),
        ]
        for p in points:
            assert conv_membership(p, vs) == hull_oracle(p.coords, vs)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.fractions(
                min_value=Fraction(-1, 2),
                max_value=Fraction(3, 2),
                max_denominator=4,
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_agrees_with_barycentric_oracle_on_random_points(self, coords):
        vs = lop_vertices(3)
        p = RationalPoint.of(coords)
        assert conv_membership(p, vs) == hull_oracle(p.coords, vs)


class TestAdjacent:
    def test_adjacent_pair(self):
        vs = lop_vertices(3)
        assert adjacent(
            Vertex01.from_string("111"), Vertex01.from_string("011"), vs
        )

    def test_non_adjacent_pair(self):
        vs = lop_vertices(3)
        assert not adjacent(
            Vertex01.from_string("111"), Vertex01.from_string("000"), vs
        )

    def test_quadric_graph_is_complete(self):
        vs = bqp_vertices(2)
        for u, v in combinations(vs.vertices, 2):
            assert adjacent(u, v, vs)

    def test_symmetric(self):
        vs = lop_vertices(3)
        for u, v in combinations(vs.vertices, 2):
            assert adjacent(u, v, vs) == adjacent(v, u, vs)

    def test_identical_vertices_rejected(self):
        vs = lop_vertices(3)
        v = vs.vertices[0]
        with pytest.raises(InvalidParameterError):
            adjacent(v, v, vs)

    def test_foreign_vertex_rejected(self):
        vs = lop_vertices(3)
        with pytest.raises(InvalidVertexError):
            adjacent(Vertex01.from_string("101"), vs.vertices[0], vs)

    def test_two_vertex_set(self):
        vs = bqp_vertices(1)
        assert adjacent(vs.vertices[0], vs.vertices[1], vs)


def lp_adjacent(u, v, vset) -> bool:
    """The midpoint LP alone: (u+v)/2 outside the hull of the other words."""
    rest = [w for w in vset.words if w != u.word and w != v.word]
    midpoint = RationalPoint.midpoint(u, v)
    return _hull(midpoint, vset.layout.dim, rest).status != "feasible"


def dcp3_host():
    emb = dcp_embedding(3)
    return dcp_vertices(emb.matrix, layout=emb.layout)


class TestNonadjacencyPair:
    """The pair route against the midpoint LP, on hosts where the pair
    criterion is complete: every pair found is a sum certificate, and a
    pair exists exactly when the LP says "not adjacent"."""

    def check(self, vset, pairs) -> set:
        verdicts = set()
        for u, v in pairs:
            found = _nonadjacency_pair(u.word, v.word, vset.words)
            assert (found is None) == lp_adjacent(u, v, vset), (u, v)
            assert (found is None) == adjacent(u, v, vset)
            if found is not None:
                w, z = (Vertex01(vset.layout.dim, x) for x in found)
                assert w in vset and z in vset
                assert not {w, z} & {u, v}
                assert [a + b for a, b in zip(w.bits, z.bits)] == [
                    a + b for a, b in zip(u.bits, v.bits)
                ]
            verdicts.add(found is None)
        return verdicts

    @pytest.mark.parametrize("family", ["lop4", "bqp4", "dcp3"])
    def test_every_pair(self, family):
        vset = {
            "lop4": lambda: lop_vertices(4),
            "bqp4": lambda: bqp_vertices(4),
            "dcp3": dcp3_host,
        }[family]()
        verdicts = self.check(vset, combinations(vset.vertices, 2))
        assert verdicts == ({True} if family == "bqp4" else {True, False})

    def test_seeded_pairs_of_lop5_and_lop6(self, lop6):
        rng = random.Random(17)
        for vset, count in ((lop_vertices(5), 80), (lop6, 16)):
            pairs = [rng.sample(vset.vertices, 2) for _ in range(count)]
            assert self.check(vset, pairs) == {True, False}

    def test_lp_decides_where_no_pair_exists(self):
        # the midpoint of 0000 and 1111 is the mean of the four other words,
        # and no two of those sum to 1111
        words = [0b0000, 0b1111, 0b1110, 0b1001, 0b0101, 0b0010]
        vset = VertexSet.from_words(CoordLayout.stable(4), words)
        u, v = Vertex01(4, 0b0000), Vertex01(4, 0b1111)
        assert _nonadjacency_pair(u.word, v.word, vset.words) is None
        assert not lp_adjacent(u, v, vset)
        assert not adjacent(u, v, vset)


class TestIsFaceSubset:
    def test_every_vertex_is_a_face(self):
        vs = lop_vertices(3)
        for v in vs:
            ok, certificate = is_face_subset([v], vs)
            assert ok
            assert certificate is not None

    def test_non_adjacent_pair_is_not_a_face(self):
        vs = lop_vertices(3)
        ok, certificate = is_face_subset(
            [Vertex01.from_string("111"), Vertex01.from_string("000")], vs
        )
        assert not ok and certificate is None

    def test_whole_set_is_a_face(self):
        vs = lop_vertices(3)
        ok, _ = is_face_subset(list(vs), vs)
        assert ok

    def test_certificate_validates(self):
        vs = lop_vertices(3)
        subset = [Vertex01.from_string("111"), Vertex01.from_string("011")]
        ok, certificate = is_face_subset(subset, vs)
        assert ok
        want = {v.word for v in subset}
        for v in vs:
            value = certificate.evaluate(v)
            if v.word in want:
                assert value == certificate.rhs
            else:
                assert value <= certificate.rhs - 1
        assert all(isinstance(c, int) for c in certificate.coeffs)

    def test_foreign_vertex_rejected(self):
        vs = lop_vertices(3)
        with pytest.raises(InvalidVertexError):
            is_face_subset([Vertex01.from_string("101")], vs)

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidParameterError):
            is_face_subset([], lop_vertices(3))


class TestInternalErrors:
    """The checks that stop a wrong LP answer from leaving the module."""

    PROBLEM = LPProblem(2, (LPConstraint((1, 1), 1),))

    def test_audit_refuses_a_point_off_an_equality(self):
        with pytest.raises(PolyfaceError, match="^simplex returned a point violating an equality$"):
            _audit(self.PROBLEM, (Fraction(1), Fraction(1)))

    def test_audit_refuses_a_negative_coordinate(self):
        with pytest.raises(PolyfaceError, match="^simplex returned a negative coordinate$"):
            _audit(self.PROBLEM, (Fraction(2), Fraction(-1)))

    def test_unbounded_phase_one(self, monkeypatch):
        monkeypatch.setattr(_Tableau, "minimize", lambda self, enterable: "unbounded")
        with pytest.raises(PolyfaceError, match="^internal error: unbounded feasibility phase$"):
            lp_feasible(self.PROBLEM)

    @pytest.mark.parametrize("duals, message", [
        # 0.x <= 1 is not tight on the subset
        ((0, 0, 0, 1), "face certificate failed equality re-validation"),
        # 0.x <= 0 is tight on every vertex, with no unit gap off the subset
        ((0, 0, 0, 0), "face certificate failed gap re-validation"),
    ])
    def test_face_certificate_revalidated(self, monkeypatch, duals, message):
        answer = LPResult("optimal", None, Fraction(0), tuple(map(Fraction, duals)))
        monkeypatch.setattr(geometry, "_hull", lambda *args: answer)
        subset = [Vertex01.from_string("111"), Vertex01.from_string("011")]
        with pytest.raises(PolyfaceError, match=f"^{message}$"):
            is_face_subset(subset, lop_vertices(3))


class TestCliqueCheck:
    def test_quadric_face_in_lop4(self):
        vs = lop_vertices(4)
        face = extract_face(vs, theorem1_system(2)).face
        assert len(face) == 4
        assert clique_check(list(face), vs)

    def test_mixed_triple_fails(self):
        vs = lop_vertices(3)
        triple = [
            Vertex01.from_string("111"),
            Vertex01.from_string("000"),
            Vertex01.from_string("110"),
        ]
        assert not clique_check(triple, vs)

    def test_too_small_rejected(self):
        vs = lop_vertices(3)
        with pytest.raises(InvalidParameterError):
            clique_check([vs.vertices[0]], vs)


class TestCrossOracleConsistency:
    @pytest.mark.parametrize("family", ["lop3", "bqp2"])
    def test_adjacency_matches_two_vertex_faces(self, family):
        vs = lop_vertices(3) if family == "lop3" else bqp_vertices(2)
        for u, v in combinations(vs.vertices, 2):
            ok, _ = is_face_subset([u, v], vs)
            assert adjacent(u, v, vs) == ok


class TestFaceOracle:
    """The barycenter LP against the unit-gap hyperplane search."""

    @pytest.mark.parametrize("family", ["bqp3", "lop3"])
    def test_every_small_subset(self, family):
        vs = bqp_vertices(3) if family == "bqp3" else lop_vertices(3)
        for size in (1, 2, 3):
            for subset in combinations(vs.vertices, size):
                ok, _ = is_face_subset(list(subset), vs)
                assert ok == unit_gap_face(subset, vs), subset

    def test_seeded_subsets_of_lop4(self):
        vs = lop_vertices(4)
        rng = random.Random(8)
        verdicts = set()
        for _ in range(24):
            subset = rng.sample(vs.vertices, rng.randint(1, 4))
            ok, _ = is_face_subset(subset, vs)
            assert ok == unit_gap_face(subset, vs), subset
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_seeded_subsets_of_a_low_dimensional_host(self, lop6):
        # the Theorem-1 face of lop(6): 8 vertices, a 6-dimensional hull in 15
        # coordinates, so the hull LP has redundant coordinate rows
        face = extract_face(lop6, theorem1_system(3)).face
        rng = random.Random(8)
        verdicts = set()
        for _ in range(30):
            subset = rng.sample(face.vertices, rng.randint(1, 8))
            ok, _ = is_face_subset(subset, face)
            assert ok == unit_gap_face(subset, face), subset
            verdicts.add(ok)
        assert verdicts == {True, False}
