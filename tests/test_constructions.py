import json
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import factorial, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyface.constructions as constructions
from polyface import (
    CapacityError,
    CoordLayout,
    DimensionMismatchError,
    FaceSystem,
    FourOnesMatrix,
    Graph,
    InvalidParameterError,
    InvalidVertexError,
    LPProblem,
    LinearForm,
    ParseError,
    Permutation,
    RationalPoint,
    Report,
    Vertex01,
    VertexSet,
    bqp_vertices,
    dcp_embedding,
    dcp_face_system,
    dcp_verify,
    dcp_vertices,
    extract_face,
    lemma1_lift,
    lemma1_project,
    lemma1_system,
    lemma1_verify,
    lop_vertices,
    lp_feasible,
    pair_index,
    perm_to_lop_vertex,
    sequence_to_perm,
    stable_vertices,
    theorem1_lift,
    theorem1_project,
    theorem1_system,
    theorem1_verify,
)
from polyface.core import lop_vertex_to_perm, pairs, word_to_string
from polyface.generators import lop_face

# The eight face rows for n = 3: sequence, zero-block size, descending index
# sets carrying diagonal 0 and diagonal 1.
FACE_TABLE_N3 = {
    "654321": (3, (3, 2, 1), ()),
    "165432": (2, (3, 2), (1,)),
    "365214": (2, (3, 1), (2,)),
    "543216": (2, (2, 1), (3,)),
    "316542": (1, (3,), (2, 1)),
    "514362": (1, (2,), (3, 1)),
    "532164": (1, (1,), (3, 2)),
    "531642": (0, (), (3, 2, 1)),
}


def bqp_vertex_from_diagonal(diag: tuple[int, ...]) -> Vertex01:
    n = len(diag)
    bits = list(diag) + [diag[i - 1] * diag[j - 1] for i, j in pairs(n)]
    return Vertex01.from_bits(bits)


def every_graph(n: int) -> list[Graph]:
    """The 2^C(n,2) labelled graphs on [n]."""
    candidates = pairs(n)
    return [Graph.from_edges(n, chosen)
            for r in range(len(candidates) + 1) for chosen in combinations(candidates, r)]


def scan_host(monkeypatch, lop8: VertexSet) -> None:
    """Route the verifiers' face through ``extract_face`` on the whole of
    lop(m), the oracle for the face search."""
    def scan(fs, max_perms):
        m = fs.layout.param
        return extract_face(lop8 if m == 8 else lop_vertices(m), fs)

    monkeypatch.setattr(constructions, "lop_face", scan)


class TestTheorem1System:
    def test_n1_empty(self):
        assert len(theorem1_system(1)) == 0

    def test_n2_exact_equalities(self):
        fs = theorem1_system(2)
        assert len(fs) == 3
        m = 4
        dim = 6

        def coeffs(entries):
            row = [0] * dim
            for (a, b), c in entries.items():
                row[pair_index(a, b, m)] = c
            return tuple(row)

        assert fs.equalities[0].coeffs == coeffs({(2, 3): 1})
        assert fs.equalities[1].coeffs == coeffs({(1, 2): 1, (2, 4): 1, (1, 4): -1})
        assert fs.equalities[2].coeffs == coeffs({(1, 3): 1, (3, 4): 1, (1, 4): -1})
        assert all(f.rhs == 0 for f in fs.equalities)

    def test_counts(self):
        assert len(theorem1_system(3)) == 9
        assert len(theorem1_system(4)) == 18

    def test_n0_rejected(self):
        with pytest.raises(InvalidParameterError):
            theorem1_system(0)


class TestTheorem1Project:
    def test_n1_identity(self):
        proj = theorem1_project(1)
        assert [row.coeffs for row in proj.rows] == [(1,)]

    def test_reversal_maps_to_origin(self):
        proj = theorem1_project(3)
        v = perm_to_lop_vertex(sequence_to_perm("654321"))
        assert proj.apply(v.bits) == (0,) * 6

    def test_interleaved_sequence_maps_to_all_ones(self):
        proj = theorem1_project(3)
        v = perm_to_lop_vertex(sequence_to_perm("531642"))
        assert proj.apply(v.bits) == (1,) * 6


class TestTheorem1Lift:
    @pytest.mark.parametrize("diag,expected", [
        ((0, 0, 0), "654321"),
        ((1, 0, 0), "165432"),
        ((0, 1, 0), "365214"),
    ])
    def test_named_rows(self, diag, expected):
        perm = theorem1_lift(bqp_vertex_from_diagonal(diag))
        assert perm.sequence_str() == expected

    def test_full_table(self):
        got = {}
        for d in range(8):
            diag = tuple((d >> (2 - i)) & 1 for i in range(3))
            perm = theorem1_lift(bqp_vertex_from_diagonal(diag))
            zeros = tuple(i for i in range(3, 0, -1) if diag[i - 1] == 0)
            ones = tuple(i for i in range(3, 0, -1) if diag[i - 1] == 1)
            got[perm.sequence_str()] = (len(zeros), zeros, ones)
        assert got == FACE_TABLE_N3

    def test_invalid_vertex_rejected(self):
        # diagonal (1,1) with off-diagonal 0 breaks the product structure
        bad = Vertex01.from_string("110")
        with pytest.raises(InvalidVertexError):
            theorem1_lift(bad)

    @pytest.mark.parametrize("string,pair", [
        ("111010", "(1,2)"), ("101000", "(1,3)"), ("000001", "(2,3)"), ("011100", "(1,2)"),
    ])
    def test_invalid_vertex_names_first_failing_pair(self, string, pair):
        with pytest.raises(InvalidVertexError) as error:
            theorem1_lift(Vertex01.from_string(string))
        assert str(error.value) == f"{string} violates the product structure at pair {pair}"

    def test_lifts_exactly_the_quadric_vertices(self, lop6):
        # every 0/1 word of bqp(3)'s dimension against a per-pair check
        face = extract_face(lop6, theorem1_system(3)).face
        for word in range(1 << 6):
            x = Vertex01(6, word)
            diag = x.bits[:3]
            broken = [(i, j) for i, j in pairs(3)
                      if x.bit(3 + pair_index(i, j, 3)) != diag[i - 1] * diag[j - 1]]
            if not broken:
                assert x in bqp_vertices(3)
                assert perm_to_lop_vertex(theorem1_lift(x)) in face
                continue
            with pytest.raises(InvalidVertexError, match=r"at pair \(%d,%d\)$" % broken[0]):
                theorem1_lift(x)

    def test_bad_dimension_rejected(self):
        with pytest.raises(InvalidVertexError, match=r"^dimension 4 is not of the form n\(n\+1\)/2$"):
            theorem1_lift(Vertex01.from_string("1100"))

    def test_dimension_zero_names_the_least_n(self):
        # 0 = 0 * 1 / 2, so the reason is n >= 1, not the form of the dimension
        with pytest.raises(InvalidVertexError) as error:
            theorem1_lift(Vertex01(0, 0))
        assert str(error.value) == ("dimension 0 is n(n+1)/2 for n = 0, "
                                    "but a quadric vertex needs n >= 1")

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_positions_partition_even_range(self, diag):
        # sequence_to_perm validates that the lift's sequence lists every
        # element of [2n] exactly once.
        perm = theorem1_lift(bqp_vertex_from_diagonal(tuple(diag)))
        assert perm.m == 2 * len(diag)


class TestTheorem1Verify:
    def test_n1(self):
        report = theorem1_verify(1)
        assert report.all_passed
        assert report.details["face_size"] == 2
        assert report.details["lop_size"] == 2

    def test_n2(self):
        report = theorem1_verify(2)
        assert report.all_passed
        assert report.details["face_size"] == 4
        assert report.details["lop_size"] == 24
        assert set(report.details["face_sequences"]) == {
            "4321", "1432", "3214", "3142",
        }

    def test_n2_face_words(self):
        face = extract_face(lop_vertices(4), theorem1_system(2)).face
        assert {v.to_string() for v in face} == {
            "000000", "111000", "001011", "101001",
        }

    def test_n3_matches_table(self):
        report = theorem1_verify(3)
        assert report.all_passed
        assert set(report.details["face_sequences"]) == set(FACE_TABLE_N3)

    def test_face_equals_lift_image(self, lop6):
        face = extract_face(lop6, theorem1_system(3)).face
        lifted = {
            perm_to_lop_vertex(theorem1_lift(x)).word for x in bqp_vertices(3)
        }
        assert set(face.words) == lifted

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_exhaustive(self, n):
        proj = theorem1_project(n)
        for x in bqp_vertices(n):
            y = perm_to_lop_vertex(theorem1_lift(x))
            assert proj.apply(y.bits) == x.bits

    @pytest.mark.parametrize("n", range(1, 7))
    def test_face_sequences_match_decoding(self, n):
        # the sequences come from the lifts; decoding each face word is the oracle
        face = lop_face(theorem1_system(n)).face
        expected = [lop_vertex_to_perm(v, 2 * n).sequence_str() for v in face]
        assert theorem1_verify(n).details["face_sequences"] == expected

    def test_cap_exceeded(self):
        # the face search emits the face's 2^n orders, so 2^5 = 32 needs a budget of 32
        with pytest.raises(CapacityError, match="budget of 31"):
            theorem1_verify(5, max_perms=31)
        report = theorem1_verify(5, max_perms=32)
        assert report.all_passed
        assert report.details["lop_size"] == 3628800

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_face_search_matches_host_scan(self, n, lop8):
        host = lop8 if n == 4 else lop_vertices(2 * n)
        fs = theorem1_system(n)
        assert lop_face(fs).face == extract_face(host, fs).face

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_report_bytes_match_host_scan_route(self, n, lop8, monkeypatch):
        expected = theorem1_verify(n).to_json()
        scan_host(monkeypatch, lop8)
        assert theorem1_verify(n).to_json() == expected


class TestLemma1System:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(1, 2)])
        fs = lemma1_system(g)
        assert len(fs) == 2
        dim = 6
        row14 = [0] * dim
        row14[pair_index(1, 4, 4)] = 1
        row23 = [0] * dim
        row23[pair_index(2, 3, 4)] = 1
        assert fs.equalities[0].coeffs == tuple(row14)
        assert fs.equalities[1].coeffs == tuple(row23)

    def test_empty_graph(self):
        assert len(lemma1_system(Graph.empty(3))) == 0

    def test_triangle(self):
        assert len(lemma1_system(Graph.complete(3))) == 6


class TestLemma1Project:
    def test_n2_selects_diagonal_pairs(self):
        proj = lemma1_project(2)
        dim = 6
        expected = []
        for i in (1, 2):
            row = [0] * dim
            row[pair_index(i, 2 + i, 4)] = 1
            expected.append(tuple(row))
        assert [row.coeffs for row in proj.rows] == expected

    def test_n1_selects_single_pair(self):
        proj = lemma1_project(1)
        assert [row.coeffs for row in proj.rows] == [(1,)]


class TestLemma1Lift:
    def test_k2_lift(self):
        g = Graph.from_edges(2, [(1, 2)])
        x = Vertex01.from_string("10")
        perm = lemma1_lift(x, g)
        assert perm.sequence == (4, 1, 3, 2)
        assert perm.sequence_str() == "4132"
        y = perm_to_lop_vertex(perm)
        m = 4
        assert y.bit(pair_index(1, 3, m)) == 1
        assert y.bit(pair_index(2, 4, m)) == 0
        assert y.bit(pair_index(1, 4, m)) == 0
        assert y.bit(pair_index(2, 3, m)) == 0

    def test_all_zeros(self):
        g = Graph.complete(3)
        y = perm_to_lop_vertex(lemma1_lift(Vertex01.from_string("000"), g))
        for i in (1, 2, 3):
            assert y.bit(pair_index(i, 3 + i, 6)) == 0

    def test_all_ones_empty_graph(self):
        g = Graph.empty(3)
        y = perm_to_lop_vertex(lemma1_lift(Vertex01.from_string("111"), g))
        for i in (1, 2, 3):
            assert y.bit(pair_index(i, 3 + i, 6)) == 1

    def test_unstable_vertex_rejected(self):
        g = Graph.from_edges(2, [(1, 2)])
        with pytest.raises(InvalidVertexError):
            lemma1_lift(Vertex01.from_string("11"), g)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_positions_partition_even_range(self, bits):
        g = Graph.empty(len(bits))
        perm = lemma1_lift(Vertex01.from_bits(bits), g)
        assert perm.m == 2 * len(bits)


def order_at_positions(pos: list[int]) -> Permutation:
    """The order that puts each element e at position pos[e] (pos[0] is
    unused); positions that are not a bijection leave a 0 and are refused."""
    seq = [0] * (len(pos) - 1)
    for e, p in enumerate(pos[1:], start=1):
        seq[p - 1] = e
    return Permutation(tuple(seq))


def theorem1_lift_by_positions(x: Vertex01) -> Permutation:
    """The Theorem-1 lift by position arithmetic: with k diagonal zeros i_s
    and ones i'_t, each descending, pos(2i_s - 1) = n - k + 2s,
    pos(2i_s) = n - k + 2s - 1, pos(2i'_t - 1) = t, pos(2i'_t) = n + k + t."""
    n = (isqrt(8 * x.dim + 1) - 1) // 2
    diag = x.bits[:n]
    zeros_desc = [i for i in range(n, 0, -1) if diag[i - 1] == 0]
    ones_desc = [i for i in range(n, 0, -1) if diag[i - 1] == 1]
    k = len(zeros_desc)
    pos = [0] * (2 * n + 1)
    for s, i in enumerate(zeros_desc, start=1):
        pos[2 * i - 1] = n - k + 2 * s
        pos[2 * i] = n - k + 2 * s - 1
    for t, i in enumerate(ones_desc, start=1):
        pos[2 * i - 1] = t
        pos[2 * i] = n + k + t
    return order_at_positions(pos)


def lemma1_lift_by_positions(x: Vertex01) -> Permutation:
    """The Lemma-1 lift by position arithmetic: with k zeros i_s and ones
    i'_t, each descending, pos(i_s) = 2n - k + s, pos(n + i_s) = s,
    pos(i'_t) = k + t, pos(n + i'_t) = n + t."""
    n = x.dim
    zeros_desc = [i for i in range(n, 0, -1) if x.bit(i - 1) == 0]
    ones_desc = [i for i in range(n, 0, -1) if x.bit(i - 1) == 1]
    k = len(zeros_desc)
    pos = [0] * (2 * n + 1)
    for s, i in enumerate(zeros_desc, start=1):
        pos[i] = 2 * n - k + s
        pos[n + i] = s
    for t, i in enumerate(ones_desc, start=1):
        pos[i] = k + t
        pos[n + i] = n + t
    return order_at_positions(pos)


class TestLiftsMatchPositionFormulas:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_theorem1_every_bqp_vertex(self, n):
        for x in bqp_vertices(n):
            assert theorem1_lift(x) == theorem1_lift_by_positions(x), x

    @pytest.mark.parametrize("g", [Graph.empty(n) for n in range(1, 9)] + [
        Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    ], ids=[f"empty{n}" for n in range(1, 9)] + ["C4", "C5"])
    def test_lemma1_every_stable_vertex(self, g):
        for x in stable_vertices(g):
            assert lemma1_lift(x, g) == lemma1_lift_by_positions(x), x


class TestLemma1Verify:
    def test_k2(self):
        g = Graph.from_edges(2, [(1, 2)])
        report = lemma1_verify(g)
        assert report.all_passed
        assert report.details["stable_size"] == 3
        assert set(report.details["fibers"]) == {"00", "10", "01"}
        assert all(c >= 1 for c in report.details["fibers"].values())

    def test_empty_graph_projects_everywhere(self):
        report = lemma1_verify(Graph.empty(2))
        assert report.all_passed
        assert report.details["face_size"] == 24
        assert report.details["stable_size"] == 4

    def test_path_on_three_vertices(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        report = lemma1_verify(g)
        assert report.all_passed
        assert report.details["stable_size"] == 5

    def test_all_graphs_up_to_three_vertices(self):
        for n in (1, 2, 3):
            for g in every_graph(n):
                assert lemma1_verify(g).all_passed, (n, g.sorted_edges())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_face_search_matches_host_scan_on_every_graph(self, n, lop8):
        host = lop8 if n == 4 else lop_vertices(2 * n)
        graphs = every_graph(n)
        assert len(graphs) == 2 ** len(pairs(n))
        for g in graphs:
            fs = lemma1_system(g)
            assert lop_face(fs).face == extract_face(host, fs).face, g.sorted_edges()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_report_bytes_match_host_scan_route_on_every_graph(self, n, lop8):
        # the counted fields, recomputed from the face that extract_face cuts
        # out of the whole of lop(2n), leave the report's bytes as they are
        host = lop8 if n == 4 else lop_vertices(2 * n)
        proj = lemma1_project(n)
        for g in every_graph(n):
            report = lemma1_verify(g)
            face = extract_face(host, lemma1_system(g)).face
            fibers = Counter(proj.apply_word(w) for w in face.words)
            scanned = replace(report, details=report.details | {
                "face_size": len(face),
                "fibers": {word_to_string(w, n): c for w, c in sorted(fibers.items())},
            })
            assert scanned.to_json() == report.to_json(), g.sorted_edges()
            lifts = {perm_to_lop_vertex(lemma1_lift(x, g)).word for x in stable_vertices(g)}
            assert lifts <= set(face.words), g.sorted_edges()

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_face_search_on_seeded_five_vertex_graphs(self, seed):
        rng = random.Random(500 + seed)
        g = Graph.from_edges(5, [p for p in pairs(5) if rng.random() < 0.5])
        face = lop_face(lemma1_system(g), max_perms=factorial(10)).face
        # the projection reads only the bits under its rows' masks
        proj = lemma1_project(5)
        support = sum(row.support_mask for row in proj.rows)
        fibers = Counter()
        for pattern, count in Counter(w & support for w in face.words).items():
            fibers[proj.apply_word(pattern)] += count
        details = lemma1_verify(g).details
        assert details["face_size"] == len(face)
        assert details["fibers"] == {
            word_to_string(w, 5): count for w, count in sorted(fibers.items())}

    def test_cap_exceeded(self):
        # the count on 5 vertices may hold 5^5 = 3125 states
        cycle = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        with pytest.raises(CapacityError, match=r"5\^5 states of the lemma-1 count for a graph "
                                                r"on 5 vertices exceed the budget of 3124"):
            lemma1_verify(cycle, max_perms=3124)
        assert lemma1_verify(cycle, max_perms=3125).all_passed

    def test_edgeless_five_vertex_graph_passes_at_the_default_budget(self):
        # its face holds all 10! orders, over the default budget, but is counted
        report = lemma1_verify(Graph.empty(5))
        assert report.all_passed and report.details["face_size"] == 3628800
        assert report.details["fibers"] == {word_to_string(w, 5): 113400 for w in range(32)}

    def test_every_five_vertex_graph_passes_at_the_default_budget(self):
        graphs = every_graph(5)
        assert len(graphs) == 1024
        for g in graphs:
            assert lemma1_verify(g).all_passed, g.sorted_edges()

    def test_six_vertex_graphs_pass_at_the_default_budget(self):
        rng = random.Random(600)
        graphs = [Graph.from_edges(6, [p for p in pairs(6) if rng.random() < 0.5])
                  for _ in range(50)]
        graphs.append(Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]))
        for g in graphs:
            assert lemma1_verify(g).all_passed, g.sorted_edges()

    def test_seven_vertex_graph_needs_5_to_the_7_states(self):
        with pytest.raises(CapacityError, match=r"5\^7 states of the lemma-1 count for a graph "
                                                r"on 7 vertices exceed the budget of 40320"):
            lemma1_verify(Graph.empty(7))
        report = lemma1_verify(Graph.empty(7), max_perms=78125)
        assert report.all_passed and report.details["face_size"] == factorial(14)

    def test_huge_graph_refused_before_its_system(self, monkeypatch):
        def fail(*_):
            raise AssertionError("built for a refused graph")

        monkeypatch.setattr(constructions, "lemma1_system", fail)
        monkeypatch.setattr(constructions, "stable_vertices", fail)
        with pytest.raises(CapacityError, match=r"5\^100 states"):
            lemma1_verify(Graph.complete(100))


@pytest.mark.parametrize("run, product", [
    (lambda budget: theorem1_verify(3, max_perms=budget).all_passed, 8),
    (lambda budget: lemma1_verify(Graph.empty(2), max_perms=budget).all_passed, 25),
    (lambda budget: len(lop_vertices(4, max_perms=budget)) == 24, 24),
], ids=["theorem1_2^3_orders", "lemma1_5^2_states", "lop_4!_orders"])
def test_up_front_budget_boundary(run, product):
    # one short of the product, zero and negative budgets are refused, each named
    for budget in (product - 1, 0, -1):
        with pytest.raises(CapacityError, match=re.escape(f"the budget of {budget}; raise")):
            run(budget)
    assert run(product)


class TestDcpEmbedding:
    def test_m3_shape(self):
        emb = dcp_embedding(3)
        assert emb.matrix.k == 4
        assert emb.layout.dim == 9
        assert emb.fixed == {"z": 0, "h": 1}

    def test_m4_shape(self):
        emb = dcp_embedding(4)
        assert emb.matrix.k == 10
        assert emb.layout.dim == 18

    def test_rows_have_four_ones(self):
        for m in (3, 4, 5):
            for row in dcp_embedding(m).matrix.rows:
                assert len(set(row)) == 4

    def test_column_label_order(self):
        emb = dcp_embedding(3)
        assert emb.layout.labels == (
            "y(1,2)", "y(1,3)", "y(2,3)",
            "yb(1,2)", "yb(1,3)", "yb(2,3)",
            "z", "h", "t(1,2,3)",
        )

    def test_m2_rejected(self):
        with pytest.raises(InvalidParameterError):
            dcp_embedding(2)


class TestDcpVerify:
    def test_m3(self):
        report = dcp_verify(3)
        assert report.all_passed
        assert report.details["dcp_size"] == 12
        assert report.details["face_size"] == 6
        assert report.details["rows"] == 4

    def test_m4(self):
        report = dcp_verify(4)
        assert report.all_passed
        assert report.details["dcp_size"] == 48
        assert report.details["face_size"] == 24

    def test_order_budget_fails_before_the_dcp_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("dcp_vertices ran before the order budget was checked")

        monkeypatch.setattr(constructions, "dcp_vertices", no_search)
        with pytest.raises(CapacityError):
            dcp_verify(9, max_cols=200)

    def test_order_budget_fails_before_the_embedding(self, monkeypatch):
        def no_embedding(m):
            raise AssertionError("dcp_embedding ran before the order budget was checked")

        monkeypatch.setattr(constructions, "dcp_embedding", no_embedding)
        with pytest.raises(CapacityError):
            dcp_verify(9)

    @pytest.mark.parametrize("m", [0, 2])
    def test_m_below_three_rejected(self, m):
        with pytest.raises(InvalidParameterError):
            dcp_verify(m)

    def test_m6_needs_budget(self):
        with pytest.raises(CapacityError):
            dcp_verify(6)
        report = dcp_verify(6, max_cols=52)
        assert report.all_passed
        assert report.details["face_size"] == 720

    def test_complement_coordinates_on_face(self):
        # on the face the paired column is the logical complement
        report = dcp_verify(3)
        assert report.assertion("complement_coordinates").passed


class TestReport:
    def test_json_round_trip(self):
        report = theorem1_verify(2)
        obj = json.loads(report.to_json())
        assert set(obj) == {"construction", "params", "assertions", "details"}
        parsed = Report.from_json_obj(obj)
        assert parsed.construction == "theorem1"
        assert parsed.all_passed
        assert [a.name for a in parsed.assertions] == [
            a.name for a in report.assertions
        ]

    def test_witness_only_on_failure(self):
        report = theorem1_verify(2)
        assert all(a.witness is None for a in report.assertions)
        report.check("forced_failure", False, witness="details here")
        assert report.assertion("forced_failure").witness == "details here"
        assert not report.all_passed

    def test_render_text_lists_assertions(self):
        text = theorem1_verify(2).render_text()
        assert "PASS face_cardinality" in text
        assert "result: PASS" in text


@pytest.mark.parametrize("call,error,message", [
    (lambda: theorem1_verify(0), InvalidParameterError, "need n >= 1, got 0"),
    (lambda: theorem1_project(0), InvalidParameterError, "need n >= 1, got 0"),
    (lambda: lemma1_project(0), InvalidParameterError, "need n >= 1, got 0"),
    (lambda: lemma1_lift(Vertex01.from_string("101"), Graph.empty(2)), DimensionMismatchError,
     "vertex of dim 3 for a graph on 2 vertices"),
    (lambda: lop_vertex_to_perm(Vertex01.from_string("10"), 3), DimensionMismatchError,
     "cannot encode a linear order on [3]"),
    (lambda: dcp_vertices(FourOnesMatrix.from_rows(4, [(1, 2, 3, 4)]),
                          layout=CoordLayout.dcp(5)), InvalidParameterError,
     "layout of dimension 5 for a 4-column matrix"),
    (lambda: Report("demo", {}).assertion("missing"), KeyError, "missing"),
    # core
    (lambda: CoordLayout.lop(3).index_of("q"), InvalidParameterError,
     "no coordinate labelled 'q'"),
    (lambda: CoordLayout.from_header("layout lop"), ParseError, "bad layout header"),
    (lambda: CoordLayout.from_header("layout lop x"), ParseError, "bad layout parameter: 'x'"),
    (lambda: CoordLayout.from_json_obj({"param": 3}), ParseError, "bad layout object"),
    (lambda: Vertex01(-1, 0), InvalidVertexError, "dimension must be >= 0, got -1"),
    (lambda: Vertex01(3, 0).bit(3), InvalidVertexError, "coordinate 3 out of range for dim 3"),
    (lambda: VertexSet.from_text(""), ParseError, "empty vertex-set file"),
    (lambda: VertexSet.from_json_obj({}), ParseError, "bad vertex-set object"),
    (lambda: VertexSet.from_json("{"), ParseError, "bad JSON"),
    (lambda: sequence_to_perm("1a2"), ParseError, "bad permutation sequence: '1a2'"),
    (lambda: LinearForm((1,), "<", 0), InvalidParameterError, "relation must be one of"),
    (lambda: LinearForm.parse("1 x = 0"), ParseError, "bad integer in form line"),
    # generators
    (lambda: Graph(0, frozenset()), InvalidParameterError, "graph needs n >= 1, got 0"),
    (lambda: FourOnesMatrix(0, ()), InvalidParameterError, "matrix needs >= 1 column, got 0"),
    (lambda: Graph.parse("n 2\n1 x\n"), ParseError, "bad integer in a 'n' file"),
    # geometry
    (lambda: RationalPoint.midpoint(Vertex01.from_string("10"), Vertex01.from_string("101")),
     DimensionMismatchError, "midpoint of dims 2 and 3"),
    (lambda: lp_feasible(LPProblem(-1, ())), InvalidParameterError,
     "variable count must be >= 0"),
    (lambda: lp_feasible(LPProblem(2, (), (1,))), DimensionMismatchError,
     "objective width does not match variable count"),
], ids=["theorem1_verify", "theorem1_project", "lemma1_project", "lemma1_lift",
        "lop_vertex_to_perm", "dcp_vertices", "report_assertion",
        "layout_index_of", "layout_header_short", "layout_header_param", "layout_json",
        "vertex_dim", "vertex_bit", "vertex_set_text", "vertex_set_json_obj",
        "vertex_set_json", "sequence_to_perm", "form_relation", "form_parse",
        "graph_n", "matrix_cols", "graph_parse",
        "midpoint_dims", "lp_variables", "lp_objective_width"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def _unit_row(a: int, b: int, m: int) -> list[Fraction]:
    """The row over lop(m) coordinates that reads y(a,b)."""
    row = [Fraction(0)] * (m * (m - 1) // 2)
    row[pair_index(a, b, m)] = Fraction(1)
    return row


def theorem1_matrix(n: int) -> list[list[Fraction]]:
    """x(i,i) = y(2i-1,2i) and x(i,j) = y(2j-1,2j) - y(2i,2j), over Fraction."""
    m = 2 * n
    rows = [_unit_row(2 * i - 1, 2 * i, m) for i in range(1, n + 1)]
    for i, j in pairs(n):
        plus, minus = _unit_row(2 * j - 1, 2 * j, m), _unit_row(2 * i, 2 * j, m)
        rows.append([p - q for p, q in zip(plus, minus)])
    return rows


def lemma1_matrix(n: int) -> list[list[Fraction]]:
    """x(i) = y(i,n+i), over Fraction."""
    return [_unit_row(i, n + i, 2 * n) for i in range(1, n + 1)]


class TestApplyWord:
    """The integer projections against Fraction matrices built from the
    documented formulas."""

    ORACLE = {theorem1_project: theorem1_matrix, lemma1_project: lemma1_matrix}

    @pytest.mark.parametrize("project", [theorem1_project, lemma1_project])
    def test_agrees_with_fraction_oracle_on_lop6(self, lop6, project):
        proj, matrix = project(3), self.ORACLE[project](3)
        off_cube = 0
        for v in lop6:
            coords = tuple(sum((c * b for c, b in zip(row, v.bits)), Fraction(0)) for row in matrix)
            assert proj.apply(v.bits) == coords
            if all(c in (0, 1) for c in coords):
                word = int("".join(str(c) for c in coords), 2)
                assert proj.apply_word(v.word) == word
            else:
                off_cube += 1
                assert -1 in coords and set(coords) <= {-1, 0, 1}
                assert proj.apply_word(v.word) is None
        # x(i,j) = y(2j-1,2j) - y(2i,2j) reaches -1 off the face; a coordinate
        # projection never leaves the cube
        assert (off_cube > 0) == (project is theorem1_project)

    @pytest.mark.parametrize("g", every_graph(4) + [
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    ])
    def test_pattern_counted_fibers_match_per_word(self, g):
        proj = lemma1_project(g.n)
        fibers = Counter(proj.apply_word(w) for w in lop_face(lemma1_system(g)).face.words)
        assert lemma1_verify(g).details["fibers"] == {
            word_to_string(w, g.n): count for w, count in sorted(fibers.items())}


def failing(report: Report) -> dict:
    return {a.name: a.witness for a in report.assertions if not a.passed}


def change_face(monkeypatch, drop=(), add=()):
    """Make the verifiers see the face that the search finds, less the
    words in ``drop`` and with the words in ``add``."""
    search = constructions.lop_face

    def changed(fs, max_perms):
        result = search(fs, max_perms=max_perms)
        words = [w for w in result.face.words if w not in drop] + list(add)
        return replace(result, face=result.face.restrict_to_words(words))

    monkeypatch.setattr(constructions, "lop_face", changed)


def change_lemma1(monkeypatch, equalities=(), drop=()):
    """Make ``lemma1_verify`` see its graph's system with the extra
    ``equalities``, each (a, b, r) for y(a, b) = r, and counts with one order
    fewer of each pattern in ``drop``."""
    system, count = constructions.lemma1_system, constructions._count_orders

    def extended(g):
        fs = system(g)
        extra = [LinearForm(tuple(int(pair == (a, b)) for pair in pairs(2 * g.n)), "=", r)
                 for a, b, r in equalities]
        return FaceSystem(fs.layout, fs.equalities + tuple(extra))

    def counted(m, precedences, splits):
        counts = Counter(count(m, precedences, splits))
        counts.subtract(drop)
        return {key: c for key, c in counts.items() if c > 0}

    monkeypatch.setattr(constructions, "lemma1_system", extended)
    monkeypatch.setattr(constructions, "_count_orders", counted)


class TestVerifierFailures:
    """Faces with vertices removed or added make named assertions fail;
    every witness names the first failing vertex in sorted order."""

    THEOREM1_N2_LIFTS = {  # face word -> the quadric vertex lifting onto it
        "000000": ("000", "4321"),
        "001011": ("010", "3214"),
        "111000": ("100", "1432"),
        "101001": ("111", "3142"),
    }

    @pytest.mark.parametrize("word", sorted(THEOREM1_N2_LIFTS))
    def test_theorem1_face_vertex_removed(self, word, monkeypatch):
        change_face(monkeypatch, drop=[int(word, 2)])
        report = theorem1_verify(2)
        x, sequence = self.THEOREM1_N2_LIFTS[word]
        assert failing(report) == {
            "face_cardinality": "face has 3 vertices, expected 4",
            "projection_bijective_onto_bqp": "image set mismatch",
            "lift_lands_on_face": f"lift of {x} -> {sequence}",
            "face_equals_lift_image": "face and lift image differ as sets",
        }

    def test_theorem1_first_missing_lift_is_witness(self, monkeypatch):
        change_face(monkeypatch, drop=[0b001011, 0b101001])
        report = theorem1_verify(2)
        assert failing(report)["lift_lands_on_face"] == "lift of 010 -> 3214"

    def test_theorem1_first_bad_roundtrip_is_witness(self, monkeypatch):
        origin = theorem1_lift(Vertex01.from_string("000"))
        monkeypatch.setattr(constructions, "theorem1_lift", lambda x: origin)
        report = theorem1_verify(2)
        assert failing(report) == {
            "lift_roundtrip": "lift of 010 projects to 000",
            "face_equals_lift_image": "face and lift image differ as sets",
        }

    def test_theorem1_extra_order_on_face(self, monkeypatch):
        # 2431 breaks y(2,3) = 0 and projects to a point that is not 0/1
        change_face(monkeypatch, add=[0b000110])
        report = theorem1_verify(2)
        assert failing(report) == {
            "face_cardinality": "face has 5 vertices, expected 4",
            "projection_bijective_onto_bqp": "non-integral image of 000110",
            "identity_cross_odd_even": "000110 at pair (1,2)",
            "identity_cross_odd_odd": "000110 at pair (1,2)",
            "identity_product": "000110 at pair (1,2)",
            "face_equals_lift_image": "face and lift image differ as sets",
        }
        assert "2431" in report.details["face_sequences"]

    def test_theorem1_order_off_the_lifts_is_decoded(self, monkeypatch):
        change_face(monkeypatch, add=[0b000110])
        face = lop_face(theorem1_system(2)).face.words + (0b000110,)
        assert theorem1_verify(2).details["face_sequences"] == [
            lop_vertex_to_perm(Vertex01(6, w), 4).sequence_str() for w in sorted(face)]

    # the face of the edge 12 holds 3412, 3421, 4312 and 4321 over 00, 3241
    # over 01 and 4132 over 10
    @pytest.mark.parametrize("equalities,drop,expected", [
        # y(2,4) = 0 cuts 3241 alone, and y(1,3) = 0 cuts 4132 alone
        ([(2, 4, 0)], [], {
            "projection_image_equals_stable_set": "image size 2, stable size 3",
            "lift_lands_on_face": "lift of 01 -> 3241",
        }),
        ([(1, 3, 0)], [], {
            "projection_image_equals_stable_set": "image size 2, stable size 3",
            "lift_lands_on_face": "lift of 10 -> 4132",
        }),
        # 1 before 2 cuts 4321, 3421 and 3241
        ([(1, 2, 1)], [], {
            "projection_image_equals_stable_set": "image size 2, stable size 3",
            "lift_lands_on_face": "lift of 00 -> 4321",
        }),
        ([], [0b00], {}),
        ([], [0b01], {"projection_image_equals_stable_set": "image size 2, stable size 3"}),
    ], ids=["cut-3241", "cut-4132", "cut-4321", "one-order-fewer", "fiber-lost"])
    def test_lemma1_face_changed(self, equalities, drop, expected, monkeypatch):
        change_lemma1(monkeypatch, equalities, drop)
        report = lemma1_verify(Graph.from_edges(2, [(1, 2)]))
        assert failing(report) == expected

    def test_lemma1_first_missing_lift_is_witness(self, monkeypatch):
        # 1 before 2 cuts the lifts 4321, 3241 and 2143 of the edgeless graph
        # but leaves 3412, 3124, 4132 and 1234 over the four stable sets
        change_lemma1(monkeypatch, equalities=[(1, 2, 1)])
        report = lemma1_verify(Graph.empty(2))
        assert failing(report) == {"lift_lands_on_face": "lift of 00 -> 4321"}

    def test_dcp_first_failing_identity_is_witness(self, monkeypatch):
        # two extra words on the z=0, h=1 face: y = 000 with yb = 000 or 001,
        # t = 0; both break a complement and the slack
        extra = [0b000_000_01_0, 0b000_001_01_0]

        def host(*args, **kwargs):
            vs = dcp_vertices(*args, **kwargs)
            return vs.restrict_to_words(list(vs.words) + extra)

        monkeypatch.setattr(constructions, "dcp_vertices", host)
        assert failing(dcp_verify(3)) == {
            "face_projects_bijectively_onto_lop": "face size 8, lop size 6",
            "complement_coordinates": "000000010 at pair (1,2)",
            "slack_coordinates": "000000010 at triple (1,2,3)",
        }


class TestDcpLayoutRoundTrip:
    def test_vertex_set_keeps_embedding_labels(self):
        emb = dcp_embedding(3)
        vs = dcp_vertices(emb.matrix, layout=emb.layout)
        assert vs.to_text().splitlines()[:2] == [
            "layout dcp 9",
            "labels y(1,2) y(1,3) y(2,3) yb(1,2) yb(1,3) yb(2,3) z h t(1,2,3)",
        ]
        assert VertexSet.from_text(vs.to_text()) == vs
        assert VertexSet.from_json(vs.to_json()) == vs

    def test_face_system_keeps_embedding_labels(self):
        fs = dcp_face_system(dcp_embedding(3))
        parsed = FaceSystem.parse(fs.render())
        assert parsed.layout == fs.layout
        assert parsed.equalities == fs.equalities
