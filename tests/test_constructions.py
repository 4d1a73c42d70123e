import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyface.constructions as constructions
from polyface import (
    CapacityError,
    FaceSystem,
    Graph,
    InvalidParameterError,
    InvalidVertexError,
    Permutation,
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
    pair_index,
    perm_to_lop_vertex,
    sequence_to_perm,
    stable_vertices,
    theorem1_lift,
    theorem1_project,
    theorem1_system,
    theorem1_verify,
)
from polyface.core import pairs

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

    def test_bad_dimension_rejected(self):
        with pytest.raises(InvalidVertexError):
            theorem1_lift(Vertex01.from_string("1100"))

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

    def test_n3_matches_table(self, lop6):
        report = theorem1_verify(3, lop=lop6)
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

    def test_cap_exceeded(self):
        with pytest.raises(CapacityError):
            theorem1_verify(5)


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

    def test_path_on_three_vertices(self, lop6):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        report = lemma1_verify(g, lop=lop6)
        assert report.all_passed
        assert report.details["stable_size"] == 5

    def test_all_graphs_up_to_three_vertices(self, lop6):
        from itertools import combinations

        for n in (1, 2, 3):
            lop = lop6 if n == 3 else None
            candidates = pairs(n)
            for r in range(len(candidates) + 1):
                for chosen in combinations(candidates, r):
                    report = lemma1_verify(Graph.from_edges(n, chosen), lop=lop)
                    assert report.all_passed, (n, chosen)


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

    def test_m5_needs_budget(self):
        with pytest.raises(CapacityError):
            dcp_verify(5)
        report = dcp_verify(5, max_cols=32)
        assert report.all_passed
        assert report.details["face_size"] == 120

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


def failing(report: Report) -> dict:
    return {a.name: a.witness for a in report.assertions if not a.passed}


def without(host: VertexSet, words) -> VertexSet:
    return host.restrict_to_words(w for w in host.words if w not in set(words))


class TestVerifierFailures:
    """Hosts with face vertices removed or added make named assertions fail;
    every witness names the first failing vertex in sorted order."""

    THEOREM1_N2_LIFTS = {  # face word -> the quadric vertex lifting onto it
        "000000": ("000", "4321"),
        "001011": ("010", "3214"),
        "111000": ("100", "1432"),
        "101001": ("111", "3142"),
    }

    @pytest.mark.parametrize("word", sorted(THEOREM1_N2_LIFTS))
    def test_theorem1_face_vertex_removed(self, word):
        report = theorem1_verify(2, lop=without(lop_vertices(4), [int(word, 2)]))
        x, sequence = self.THEOREM1_N2_LIFTS[word]
        assert failing(report) == {
            "face_cardinality": "face has 3 vertices, expected 4",
            "projection_bijective_onto_bqp": "image set mismatch",
            "lift_lands_on_face": f"lift of {x} -> {sequence}",
            "face_equals_lift_image": "face and lift image differ as sets",
        }

    def test_theorem1_first_missing_lift_is_witness(self):
        report = theorem1_verify(2, lop=without(lop_vertices(4), [0b001011, 0b101001]))
        assert failing(report)["lift_lands_on_face"] == "lift of 010 -> 3214"

    def test_theorem1_first_bad_roundtrip_is_witness(self, monkeypatch):
        origin = theorem1_lift(Vertex01.from_string("000"))
        monkeypatch.setattr(constructions, "theorem1_lift", lambda x: origin)
        report = theorem1_verify(2)
        assert failing(report) == {
            "lift_roundtrip": "lift of 010 projects to 000",
            "face_equals_lift_image": "face and lift image differ as sets",
        }

    def test_theorem1_non_order_word_on_face(self):
        host = lop_vertices(4)
        report = theorem1_verify(2, lop=host.restrict_to_words([*host.words, 0b011010]))
        assert failing(report) == {
            "face_cardinality": "face has 5 vertices, expected 4",
            "projection_bijective_onto_bqp": "non-integral image of 011010",
            "identity_product": "011010 at pair (1,2)",
            "face_equals_lift_image": "face and lift image differ as sets",
        }
        assert "011010" in report.details["face_sequences"]

    def test_theorem1_host_breaking_support_is_reported(self):
        host = lop_vertices(4)
        report = theorem1_verify(2, lop=host.restrict_to_words([*host.words, 0b001000]))
        assert [a.name for a in report.assertions] == ["face_system_supporting"]
        assert failing(report) == {
            "face_system_supporting": (
                "equality y(1,2) - y(1,4) + y(2,4) = 0 is not supporting-derived: "
                "<= violated by 000011, >= violated by 001000"
            ),
        }
        assert report.details == {"n": 2, "lop_size": 25}

    @pytest.mark.parametrize("word,expected", [
        ("000000", {"lift_lands_on_face": "lift of 00 -> 4321"}),
        ("000001", {}),
        ("000011", {
            "projection_image_equals_stable_set": "image size 2, stable size 3",
            "lift_lands_on_face": "lift of 01 -> 3241",
        }),
        ("110000", {
            "projection_image_equals_stable_set": "image size 2, stable size 3",
            "lift_lands_on_face": "lift of 10 -> 4132",
        }),
    ])
    def test_lemma1_face_vertex_removed(self, word, expected):
        g = Graph.from_edges(2, [(1, 2)])
        report = lemma1_verify(g, lop=without(lop_vertices(4), [int(word, 2)]))
        assert failing(report) == expected

    def test_lemma1_first_missing_lift_is_witness(self):
        g = Graph.empty(2)
        lifts = [perm_to_lop_vertex(lemma1_lift(x, g)).word for x in stable_vertices(g)]
        report = lemma1_verify(g, lop=without(lop_vertices(4), lifts))
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
