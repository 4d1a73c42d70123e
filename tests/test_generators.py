import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyface.generators as generators
from polyface import (
    CapacityError,
    FourOnesMatrix,
    Graph,
    InvalidParameterError,
    ParseError,
    bqp_vertices,
    dcp_vertices,
    dcp_vertices_naive,
    lop_vertices,
    lop_vertices_oracle,
    stable_vertices,
)
from polyface.constructions import dcp_embedding
from polyface.core import (
    CoordLayout,
    Vertex01,
    VertexSet,
    pair_index,
    pairs,
)
from polyface.generators import DEFAULT_MAX_PERMS, MAX_VECTORS


def lop_vertices_by_permutation(m: int) -> VertexSet:
    """Reference route: one characteristic word per permutation of [m], with
    y(i, j) set iff i sits at an earlier position than j."""
    dim = m * (m - 1) // 2
    words = []
    positions = [0] * m
    for seq in permutations(range(1, m + 1)):
        for pos, element in enumerate(seq, start=1):
            positions[element - 1] = pos
        word = 0
        for i, j in pairs(m):
            if positions[i - 1] < positions[j - 1]:
                word |= 1 << (dim - 1 - pair_index(i, j, m))
        words.append(word)
    return VertexSet.from_words(CoordLayout.lop(m), words)


class TestBqpVertices:
    def test_n1(self):
        assert [v.to_string() for v in bqp_vertices(1)] == ["0", "1"]

    def test_n2_exact_set(self):
        got = {v.to_string() for v in bqp_vertices(2)}
        # layout (x11, x22, x12)
        assert got == {"000", "100", "010", "111"}

    def test_n4_count(self):
        assert len(bqp_vertices(4)) == 16

    def test_n0_rejected(self):
        with pytest.raises(InvalidParameterError):
            bqp_vertices(0)

    def test_diagonals_capped(self):
        with pytest.raises(CapacityError):
            bqp_vertices(21)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_count_is_power_of_two(self, n):
        assert len(bqp_vertices(n)) == 2 ** n

    def test_product_structure(self):
        n = 4
        for v in bqp_vertices(n):
            for i, j in pairs(n):
                assert v.bit(n + pair_index(i, j, n)) == v.bit(i - 1) * v.bit(j - 1)


class TestLopVertices:
    def test_m2(self):
        assert [v.to_string() for v in lop_vertices(2)] == ["0", "1"]

    def test_m3_exact_set(self):
        got = {v.to_string() for v in lop_vertices(3)}
        assert got == {"000", "001", "011", "100", "110", "111"}

    def test_m5_count(self):
        assert len(lop_vertices(5)) == 120

    def test_m1_empty_layout(self):
        vs = lop_vertices(1)
        assert vs.layout.dim == 0
        assert len(vs) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_count_is_factorial(self, m):
        assert len(lop_vertices(m)) == math.factorial(m)

    def test_count_is_factorial_m8(self, lop8):
        assert len(lop8) == math.factorial(8)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_insertion_matches_permutation_route(self, m):
        assert lop_vertices(m).words == lop_vertices_by_permutation(m).words

    def test_insertion_matches_permutation_route_m8(self, lop8):
        assert lop8.words == lop_vertices_by_permutation(8).words

    def test_budget_enforced(self):
        with pytest.raises(CapacityError):
            lop_vertices(9)
        with pytest.raises(CapacityError):
            lop_vertices(4, max_perms=6)

    @pytest.mark.parametrize("m", [2000, 10**6])
    def test_budget_never_computes_m_factorial(self, m):
        # 2000! has 5736 digits, over the default int-to-string limit
        with pytest.raises(CapacityError, match=f"budget of {DEFAULT_MAX_PERMS}"):
            lop_vertices(m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected_by_the_layout(self, m):
        with pytest.raises(InvalidParameterError, match="lop layout needs m >= 1"):
            lop_vertices(m)


class TestLopOracle:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_agrees_with_enumeration(self, m):
        assert lop_vertices_oracle(m) == lop_vertices(m)

    def test_m3_rejections(self):
        words = {v.to_string() for v in lop_vertices_oracle(3)}
        assert len(words) == 6
        assert "101" not in words  # value 2 on a transitivity form
        assert "010" not in words  # value -1 on a transitivity form

    def test_m4_count(self):
        assert len(lop_vertices_oracle(4)) == 24

    def test_cap(self):
        with pytest.raises(CapacityError):
            lop_vertices_oracle(7)


class TestEnumerationCap:
    def test_one_constant_keeps_both_oracle_limits(self):
        # lop_vertices_oracle(6) and (7) are covered in TestLopOracle
        assert MAX_VECTORS == 2**20
        with pytest.raises(CapacityError):
            dcp_vertices_naive(FourOnesMatrix.from_rows(21, [(1, 2, 3, 4)]))

    def test_cap_checked_before_the_layout_is_built(self, monkeypatch):
        # bqp(2000) alone has two million labels
        def no_layout(param):
            raise AssertionError("layout built before the cap was checked")

        monkeypatch.setattr(CoordLayout, "bqp", no_layout)
        monkeypatch.setattr(CoordLayout, "lop", no_layout)
        with pytest.raises(CapacityError):
            bqp_vertices(21)
        with pytest.raises(CapacityError):
            lop_vertices_oracle(7)

    @pytest.mark.parametrize("generate, param, message", [
        (bqp_vertices, 0, "bqp layout needs n >= 1"),
        (bqp_vertices, -1, "bqp layout needs n >= 1"),
        (lop_vertices_oracle, -10, "lop layout needs m >= 1"),
    ])
    def test_parameter_below_one_rejected_by_the_layout(self, generate, param, message):
        with pytest.raises(InvalidParameterError, match=message):
            generate(param)

    def test_stable_scan_capped(self):
        with pytest.raises(CapacityError):
            stable_vertices(Graph.empty(21))

    def test_cap_need_not_be_a_power_of_two(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_VECTORS", 100)
        assert len(dcp_vertices_naive(FourOnesMatrix.from_rows(6, [(1, 2, 3, 4)]))) == 24
        with pytest.raises(CapacityError):
            dcp_vertices_naive(FourOnesMatrix.from_rows(7, [(1, 2, 3, 4)]))

    def test_backtracking_stops_at_the_cap(self, monkeypatch):
        # one row over 12 columns has 6 * 2^8 = 1536 solutions
        b = FourOnesMatrix.from_rows(12, [(1, 2, 3, 4)])
        assert len(dcp_vertices(b)) == 1536
        monkeypatch.setattr(generators, "MAX_VECTORS", 100)
        with pytest.raises(CapacityError):
            dcp_vertices(b)


class TestStableVertices:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(1, 2)])
        assert {v.to_string() for v in stable_vertices(g)} == {"00", "10", "01"}

    def test_empty_graph(self):
        assert len(stable_vertices(Graph.empty(2))) == 4

    def test_triangle(self):
        g = Graph.complete(3)
        assert {v.to_string() for v in stable_vertices(g)} == {
            "000", "100", "010", "001",
        }

    def test_monotone_under_edge_addition(self):
        # adding edges can only shrink the vertex set
        base_edges = pairs(4)
        for r in range(len(base_edges)):
            for chosen in combinations(base_edges, r):
                g = Graph.from_edges(4, chosen)
                small = set(stable_vertices(g).words)
                for extra in base_edges:
                    if extra in chosen:
                        continue
                    bigger = Graph.from_edges(4, list(chosen) + [extra])
                    assert set(stable_vertices(bigger).words) <= small


class TestGraphIO:
    def test_round_trip(self):
        g = Graph.from_edges(4, [(2, 1), (3, 4)])
        assert Graph.parse(g.render()) == g

    def test_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(2, 2)])

    def test_edge_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(1, 4)])

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Graph.parse("edges 3\n1 2\n")
        with pytest.raises(ParseError):
            Graph.parse("n 3\n1 2 3\n")


class TestFourOnesMatrix:
    def test_round_trip(self):
        b = FourOnesMatrix.from_rows(6, [(1, 2, 3, 4), (6, 5, 2, 1)])
        assert FourOnesMatrix.parse(b.render()) == b
        assert b.rows[1] == (1, 2, 5, 6)

    def test_three_column_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            FourOnesMatrix.from_rows(4, [(1, 2, 3)])

    def test_duplicate_column_rejected(self):
        with pytest.raises(InvalidParameterError):
            FourOnesMatrix.from_rows(4, [(1, 2, 3, 3)])

    def test_column_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            FourOnesMatrix.from_rows(4, [(1, 2, 3, 5)])


class TestDcpVertices:
    def test_single_row(self):
        b = FourOnesMatrix.from_rows(4, [(1, 2, 3, 4)])
        got = {v.to_string() for v in dcp_vertices(b)}
        assert got == {"1100", "1010", "1001", "0110", "0101", "0011"}

    def test_embedding_m3_count(self):
        assert len(dcp_vertices(dcp_embedding(3).matrix)) == 12

    def test_free_columns(self):
        b = FourOnesMatrix.from_rows(6, [(1, 2, 3, 4)])
        # two unconstrained columns double the count twice
        assert len(dcp_vertices(b)) == 24

    def test_overlapping_rows_match_naive(self):
        b = FourOnesMatrix.from_rows(5, [(1, 2, 3, 4), (1, 2, 3, 5)])
        assert dcp_vertices(b) == dcp_vertices_naive(b)

    def test_empty_result_is_valid(self):
        # all five 4-subsets of [5]: summing the rows forces a non-integer
        # coordinate total, so no 0/1 solution exists
        rows = [tuple(c for c in range(1, 6) if c != skip) for skip in range(1, 6)]
        b = FourOnesMatrix.from_rows(5, rows)
        vs = dcp_vertices(b)
        assert len(vs) == 0
        assert dcp_vertices_naive(b) == vs

    def test_matches_naive_on_embeddings(self):
        for m in (3, 4):
            b = dcp_embedding(m).matrix
            assert dcp_vertices(b) == dcp_vertices_naive(b)

    @pytest.mark.parametrize("m", [5, 6])
    def test_embedding_beyond_naive_cap_is_structural(self, m):
        # every order y gives two vertices, (z, h) = (0, 1) and (1, 0), each
        # with yb = 1 - y and t(i,j,k) = 1 - (y_ij + y_jk - y_ik)
        emb = dcp_embedding(m)
        assert 1 << emb.layout.dim > MAX_VECTORS
        expected = set()
        for order in lop_vertices(m):
            y = dict(zip(pairs(m), order.bits))
            values = {f"yb({i},{j})": 1 - y[i, j] for i, j in pairs(m)}
            values.update((f"y({i},{j})", y[i, j]) for i, j in pairs(m))
            values.update(
                (f"t({i},{j},{k})", 1 - (y[i, j] + y[j, k] - y[i, k]))
                for i, j, k in combinations(range(1, m + 1), 3)
            )
            for z, h in ((0, 1), (1, 0)):
                values.update(z=z, h=h)
                coords = [values[label] for label in emb.layout.labels]
                expected.add(Vertex01.from_bits(coords).word)
        got = dcp_vertices(emb.matrix, max_cols=emb.layout.dim)
        assert set(got.words) == expected
        assert len(expected) == 2 * math.factorial(m)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_naive_on_random_matrices(self, data):
        n = data.draw(st.integers(4, 12))
        k = data.draw(st.integers(0, 6))
        rows = [
            tuple(sorted(data.draw(
                st.sets(st.integers(1, n), min_size=4, max_size=4)
            )))
            for _ in range(k)
        ]
        b = FourOnesMatrix.from_rows(n, rows)
        assert dcp_vertices(b) == dcp_vertices_naive(b)

    def test_cap(self):
        b = FourOnesMatrix.from_rows(45, [(1, 2, 3, 4)])
        with pytest.raises(CapacityError):
            dcp_vertices(b)
        with pytest.raises(CapacityError):
            dcp_vertices_naive(b)
