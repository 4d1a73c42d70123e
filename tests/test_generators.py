import math
import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyface.generators as generators
from polyface import (
    CapacityError,
    DimensionMismatchError,
    FaceSystem,
    FourOnesMatrix,
    Graph,
    InvalidParameterError,
    LinearForm,
    NotSupportingError,
    ParseError,
    bqp_vertices,
    dcp_vertices,
    extract_face,
    lop_vertices,
    stable_vertices,
)
from polyface.constructions import dcp_embedding
from polyface.core import (
    CoordLayout,
    Vertex01,
    VertexSet,
    lop_pair_bits,
    lop_vertex_to_perm,
    pair_index,
    pairs,
)
from polyface.generators import (
    DEFAULT_MAX_PERMS,
    MAX_VECTORS,
    dcp_vertices_naive,
    lop_face,
    lop_vertices_oracle,
)


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


def random_lop_system(rng: random.Random, m: int) -> FaceSystem:
    """One to five equalities over lop(m): three-cycle forms, single
    coordinates, and sparse forms on up to three coordinates with
    coefficients in -2..2, which include forms that are not supporting."""
    layout = CoordLayout.lop(m)
    dim = layout.dim
    forms = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [0] * dim
        kind = rng.choice(("cycle", "coordinate", "sparse"))
        if kind == "cycle":
            i, j, k = sorted(rng.sample(range(1, m + 1), 3))
            coeffs[pair_index(i, j, m)] = 1
            coeffs[pair_index(j, k, m)] = 1
            coeffs[pair_index(i, k, m)] = -1
            rhs = rng.choice((-1, 0, 1, 2))
        elif kind == "coordinate":
            coeffs[rng.randrange(dim)] = 1
            rhs = rng.choice((0, 1))
        else:
            for index in rng.sample(range(dim), rng.randint(1, 3)):
                coeffs[index] = rng.choice((-2, -1, 1, 2))
            rhs = rng.randint(-1, 2)
        forms.append(LinearForm(tuple(coeffs), "=", rhs))
    return FaceSystem(layout, tuple(forms))


def face_or_refusal(extract):
    """``extract()``, or the NotSupportingError's message, witness and form."""
    try:
        return extract()
    except NotSupportingError as exc:
        return str(exc), exc.witness, exc.form


def y12_minus_y13(m: int) -> FaceSystem:
    """y(1,2) - y(1,3) = 0 over lop(m): 2 and 3 on the same side of 1 fails both ways."""
    coeffs = [0] * (m * (m - 1) // 2)
    coeffs[pair_index(1, 2, m)], coeffs[pair_index(1, 3, m)] = 1, -1
    return FaceSystem(CoordLayout.lop(m), (LinearForm(tuple(coeffs), "=", 0),))


class TestLopFace:
    @pytest.mark.parametrize("m, systems", [(5, 60), (6, 60), (7, 40), (8, 25)])
    def test_matches_extract_face_on_seeded_systems(self, m, systems, lop8):
        host = lop8 if m == 8 else lop_vertices(m)
        rng = random.Random(1000 + m)
        outcomes = Counter()
        for _ in range(systems):
            fs = random_lop_system(rng, m)
            expected = face_or_refusal(lambda: extract_face(host, fs))
            assert face_or_refusal(lambda: lop_face(fs)) == expected
            if isinstance(expected, tuple):
                outcomes["not supporting"] += 1
            else:
                outcomes["empty" if not expected.face else "face"] += 1
        assert set(outcomes) == {"not supporting", "empty", "face"}, outcomes

    def test_matches_extract_face_on_lop9_refusals(self):
        # at max_perms=1 the face search refuses nearly every supporting system,
        # so mostly refusals are compared with the scan of all 9! orders
        host = lop_vertices(9, max_perms=math.factorial(9))
        rng = random.Random(1009)
        refused = 0
        for _ in range(20):
            fs = random_lop_system(rng, 9)
            try:
                got = face_or_refusal(lambda: lop_face(fs, max_perms=1))
            except CapacityError:
                continue
            assert got == face_or_refusal(lambda: extract_face(host, fs))
            refused += isinstance(got, tuple)
        assert refused == 3

    @pytest.mark.parametrize("m", [9, 10, 40])
    def test_refused_at_every_m(self, m):
        fs = y12_minus_y13(m)
        form = fs.equalities[0]
        with pytest.raises(NotSupportingError) as info:
            lop_face(fs)
        le, ge = map(Vertex01.from_string, re.findall(r"violated by ([01]+)", str(info.value)))
        for witness in (le, ge):
            lop_vertex_to_perm(witness, m)  # raises unless the word is an order on [m]
        assert form.evaluate_word(le.word) > 0 > form.evaluate_word(ge.word)
        assert info.value.witness == ge and info.value.form == form

    def test_refusal_ignores_the_order_budget(self):
        fs = y12_minus_y13(5)
        expected = face_or_refusal(lambda: extract_face(lop_vertices(5), fs))
        assert face_or_refusal(lambda: lop_face(fs, max_perms=1)) == expected

    def test_form_on_nine_elements_is_refused_by_its_element_count(self):
        coeffs = [0] * (12 * 11 // 2)
        for a in range(1, 9):
            coeffs[pair_index(a, a + 1, 12)] = 1
        fs = FaceSystem(CoordLayout.lop(12), (LinearForm(tuple(coeffs), "=", 0),))
        with pytest.raises(CapacityError, match="the 9! linear orders of 9 elements exceed"):
            lop_face(fs)

    @pytest.mark.parametrize("rhs", [-1, 0, 1])
    def test_form_touching_nothing(self, rhs):
        fs = FaceSystem(CoordLayout.lop(4), (LinearForm((0,) * 6, "=", rhs),))
        assert lop_face(fs) == extract_face(lop_vertices(4), fs)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_empty_system_gives_every_order(self, m):
        face = lop_face(FaceSystem(CoordLayout.lop(m), ())).face
        assert face == lop_vertices(m)

    def test_budget_counts_emitted_orders(self):
        fs = FaceSystem(CoordLayout.lop(5), ())
        with pytest.raises(CapacityError, match="budget of 119"):
            lop_face(fs, max_perms=119)
        assert len(lop_face(fs, max_perms=120).face) == 120

    def test_budget_bounds_partial_orders_kept(self):
        # y(1,2) = 0, y(2,3) = 0 and y(1,3) = 1 clash, but only once 2 and 1 go
        # in, so every order of 3, ..., m is built first and none is emitted
        def clash(m):
            forms = []
            for (a, b), rhs in (((1, 2), 0), ((2, 3), 0), ((1, 3), 1)):
                coeffs = [0] * (m * (m - 1) // 2)
                coeffs[pair_index(a, b, m)] = 1
                forms.append(LinearForm(tuple(coeffs), "=", rhs))
            return FaceSystem(CoordLayout.lop(m), tuple(forms))

        empty = lop_face(clash(5))
        assert empty == extract_face(lop_vertices(5), clash(5)) and not empty.face
        # kept: the empty order, the 1, 2 and 6 orders of {5}, {4,5} and
        # {3,4,5}, and the 12 of {2,...,5} with 3 before 2; 22 <= 5 * 5
        assert lop_face(clash(5), max_perms=5) == empty
        with pytest.raises(CapacityError, match="kept over 5 partial orders"):
            lop_face(clash(5), max_perms=4)
        message = r"\[12\] kept over 12 partial orders per order of the budget of 100"
        with pytest.raises(CapacityError, match=message):
            lop_face(clash(12), max_perms=100)
        # the kept count is the sum of k! for k < m - 1, the orders of
        # {m}, ..., {3,...,m}, plus the (m-1)!/2 orders of {2,...,m} with 3
        # before 2; the least budget passing it is that count over m, rounded up
        for m in range(4, 9):
            kept = sum(math.factorial(k) for k in range(m - 1)) + math.factorial(m - 1) // 2
            least = -(-kept // m)
            assert least == {4: 2, 5: 5, 6: 16, 7: 74, 8: 425}[m]
            assert lop_face(clash(m), max_perms=least) == extract_face(lop_vertices(m), clash(m))
            message = (f"the face search on [{m}] kept over {m} partial orders per order of "
                       f"the budget of {least - 1}; raise max_perms to allow it")
            with pytest.raises(CapacityError, match=re.escape(message)):
                lop_face(clash(m), max_perms=least - 1)

    def test_needs_a_lop_layout(self):
        with pytest.raises(DimensionMismatchError, match="system over lop"):
            lop_face(FaceSystem(CoordLayout.bqp(3), ()))


def count_orders_by_scan(m: int, precedences, splits) -> dict[int, int]:
    """``_count_orders`` by brute force: every word of lop(m), tested pair by pair."""
    pair_bits = lop_pair_bits(m)

    def first(word, a, b):  # a comes before b
        return bool(word & pair_bits[a][b]) if a < b else not word & pair_bits[b][a]

    counts = Counter()
    for word in lop_vertices(m).words:
        if all(first(word, a, b) for a, b in precedences):
            counts[sum(first(word, a, b) << (len(splits) - 1 - t)
                       for t, (a, b) in enumerate(splits))] += 1
    return dict(counts)


class TestCountOrders:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_scan_on_seeded_precedences(self, m):
        rng = random.Random(2000 + m)
        outcomes = Counter()
        for _ in range(30):
            ordered = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs(m)]
            precedences = rng.sample(ordered, rng.randint(0, min(len(ordered), m)))
            elements = rng.sample(range(1, m + 1), m)
            splits = [tuple(elements[k:k + 2]) for k in range(0, m - 1, 2)][:rng.randint(0, m // 2)]
            counts = generators._count_orders(m, precedences, splits)
            assert counts == count_orders_by_scan(m, precedences, splits), (precedences, splits)
            outcomes["empty" if not counts else "orders"] += 1
        # a cycle needs three elements
        assert set(outcomes) == ({"empty", "orders"} if m >= 3 else {"orders"}), outcomes

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_cyclic_precedences_count_nothing(self, m):
        cycle = [(a, a % m + 1) for a in range(1, m + 1)]
        assert generators._count_orders(m, cycle, [(1, 2)]) == {}
        assert count_orders_by_scan(m, cycle, [(1, 2)]) == {}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_no_precedences_count_every_order(self, m):
        counts = generators._count_orders(m, [], [])
        assert counts == {0: math.factorial(m)}

    def test_pattern_bits_follow_the_split_order(self):
        # (2, 1) is 1 when 2 precedes 1, and the first split pair is the high bit
        counts = generators._count_orders(3, [(3, 2)], [(2, 1), (1, 3)])
        assert counts == count_orders_by_scan(3, [(3, 2)], [(2, 1), (1, 3)])
        assert counts == {0b10: 1, 0b01: 1, 0b00: 1}


class TestOrderSearch:
    @pytest.mark.parametrize("size", range(6))
    def test_orders_of_every_element_subset(self, size):
        # the orders of U in lop(5)'s coordinates are lop(5)'s patterns on U's pairs
        m, dim = 5, 10
        host = lop_vertices(m).words
        for subset in combinations(range(1, m + 1), size):
            mask = sum(1 << (dim - 1 - pair_index(a, b, m)) for a, b in combinations(subset, 2))
            words = generators._lop_search(m, list(subset), {}, DEFAULT_MAX_PERMS)
            assert len(words) == len(set(words)) == math.factorial(size)
            assert set(words) == {w & mask for w in host}

    def test_empty_element_list_gives_the_empty_order(self):
        assert generators._lop_search(5, [], {}, 1) == [0]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_least_extension_is_least_and_keeps_the_order(self, m):
        dim = m * (m - 1) // 2
        host = lop_vertices(m).words
        for size in range(m + 1):
            for subset in combinations(range(1, m + 1), size):
                mask = sum(1 << (dim - 1 - pair_index(a, b, m)) for a, b in combinations(subset, 2))
                least = {w & mask: w for w in reversed(host)}
                orders = sorted(generators._lop_search(m, list(subset), {}, DEFAULT_MAX_PERMS))
                extended = [generators._least_extension(m, list(subset), w) for w in orders]
                assert extended == [least[w] for w in orders]
                assert extended == sorted(extended)


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
