import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyface import (
    AffineMapQ,
    CoordLayout,
    DimensionMismatchError,
    InvalidPairError,
    InvalidParameterError,
    InvalidPermutationError,
    InvalidVertexError,
    LinearForm,
    ParseError,
    Permutation,
    Vertex01,
    VertexSet,
    lop_vertex_to_perm,
    lop_vertices,
    pair_index,
    perm_to_lop_vertex,
    sequence_to_perm,
)
from polyface.core import _KINDS, lop_pair_bits


class TestPairIndex:
    def test_first_pair(self):
        assert pair_index(1, 2, 4) == 0

    def test_last_pair(self):
        assert pair_index(3, 4, 4) == 5

    def test_equal_indices_rejected(self):
        with pytest.raises(InvalidPairError):
            pair_index(2, 2, 4)

    def test_reversed_rejected(self):
        with pytest.raises(InvalidPairError):
            pair_index(3, 2, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPairError):
            pair_index(1, 5, 4)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 12])
    def test_enumerates_bijectively(self, m):
        indices = [
            pair_index(i, j, m)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
        ]
        assert sorted(indices) == list(range(m * (m - 1) // 2))
        # lexicographic order of pairs is index order
        assert indices == sorted(indices)


class TestCoordLayout:
    def test_bqp_dimension_and_labels(self):
        layout = CoordLayout.bqp(3)
        assert layout.dim == 6
        assert layout.labels == (
            "x(1,1)", "x(2,2)", "x(3,3)", "x(1,2)", "x(1,3)", "x(2,3)",
        )

    def test_lop_dimension_and_labels(self):
        layout = CoordLayout.lop(4)
        assert layout.dim == 6
        assert layout.labels[0] == "y(1,2)"
        assert layout.labels[-1] == "y(3,4)"

    def test_label_lookup_is_bijective(self):
        layout = CoordLayout.lop(5)
        for k, label in enumerate(layout.labels):
            assert layout.index_of(label) == k

    def test_header_round_trip(self):
        layout = CoordLayout.stable(4)
        assert CoordLayout.from_header(layout.header()) == layout

    def test_bad_header(self):
        with pytest.raises(ParseError):
            CoordLayout.from_header("layout cube 3")

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            CoordLayout("cube", 3)

    @pytest.mark.parametrize("kind", ["bqp", "lop", "stable", "dcp"])
    def test_parameter_below_one_rejected(self, kind):
        with pytest.raises(InvalidParameterError, match=f"{kind} layout needs"):
            CoordLayout(kind, 0)

    @pytest.mark.parametrize("kind", ["bqp", "lop", "stable", "dcp"])
    def test_table_dimension_counts_default_labels(self, kind):
        row = _KINDS[kind]
        for param in range(1, 9):
            assert row.dim(param) == len(row.labels(param)) == CoordLayout(kind, param).dim

    def test_is_a_value(self):
        a, b = CoordLayout.lop(3), CoordLayout("lop", 3, ["y(1,2)", "y(1,3)", "y(2,3)"])
        assert a == b and hash(a) == hash(b)
        assert {a: 1, b: 2} == {a: 2}
        assert a != CoordLayout.dcp(3) and a != CoordLayout.lop(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.param = 4
        assert repr(a) == "CoordLayout(lop, 3, dim=3)"


class TestVertex01:
    def test_string_round_trip(self):
        v = Vertex01.from_string("0110")
        assert v.to_string() == "0110"
        assert v.bits == (0, 1, 1, 0)
        assert v.bit(0) == 0 and v.bit(1) == 1

    def test_empty_vertex(self):
        v = Vertex01.from_string("")
        assert v.dim == 0 and v.to_string() == ""

    def test_bad_character(self):
        with pytest.raises(ParseError):
            Vertex01.from_string("012")

    def test_word_out_of_range(self):
        with pytest.raises(InvalidVertexError):
            Vertex01(2, 4)

    def test_order_is_lexicographic(self):
        strings = ["000", "001", "011", "100", "110", "111"]
        verts = [Vertex01.from_string(s) for s in strings]
        assert sorted(verts, reverse=True) == verts[::-1]
        assert sorted(v.to_string() for v in verts) == strings

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=24))
    def test_bits_round_trip(self, bits):
        v = Vertex01.from_bits(bits)
        assert list(v.bits) == bits


class TestVertexSet:
    def test_dedup_and_sort(self):
        layout = CoordLayout.lop(3)
        verts = [Vertex01.from_string(s) for s in ("110", "000", "110", "001")]
        vs = VertexSet(layout, verts)
        assert [v.to_string() for v in vs] == ["000", "001", "110"]
        assert len(vs) == 3
        assert Vertex01.from_string("110") in vs
        assert Vertex01.from_string("111") not in vs
        assert Vertex01.from_string("00") not in vs

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            VertexSet(CoordLayout.lop(3), [Vertex01.from_string("01")])

    def test_text_round_trip(self):
        layout = CoordLayout.lop(3)
        vs = VertexSet(layout, [Vertex01.from_string(s) for s in ("110", "000")])
        text = vs.to_text()
        assert text.splitlines()[0] == "layout lop 3"
        assert VertexSet.from_text(text) == vs

    def test_json_round_trip(self):
        layout = CoordLayout.bqp(2)
        vs = VertexSet(layout, [Vertex01.from_string("111")])
        assert VertexSet.from_json(vs.to_json()) == vs

    def test_json_declared_dim_must_match_layout(self):
        text = '{"layout": {"kind": "lop", "param": 3, "dim": 99}, "vertices": []}'
        with pytest.raises(ParseError, match="has dim 3, not 99"):
            VertexSet.from_json(text)
        assert len(VertexSet.from_json(text.replace("99", "3"))) == 0
        # equal to the dimension, but not JSON integers
        for param, dim in ((2, "true"), (3, "3.0")):
            text = '{"layout": {"kind": "lop", "param": %d, "dim": %s}, "vertices": []}'
            with pytest.raises(ParseError, match=f"has dim {param * (param - 1) // 2}, not"):
                VertexSet.from_json(text % (param, dim))

    def test_bad_vertex_length_in_file(self):
        with pytest.raises(ParseError):
            VertexSet.from_text("layout lop 3\n01\n")

    def test_bad_vertex_length_in_json(self):
        with pytest.raises(ParseError, match="vertex of length 2"):
            VertexSet.from_json('{"layout": {"kind": "lop", "param": 3}, "vertices": ["01"]}')

    @pytest.mark.parametrize("param", ["3.7", "true", '"3"'])
    def test_json_layout_param_must_be_an_integer(self, param):
        text = '{"layout": {"kind": "lop", "param": %s}, "vertices": []}' % param
        with pytest.raises(ParseError, match="layout param must be an integer"):
            VertexSet.from_json(text)

    @pytest.mark.parametrize(
        "kind, param, labels",
        [
            ("cube", 3, None), ("lop", -1, None), (["lop"], 3, None),
            ("dcp", 3, ["a", "b"]), ("dcp", 3, ["a", "b", "a"]),
            ("lop", 100000, None), ("bqp", 100000, None), ("stable", 10**9, None),
            ("lop", 0, None), ("bqp", 0, None), ("stable", 0, None), ("dcp", 0, None),
        ],
        ids=[
            "unknown kind", "negative param", "list kind", "short labels", "duplicate labels",
            "huge lop", "huge bqp", "huge stable", "lop 0", "bqp 0", "stable 0", "dcp 0",
        ],
    )
    def test_malformed_layout_in_files(self, kind, param, labels):
        header = f"layout {kind} {param}" + (f"\nlabels {' '.join(labels)}" if labels else "")
        with pytest.raises(ParseError):
            VertexSet.from_text(header + "\n")
        obj = {"kind": kind, "param": param} | ({"labels": labels} if labels else {})
        with pytest.raises(ParseError):
            VertexSet.from_json(json.dumps({"layout": obj, "vertices": []}))

    @pytest.mark.parametrize("vertices", ['"0101"', '[1, 0]', '{"0": 1}', "null"])
    def test_json_vertices_must_be_a_list_of_strings(self, vertices):
        text = '{"layout": {"kind": "stable", "param": 1}, "vertices": %s}' % vertices
        with pytest.raises(ParseError, match="vertices must be a list of strings"):
            VertexSet.from_json(text)

    def test_vertices_built_from_words(self):
        vs = VertexSet.from_words(CoordLayout.lop(3), [6, 0, 6, 1])
        assert vs.words == (0, 1, 6)
        assert vs.vertices == tuple(vs) == (
            Vertex01(3, 0), Vertex01(3, 1), Vertex01(3, 6),
        )

    def test_words_out_of_range_rejected(self):
        for words in ([8], [-1]):
            with pytest.raises(InvalidVertexError):
                VertexSet.from_words(CoordLayout.lop(3), words)

    def test_hash_and_repr(self):
        vs = lop_vertices(3)
        same = VertexSet.from_words(CoordLayout.lop(3), reversed(vs.words))
        assert same == vs and hash(same) == hash(vs) and len({vs, same}) == 1
        assert repr(vs) == "VertexSet(CoordLayout(lop, 3, dim=3), count=6)"


class TestCustomLabels:
    LABELS = ("a", "b(1,2)", "c")

    def layout(self):
        return CoordLayout.dcp(3, self.LABELS)

    def test_header_lists_labels(self):
        assert self.layout().header() == "layout dcp 3\nlabels a b(1,2) c"
        assert CoordLayout.from_header(self.layout().header()) == self.layout()

    def test_default_labels_keep_one_line_header(self):
        assert CoordLayout.dcp(3).header() == "layout dcp 3"
        assert "labels" not in CoordLayout.dcp(3).to_json_obj()

    def test_vertex_set_round_trips(self):
        vs = VertexSet.from_words(self.layout(), [0b101, 0b010])
        assert VertexSet.from_text(vs.to_text()) == vs
        assert VertexSet.from_json(vs.to_json()) == vs
        assert vs.to_json_obj()["layout"]["labels"] == list(self.LABELS)

    def test_labels_must_be_single_words(self):
        for labels in (("a", "b c", "d"), ("a", "", "d"), ("a", "a", "d")):
            with pytest.raises(InvalidParameterError):
                CoordLayout.dcp(3, labels)

    def test_bad_labels_in_files(self):
        with pytest.raises(ParseError):
            CoordLayout.from_header("layout dcp 3\nlabels a b c\n101")
        with pytest.raises(ParseError):
            CoordLayout.from_json_obj({"kind": "dcp", "param": 3, "labels": "abc"})
        with pytest.raises(ParseError):
            CoordLayout.from_json_obj({"kind": "dcp", "param": 1, "labels": [["a"]]})
        with pytest.raises(ParseError):
            VertexSet.from_text("layout dcp 3\nlabels a b\n101\n")


class TestPermutation:
    def test_reversal_sequence(self):
        p = sequence_to_perm("654321")
        assert p.sequence[0] == 6
        assert p.sequence[6 - 1] == 1

    def test_identity(self):
        assert sequence_to_perm("123") == Permutation((1, 2, 3))

    def test_sequence_from_digits(self):
        assert sequence_to_perm("4132").sequence == (4, 1, 3, 2)

    def test_positional_argument_is_the_sequence(self):
        assert Permutation((2, 4, 3, 1)).sequence_str() == "2431"

    def test_sequence_round_trip_examples(self):
        for s in ("654321", "123", "4132", "165432"):
            assert sequence_to_perm(s).sequence_str() == s

    @given(st.permutations(list(range(1, 8))))
    def test_sequence_round_trip(self, seq):
        p = sequence_to_perm(seq)
        assert list(p.sequence) == list(seq)

    def test_repeated_element_rejected(self):
        with pytest.raises(ParseError):
            sequence_to_perm("1223")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            sequence_to_perm("125")

    def test_bad_sequence_rejected(self):
        with pytest.raises(InvalidPermutationError):
            Permutation((1, 1, 3))

    def test_every_non_order_rejected(self):
        for bad in ("", [], (), [1.0, 2.0], [True, 2], [1, "2"], "0", [2]):
            with pytest.raises(ParseError):
                sequence_to_perm(bad)
        for bad in ((), (True, 2), (1, 2.0), (1, False), (0, 1)):
            with pytest.raises(InvalidPermutationError):
                Permutation(bad)

    def test_spaced_sequence(self):
        p = sequence_to_perm("10 1 2 3 4 5 6 7 8 9")
        assert p.sequence[0] == 10
        assert p.sequence[1] == 1


class TestPermToLopVertex:
    def test_identity_all_ones(self):
        assert perm_to_lop_vertex(Permutation((1, 2, 3))).to_string() == "111"

    def test_reversal_all_zeros(self):
        assert perm_to_lop_vertex(sequence_to_perm("321")).to_string() == "000"

    def test_six_element_sequence(self):
        v = perm_to_lop_vertex(sequence_to_perm("165432"))
        assert v.bit(pair_index(1, 2, 6)) == 1
        assert v.bit(pair_index(3, 4, 6)) == 0
        assert v.bit(pair_index(5, 6, 6)) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_injective(self, m):
        from itertools import permutations

        words = {
            perm_to_lop_vertex(sequence_to_perm(seq)).word
            for seq in permutations(range(1, m + 1))
        }
        import math

        assert len(words) == math.factorial(m)
        assert words == set(lop_vertices(m).words)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_vertex_to_perm_round_trip(self, m):
        from itertools import permutations

        for seq in permutations(range(1, m + 1)):
            p = sequence_to_perm(seq)
            v = perm_to_lop_vertex(p)
            assert lop_vertex_to_perm(v, m) == p

    def test_non_order_word_rejected(self):
        with pytest.raises(InvalidVertexError):
            lop_vertex_to_perm(Vertex01.from_string("101"), 3)
        for m, count in ((3, 2), (4, 40)):
            dim = m * (m - 1) // 2
            orders = set(lop_vertices(m).words)
            others = [w for w in range(1 << dim) if w not in orders]
            assert len(others) == count
            for w in others:
                with pytest.raises(InvalidVertexError):
                    lop_vertex_to_perm(Vertex01(dim, w), m)

    @pytest.mark.parametrize("dim, m", [(0, 0), (1, -1)])
    def test_order_size_below_one_rejected(self, dim, m):
        # dims 0 and 1 fit m(m-1)/2 for m = 0 and m = -1; m is refused first
        with pytest.raises(InvalidParameterError, match="lop layout needs m >= 1"):
            lop_vertex_to_perm(Vertex01(dim, 0), m)


class TestLopPairBits:
    def test_built_once_per_m_and_immutable(self):
        bits = lop_pair_bits(5)
        assert lop_pair_bits(5) is bits
        assert lop_pair_bits(4) is not bits
        with pytest.raises(TypeError):
            bits[1][2] = 0
        with pytest.raises(TypeError):
            bits[1] = ()


class TestLinearForm:
    def test_evaluate(self):
        f = LinearForm((1, 1, -1), "<=", 1)
        assert f.evaluate(Vertex01.from_string("111")) == 1
        assert f.evaluate(Vertex01.from_string("100")) == 1
        assert f.evaluate(Vertex01.from_string("001")) == -1

    def test_relations(self):
        f = LinearForm((1,), ">=", 1)
        assert not f.holds(f.evaluate(Vertex01.from_string("0")))
        assert f.holds(f.evaluate(Vertex01.from_string("1")))

    def test_parse_render_round_trip(self):
        f = LinearForm((0, 1, 1, 0, -1, 0), "=", 0)
        assert LinearForm.parse(f.render()) == f

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            LinearForm.parse("1 0 == 0")
        with pytest.raises(ParseError):
            LinearForm.parse("<=")

    def test_describe_uses_labels(self):
        layout = CoordLayout.lop(3)
        f = LinearForm((1, -1, 2), "<=", 1)
        assert f.describe(layout) == "y(1,2) - y(1,3) + 2*y(2,3) <= 1"

    @pytest.mark.parametrize("coeffs, text", [
        ((-1, 1, 0), "-y(1,2) + y(1,3) = 0"),
        ((-2, 1, 0), "-2*y(1,2) + y(1,3) = 0"),
        ((0, -1, -3), "-y(1,3) - 3*y(2,3) = 0"),
        ((0, 0, 0), "0 = 0"),
    ])
    def test_describe_signs(self, coeffs, text):
        # every term is its sign, then k* when |k| != 1, then its label
        assert LinearForm(coeffs, "=", 0).describe(CoordLayout.lop(3)) == text

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LinearForm((1, 0), "<=", 0).evaluate(Vertex01.from_string("111"))

    def test_evaluate_coords_exact(self):
        f = LinearForm((2, -3), "=", 0)
        assert f.evaluate_coords((Fraction(3, 2), Fraction(1))) == 0


class TestAffineMapQ:
    def test_apply_exact_coords(self):
        m = AffineMapQ.linear([[1, 1], [2, -1]])
        assert m.apply((Fraction(1, 2), Fraction(2))) == (Fraction(5, 2), Fraction(-1))

    def test_linear_zero_offset(self):
        m = AffineMapQ.linear([[1, 0], [0, 1]])
        assert m.apply(Vertex01.from_string("10").bits) == (1, 0)

    def test_dimension_mismatch(self):
        m = AffineMapQ.linear([[1, 0]])
        with pytest.raises(DimensionMismatchError):
            m.apply((1,))
        with pytest.raises(DimensionMismatchError):
            AffineMapQ.linear([[1, 0], [1]])

    def test_apply_word_off_cube(self):
        m = AffineMapQ.linear([[1, -1], [1, 1]])
        assert m.apply_word(0b10) == 0b11
        assert m.apply_word(0b00) == 0b00
        assert m.apply_word(0b01) is None  # image -1
        assert m.apply_word(0b11) is None  # image 2

    def test_apply_word_matches_fraction_route_on_random_maps(self):
        # off the cube the Fraction image has a coordinate outside {0, 1}
        rng = random.Random(7)
        seen = set()
        for _ in range(40):
            dim = rng.randint(1, 7)
            m = AffineMapQ.linear([[rng.randint(-2, 2) for _ in range(dim)]
                                   for _ in range(rng.randint(1, 5))])
            for word in range(1 << dim):
                coords = m.apply(tuple(map(Fraction, Vertex01(dim, word).bits)))
                on_cube = all(c in (0, 1) for c in coords)
                seen.add(on_cube)
                assert m.apply_word(word) == (
                    Vertex01.from_bits(coords).word if on_cube else None)
        assert seen == {True, False}

    def test_apply_word_out_of_range(self):
        m = AffineMapQ.linear([[1, 0]])
        with pytest.raises(InvalidVertexError):
            m.apply_word(0b100)
        with pytest.raises(InvalidVertexError):
            m.apply_word(-1)


class TestVertexFromCoords:
    """``Vertex01.from_bits`` decodes exact coordinates that are 0 or 1."""

    def test_integral_coords(self):
        v = Vertex01.from_bits((Fraction(1), Fraction(0), Fraction(1)))
        assert v.to_string() == "101"

    def test_fractional_coords_rejected(self):
        with pytest.raises(InvalidVertexError):
            Vertex01.from_bits((Fraction(1, 2),))
