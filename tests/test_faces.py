import pytest

from polyface import (
    CoordLayout,
    DimensionMismatchError,
    FaceSystem,
    LinearForm,
    NotSupportingError,
    ParseError,
    Vertex01,
    VertexSet,
    extract_face,
    is_valid_inequality,
    lop_vertices,
    perm_to_lop_vertex,
    sequence_to_perm,
    theorem1_system,
)
from polyface.faces import SupportCheck, cut, three_cycle_forms


class TestThreeCycleForms:
    def test_counts(self):
        assert len(three_cycle_forms(3)) == 2
        assert len(three_cycle_forms(5)) == 20
        assert three_cycle_forms(2) == []

    def test_upper_form_tight_at_identity(self):
        upper = three_cycle_forms(3)[1]
        assert upper.relation == "<=" and upper.rhs == 1
        assert upper.evaluate(Vertex01.from_string("111")) == 1

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_all_valid_on_order_vertices(self, m):
        vs = lop_vertices(m)
        for form in three_cycle_forms(m):
            chk = is_valid_inequality(form, vs)
            assert chk.valid
            assert chk.attained

    @pytest.mark.parametrize("m", [7, 8])
    def test_all_valid_on_large_order_vertices(self, m, lop8):
        vs = lop8 if m == 8 else lop_vertices(m)
        for form in three_cycle_forms(m):
            assert is_valid_inequality(form, vs).valid


class TestIsValidInequality:
    def test_nonnegativity_is_supporting(self):
        vs = lop_vertices(3)
        f = LinearForm((1, 0, 0), ">=", 0)
        chk = is_valid_inequality(f, vs)
        assert chk.valid and chk.witness is None
        assert chk.attained  # vertices with y(1,2) = 0 exist

    def test_violated_form_has_witness(self):
        vs = lop_vertices(3)
        f = LinearForm((1, -1, 1), "<=", 0)  # y12 + y23 - y13 <= 0
        chk = is_valid_inequality(f, vs)
        assert not chk.valid
        assert chk.witness is not None
        assert f.evaluate(chk.witness) > 0
        # the identity order violates it with value 1
        assert f.evaluate(Vertex01.from_string("111")) == 1

    def test_valid_but_never_attained(self):
        vs = lop_vertices(3)
        f = LinearForm((1, 0, 0), "<=", 2)
        chk = is_valid_inequality(f, vs)
        assert chk.valid and not chk.attained

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_valid_inequality(LinearForm((1,), "<=", 1), lop_vertices(3))

    def test_equality_relation(self):
        layout = CoordLayout.stable(1)
        vs = VertexSet(layout, [Vertex01.from_string("1")])
        assert is_valid_inequality(LinearForm((1,), "=", 1), vs).valid
        assert not is_valid_inequality(LinearForm((1,), "=", 0), vs).valid


def _eq(coeffs, rhs=0):
    return LinearForm(tuple(coeffs), "=", rhs)


class TestExtractFace:
    def test_empty_system_returns_everything(self):
        vs = lop_vertices(3)
        result = extract_face(vs, FaceSystem(vs.layout, ()))
        assert result.face == vs
        assert result.warnings == ()

    def test_single_coordinate_face(self):
        vs = lop_vertices(3)
        fs = FaceSystem(vs.layout, (_eq((1, 0, 0)),))
        result = extract_face(vs, fs)
        expected = {
            perm_to_lop_vertex(sequence_to_perm(s)).to_string()
            for s in ("213", "231", "321")
        }
        assert {v.to_string() for v in result.face} == expected
        assert result.checks[0].direction == ">="
        assert result.checks[0].attained

    def test_quadric_face_of_six_elements(self, lop6):
        result = extract_face(lop6, theorem1_system(3))
        assert len(result.face) == 8

    def test_face_vertices_satisfy_equalities(self, lop6):
        fs = theorem1_system(3)
        face = extract_face(lop6, fs).face
        for v in face:
            for form in fs.equalities:
                assert form.evaluate(v) == form.rhs

    def test_intersection_is_order_independent(self):
        vs = lop_vertices(4)
        fs = theorem1_system(2)
        first = FaceSystem(fs.layout, fs.equalities[:1])
        second = FaceSystem(fs.layout, fs.equalities[1:])
        combined = extract_face(vs, fs).face
        staged = extract_face(extract_face(vs, first).face, second).face
        assert combined == staged

    def test_empty_face_warns(self):
        vs = lop_vertices(3)
        fs = FaceSystem(vs.layout, (_eq((1, 0, 0), rhs=2),))
        result = extract_face(vs, fs)
        assert len(result.face) == 0
        assert result.warnings

    def test_not_supporting_raises(self):
        vs = lop_vertices(3)
        fs = FaceSystem(vs.layout, (_eq((2, 0, 0), rhs=1),))
        with pytest.raises(NotSupportingError) as info:
            extract_face(vs, fs)
        assert info.value.witness is not None

    def test_dimension_mismatch(self):
        vs = lop_vertices(3)
        fs = FaceSystem(CoordLayout.lop(4), (_eq((1, 0, 0, 0, 0, 0)),))
        with pytest.raises(DimensionMismatchError):
            extract_face(vs, fs)

    @pytest.mark.parametrize("layout", [CoordLayout.bqp(2), CoordLayout.stable(3)])
    def test_another_layout_of_the_same_dimension(self, layout):
        fs = FaceSystem(layout, (_eq((1, 0, 0)),))
        message = rf"vertex set over lop\(3\) against system over {layout.kind}\({layout.param}\)"
        with pytest.raises(DimensionMismatchError, match=message):
            extract_face(lop_vertices(3), fs)


class TestCut:
    def test_empty_host_gives_unattained_le(self):
        form = _eq((1, 0, 0), rhs=1)
        assert cut(form, ()) == (SupportCheck(form, "<=", False), set())

    @pytest.mark.parametrize("coeffs, rhs, direction, patterns", [
        # y(1,2) - y(1,3) + y(2,3) is 0 on 000, 011 and 110 and 1 elsewhere
        ((1, -1, 1), 0, ">=", {0b000, 0b011, 0b110}),
        # y(1,3) = 1 reads one bit, so its pattern is that bit alone
        ((0, 1, 0), 1, "<=", {0b010}),
    ])
    def test_attained_supporting_form(self, coeffs, rhs, direction, patterns):
        form = _eq(coeffs, rhs)
        assert cut(form, lop_vertices(3).words) == (SupportCheck(form, direction, True), patterns)

    def test_valid_but_attained_by_no_word(self):
        form = _eq((1, 1, 0), rhs=3)
        assert cut(form, lop_vertices(3).words) == (SupportCheck(form, "<=", False), set())

    def test_not_supporting(self):
        # y(1,2) - y(1,3) takes -1, 0 and 1 on lop(3)
        check, _ = cut(_eq((1, -1, 0)), lop_vertices(3).words)
        assert check is None


class TestFaceSystemIO:
    def test_round_trip(self):
        fs = theorem1_system(2)
        parsed = FaceSystem.parse(fs.render())
        assert parsed.layout == fs.layout
        assert parsed.equalities == fs.equalities

    def test_rejects_inequalities(self):
        with pytest.raises(ParseError):
            FaceSystem(CoordLayout.lop(3), (LinearForm((1, 0, 0), "<=", 0),))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            FaceSystem.parse("")
        with pytest.raises(ParseError):
            FaceSystem.parse("layout lop 3\n1 0 0 < 0\n")
        with pytest.raises(ParseError, match="form of dim 2"):
            FaceSystem.parse("layout lop 3\n1 0 = 0\n")
        with pytest.raises(ParseError, match="at most"):
            FaceSystem.parse("layout lop 100000\n1 = 0\n")
