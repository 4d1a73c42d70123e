"""Differential test of the support-pattern scans against per-word loops.

``reference_check`` and ``reference_extract`` evaluate every form on every
word, one word at a time, and stop at the first violating word.  The
library's ``is_valid_inequality`` and ``extract_face`` must give the same
answers on seeded random forms: validity, witness, ``attained`` (on invalid
forms too), face directions, attained flags, faces, warnings, and the same
NotSupportingError message, witness and form.
"""

import random

import pytest

from polyface import (
    CoordLayout,
    FaceSystem,
    Graph,
    LinearForm,
    NotSupportingError,
    Vertex01,
    VertexSet,
    bqp_vertices,
    dcp_embedding,
    dcp_vertices,
    extract_face,
    is_valid_inequality,
    lop_vertices,
    stable_vertices,
)
from polyface.faces import FaceExtraction, InequalityCheck, SupportCheck

RELATIONS = ("<=", ">=", "=")


def reference_check(f: LinearForm, v: VertexSet) -> InequalityCheck:
    attained = False
    rhs = f.rhs
    relation = f.relation
    for word in v.words:
        value = f.evaluate_word(word)
        if value == rhs:
            attained = True
        elif (
            (relation == "<=" and value > rhs)
            or (relation == ">=" and value < rhs)
            or relation == "="
        ):
            return InequalityCheck(False, Vertex01(f.dim, word), attained)
    return InequalityCheck(True, None, attained)


def reference_extract(v: VertexSet, fs: FaceSystem) -> FaceExtraction:
    checks = []
    for form in fs.equalities:
        chk_le = reference_check(form.relaxed("<="), v)
        if chk_le.valid:
            checks.append(SupportCheck(form, "<=", chk_le.attained))
            continue
        chk_ge = reference_check(form.relaxed(">="), v)
        if chk_ge.valid:
            checks.append(SupportCheck(form, ">=", chk_ge.attained))
            continue
        description = form.describe(fs.layout)
        raise NotSupportingError(
            f"equality {description} is not supporting-derived: "
            f"<= violated by {chk_le.witness}, >= violated by {chk_ge.witness}",
            form=form,
            witness=chk_ge.witness,
        )
    surviving = []
    for word in v.words:
        for form in fs.equalities:
            if form.evaluate_word(word) != form.rhs:
                break
        else:
            surviving.append(word)
    warnings = ()
    if len(v) > 0 and not surviving:
        warnings = ("face is empty: no vertex satisfies all equalities",)
    return FaceExtraction(v.restrict_to_words(surviving), tuple(checks), warnings)


def _dcp4():
    emb = dcp_embedding(4)
    return dcp_vertices(emb.matrix, layout=emb.layout)


HOSTS = {
    "lop5": lambda: lop_vertices(5),
    "bqp4": lambda: bqp_vertices(4),
    "stable": lambda: stable_vertices(
        Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6)])
    ),
    "dcp4": _dcp4,
    "empty": lambda: VertexSet.from_words(CoordLayout.lop(4), []),
}


def random_coeffs(rng: random.Random, dim: int) -> tuple[int, ...]:
    """Coefficients in {-2..2}: sparse, dense, or all zero."""
    shape = rng.random()
    if shape < 0.05:
        return (0,) * dim
    if shape < 0.25:
        return tuple(rng.randint(-2, 2) for _ in range(dim))
    coeffs = [0] * dim
    for i in rng.sample(range(dim), rng.randint(1, min(dim, 5))):
        coeffs[i] = rng.choice((-2, -1, 1, 2))
    return tuple(coeffs)


def candidate_rhs(coeffs, v: VertexSet) -> list[int]:
    """Right-hand sides below, at the ends of, inside and above the range."""
    form = LinearForm(coeffs, "=", 0)
    values = sorted({form.evaluate_word(w) for w in v.words}) or [0]
    lo, hi = values[0], values[-1]
    return sorted({lo - 1, lo, values[len(values) // 2], hi, hi + 1})


def outcome(call):
    try:
        return call()
    except NotSupportingError as exc:
        return ("NotSupportingError", str(exc), exc.witness, id(exc.form))


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_inequality_scan_matches_per_word_loop(name):
    v = HOSTS[name]()
    dim = v.layout.dim
    rng = random.Random(f"ineq-{name}")
    compared = invalid_attained = 0
    for _ in range(60):
        coeffs = random_coeffs(rng, dim)
        for rhs in candidate_rhs(coeffs, v):
            for relation in RELATIONS:
                form = LinearForm(coeffs, relation, rhs)
                got = is_valid_inequality(form, v)
                assert got == reference_check(form, v), form.render()
                compared += 1
                invalid_attained += not got.valid and got.attained
    assert compared >= 60 * 3
    if len(v) > 0:
        assert invalid_attained > 0  # the "attained before the witness" case is exercised


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_extract_face_matches_per_word_loop(name):
    v = HOSTS[name]()
    dim = v.layout.dim
    rng = random.Random(f"face-{name}")
    kinds = set()
    for _ in range(80):
        forms = []
        for _ in range(rng.randint(1, 3)):
            coeffs = random_coeffs(rng, dim)
            forms.append(LinearForm(coeffs, "=", rng.choice(candidate_rhs(coeffs, v))))
        fs = FaceSystem(v.layout, tuple(forms))
        got = outcome(lambda: extract_face(v, fs))
        want = outcome(lambda: reference_extract(v, fs))
        assert got == want, fs.render()
        if isinstance(got, FaceExtraction):
            kinds.add("empty face" if len(got.face) == 0 else "face")
        else:
            kinds.add("rejected")
    if len(v) > 0:
        assert kinds == {"face", "empty face", "rejected"}


class TestEmptyHost:
    """No vertex, so every form is valid and nothing is attained."""

    HOST = VertexSet.from_words(CoordLayout.lop(3), [])

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_every_form_valid_and_not_attained(self, relation):
        chk = is_valid_inequality(LinearForm((1, -1, 2), relation, 0), self.HOST)
        assert chk == InequalityCheck(True, None, False)

    def test_extract_face_is_empty_without_warning(self):
        form = LinearForm((1, -1, 2), "=", 0)
        result = extract_face(self.HOST, FaceSystem(self.HOST.layout, (form,)))
        assert result.checks == (SupportCheck(form, "<=", False),)
        assert len(result.face) == 0
        assert result.warnings == ()
