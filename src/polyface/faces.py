"""Supporting-hyperplane validation and face extraction on vertex sets.

A face system is a list of equalities over one layout.  Each equality is
accepted only if at least one of its two relaxations (<= or >=) is a valid
inequality over the whole vertex set, i.e. the equality is the boundary of a
half-space containing the polytope.  All arithmetic is exact integer
arithmetic on packed 0/1 words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CoordLayout, LinearForm, Vertex01, VertexSet, pair_index
from .errors import DimensionMismatchError, NotSupportingError, ParseError


def three_cycle_forms(m: int) -> list[LinearForm]:
    """The two transitivity inequalities per triple i < j < k on [m].

    For each triple: y_ij + y_jk - y_ik >= 0 and y_ij + y_jk - y_ik <= 1.
    Returns an empty list for m < 3.
    """
    dim = m * (m - 1) // 2
    forms: list[LinearForm] = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(j + 1, m + 1):
                coeffs = [0] * dim
                coeffs[pair_index(i, j, m)] = 1
                coeffs[pair_index(j, k, m)] = 1
                coeffs[pair_index(i, k, m)] = -1
                coeffs = tuple(coeffs)
                forms.append(LinearForm(coeffs, ">=", 0))
                forms.append(LinearForm(coeffs, "<=", 1))
    return forms


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of validating one form against a vertex set.

    ``witness`` is a violating vertex when ``valid`` is false.  ``attained``
    records whether some vertex meets the form with equality (a valid
    inequality is supporting, not merely slack everywhere); it is meaningful
    only when ``valid`` is true.
    """

    valid: bool
    witness: Vertex01 | None
    attained: bool


def is_valid_inequality(f: LinearForm, v: VertexSet) -> InequalityCheck:
    """Check that every vertex satisfies ``f``; report equality attainment."""
    if f.dim != v.layout.dim:
        raise DimensionMismatchError(
            f"form of dim {f.dim} against vertex set of dim {v.layout.dim}"
        )
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


@dataclass(frozen=True)
class FaceSystem:
    """Equalities over one layout whose intersection carves out a face."""

    layout: CoordLayout
    equalities: tuple[LinearForm, ...]
    provenance: str = ""

    def __post_init__(self):
        for form in self.equalities:
            if form.relation != "=":
                raise ParseError(f"face system forms must be equalities: {form.render()}")
            if form.dim != self.layout.dim:
                raise DimensionMismatchError(
                    f"form of dim {form.dim} in system over dim {self.layout.dim}"
                )

    def __len__(self) -> int:
        return len(self.equalities)

    def render(self) -> str:
        lines = [self.layout.header()]
        lines.extend(form.render() for form in self.equalities)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, provenance: str = "") -> "FaceSystem":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty face-system file")
        layout, body = CoordLayout.split_header(lines)
        forms = tuple(LinearForm.parse(ln) for ln in body)
        return cls(layout, forms, provenance)


@dataclass(frozen=True)
class SupportCheck:
    """Which relaxation direction certified an equality, and whether the
    corresponding hyperplane touches the vertex set."""

    form: LinearForm
    direction: str
    attained: bool


@dataclass(frozen=True)
class FaceExtraction:
    face: VertexSet
    checks: tuple[SupportCheck, ...]
    warnings: tuple[str, ...]


def extract_face(v: VertexSet, fs: FaceSystem) -> FaceExtraction:
    """Vertices of ``v`` lying on every hyperplane of ``fs``.

    Before intersecting, each equality is validated as supporting-derived:
    one of its relaxations must be a valid inequality over ``v``.  An equality
    failing both directions raises NotSupportingError with a witness.  An
    empty intersection is returned with a warning, not an error.
    """
    if v.layout.dim != fs.layout.dim:
        raise DimensionMismatchError(
            f"vertex set of dim {v.layout.dim} against system of dim {fs.layout.dim}"
        )
    checks = []
    for form in fs.equalities:
        chk_le = is_valid_inequality(form.relaxed("<="), v)
        if chk_le.valid:
            checks.append(SupportCheck(form, "<=", chk_le.attained))
            continue
        chk_ge = is_valid_inequality(form.relaxed(">="), v)
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
    equalities = fs.equalities
    for word in v.words:
        for form in equalities:
            if form.evaluate_word(word) != form.rhs:
                break
        else:
            surviving.append(word)
    face = v.restrict_to_words(surviving)
    warnings = ()
    if len(v) > 0 and not surviving:
        warnings = ("face is empty: no vertex satisfies all equalities",)
    return FaceExtraction(face, tuple(checks), warnings)
