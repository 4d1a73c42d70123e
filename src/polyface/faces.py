"""Supporting-hyperplane validation and face extraction on vertex sets.

A face system is a list of equalities over one layout.  Each equality is
accepted only if at least one of its two relaxations (<= or >=) is a valid
inequality over the whole vertex set, i.e. the equality is the boundary of a
half-space containing the polytope.  All arithmetic is exact integer
arithmetic on packed 0/1 words.

The value of a form on a 0/1 word depends only on ``word & support_mask``,
so a scan collects the distinct support patterns of the vertex set in one
pass and evaluates the form once per pattern.  Words are picked out again
(the first violating vertex, the vertices on a face) by testing their
patterns against a set of patterns, in the vertex set's sorted order.
``cut`` decides one equality this way, ``_not_supporting`` refuses one that
neither relaxation supports, and ``_extraction`` states when a face is
reported empty; ``extract_face`` and ``generators.lop_face`` both use them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CoordLayout, LinearForm, Vertex01, VertexSet, _KINDS, pair_index, triples
from .errors import DimensionMismatchError, NotSupportingError, ParseError


EMPTY_FACE_WARNING = "face is empty: no vertex satisfies all equalities"


def three_cycle_forms(m: int) -> list[LinearForm]:
    """The two transitivity inequalities per triple i < j < k on [m].

    For each triple: y_ij + y_jk - y_ik >= 0 and y_ij + y_jk - y_ik <= 1.
    Returns an empty list for m < 3.
    """
    dim = _KINDS["lop"].dim(m)
    forms: list[LinearForm] = []
    for i, j, k in triples(m):
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

    ``witness`` is the first violating vertex in sorted order when ``valid``
    is false.  ``attained`` records whether some vertex meets the form with
    equality (a valid inequality is supporting, not merely slack
    everywhere); on an invalid form it covers only the vertices before the
    witness.
    """

    valid: bool
    witness: Vertex01 | None
    attained: bool


def _pattern_values(f: LinearForm, words) -> dict[int, int]:
    """Value of ``f`` on each distinct support pattern ``word & mask``."""
    mask = f.support_mask
    return {p: f.evaluate_word(p) for p in {w & mask for w in words}}


def is_valid_inequality(f: LinearForm, v: VertexSet) -> InequalityCheck:
    """Check that every vertex satisfies ``f``; report equality attainment."""
    if f.dim != v.layout.dim:
        raise DimensionMismatchError(
            f"form of dim {f.dim} against vertex set of dim {v.layout.dim}"
        )
    words = v.words
    table = _pattern_values(f, words)
    at = {p for p, value in table.items() if value == f.rhs}
    bad = {p for p, value in table.items() if not f.holds(value)}
    if not bad:
        return InequalityCheck(True, None, bool(at))
    mask = f.support_mask
    index = next(i for i, w in enumerate(words) if w & mask in bad)
    attained = any(w & mask in at for w in words[:index])
    return InequalityCheck(False, Vertex01(f.dim, words[index]), attained)


@dataclass(frozen=True)
class FaceSystem:
    """Equalities over one layout whose intersection carves out a face."""

    layout: CoordLayout
    equalities: tuple[LinearForm, ...]

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
    def parse(cls, text: str) -> "FaceSystem":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty face-system file")
        layout, body = CoordLayout.split_header(lines)
        forms = tuple(LinearForm.parse(ln) for ln in body)
        try:
            return cls(layout, forms)
        except DimensionMismatchError as exc:
            raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class SupportCheck:
    """Which relaxation direction certified an equality, and whether the
    corresponding hyperplane touches the vertex set."""

    form: LinearForm
    direction: str
    attained: bool


def cut(form: LinearForm, words) -> tuple[SupportCheck | None, set[int]]:
    """The relaxation of ``form`` that is valid over the 0/1 ``words``, or
    None when neither is (no words give <=), and the support patterns
    ``word & form.support_mask`` of the words on its hyperplane."""
    table = _pattern_values(form, words)
    rhs = form.rhs
    on = {p for p, value in table.items() if value == rhs}
    if max(table.values(), default=rhs) <= rhs:
        return SupportCheck(form, "<=", bool(on)), on
    if min(table.values()) >= rhs:
        return SupportCheck(form, ">=", bool(on)), on
    return None, on


def _not_supporting(form: LinearForm, layout: CoordLayout, words, extend=int):
    """The NotSupportingError of an equality over ``layout`` that ``cut``
    found valid in neither direction over ``words``: it names the least word
    breaking <= and the least breaking >=, the ``.witness``, each mapped by
    the order-keeping ``extend`` (the identity, ``int``, by default)."""
    table = _pattern_values(form, words)
    mask, rhs = form.support_mask, form.rhs
    above = min(w for w in words if table[w & mask] > rhs)
    below = min(w for w in words if table[w & mask] < rhs)
    le, ge = (Vertex01(layout.dim, extend(w)) for w in (above, below))
    return NotSupportingError(f"equality {form.describe(layout)} is not supporting-derived: "
                              f"<= violated by {le}, >= violated by {ge}", form=form, witness=ge)


@dataclass(frozen=True)
class FaceExtraction:
    face: VertexSet
    checks: tuple[SupportCheck, ...]
    warnings: tuple[str, ...]


def _extraction(face: VertexSet, checks, host_empty: bool) -> FaceExtraction:
    """The extraction of ``face`` under ``checks``: it warns iff the host
    has a vertex and the face has none."""
    warnings = (EMPTY_FACE_WARNING,) if not host_empty and not len(face) else ()
    return FaceExtraction(face, tuple(checks), warnings)


def extract_face(v: VertexSet, fs: FaceSystem) -> FaceExtraction:
    """Vertices of ``v`` lying on every hyperplane of ``fs``.

    Before intersecting, each equality is validated as supporting-derived:
    one of its relaxations must be a valid inequality over ``v``.  An equality
    failing both directions raises NotSupportingError with a witness.  An
    empty intersection is returned with a warning, not an error.  ``v`` and
    ``fs`` must be over the same layout kind and parameter; their labels may
    differ.
    """
    if (v.layout.kind, v.layout.param) != (fs.layout.kind, fs.layout.param):
        raise DimensionMismatchError(
            f"vertex set over {v.layout.kind}({v.layout.param}) "
            f"against system over {fs.layout.kind}({fs.layout.param})"
        )
    words = v.words
    checks = []
    surviving = words
    for form in fs.equalities:
        check, patterns = cut(form, words)
        if check is None:
            raise _not_supporting(form, fs.layout, words)
        checks.append(check)
        surviving = [w for w in surviving if w & form.support_mask in patterns]
    return _extraction(v.restrict_to_words(surviving), checks, host_empty=not words)
