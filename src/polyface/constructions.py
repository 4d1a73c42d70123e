"""The three certified embeddings between polytope families.

* ``theorem1_*``: the boolean quadric polytope on n variables is linearly
  isomorphic to a face of the linear ordering polytope on 2n elements, with
  an explicit linear projection and a permutation lift for every quadric
  vertex.
* ``lemma1_*``: the stable-set polytope of a graph on n vertices as the
  projection of a face of the linear ordering polytope on 2n elements.
* ``dcp_*``: the linear ordering polytope on m elements as a face of a
  double-covering polytope built from the transitivity inequalities.

Each ``*_verify`` routine returns a structured report of named assertions;
failures become report entries with witnesses, never crashes.
``theorem1_verify`` enumerates only the face (``lop_face``), and
``lemma1_verify`` counts its face's orders by their images, so both reach
past the m! orders of the host.
``dcp_verify`` enumerates both vertex sets in full.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat
from math import factorial, isqrt

from .core import (
    AffineMapQ,
    CoordLayout,
    LinearForm,
    Permutation,
    Vertex01,
    VertexSet,
    _KINDS,
    lop_vertex_to_perm,
    perm_to_lop_vertex,
    pairs,
    sequence_to_perm,
    triples,
    word_to_string,
)
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidVertexError,
    ParseError,
)
from .faces import FaceSystem, extract_face, is_valid_inequality
from .generators import (
    DEFAULT_MAX_DCP_COLS,
    DEFAULT_MAX_PERMS,
    FourOnesMatrix,
    Graph,
    _bqp_word,
    _count_orders,
    _refuse_over,
    bqp_vertices,
    dcp_vertices,
    lop_face,
    lop_vertices,
    stable_vertices,
)

@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class Report:
    """Machine-readable verification outcome: named assertions plus details."""

    construction: str
    params: dict
    assertions: list[Assertion] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.assertions.append(Assertion(name, passed, witness if not passed else None))

    def assertion(self, name: str) -> Assertion:
        for a in self.assertions:
            if a.name == name:
                return a
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        assertions = []
        for a in self.assertions:
            entry: dict = {"name": a.name, "pass": a.passed}
            if a.witness is not None:
                entry["witness"] = a.witness
            assertions.append(entry)
        return {
            "construction": self.construction,
            "params": self.params,
            "assertions": assertions,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Report":
        _require_object(obj, "the report")
        try:
            entries = [_require_object(e, "an assertion") for e in obj.get("assertions", [])]
            assertions = []
            for entry in entries:
                name, passed, witness = entry["name"], entry["pass"], entry.get("witness")
                if not isinstance(name, str):
                    raise ParseError(f"bad report object: 'name' must be a string, got {name!r}")
                if not isinstance(passed, bool):
                    raise ParseError(f"bad report object: 'pass' must be true or false, "
                                     f"got {passed!r}")
                if "witness" in entry and (passed or not isinstance(witness, str)):
                    raise ParseError("bad report object: 'witness' must be a string on a "
                                     f"failing assertion, got {witness!r}")
                assertions.append(Assertion(name, passed, witness))
            construction = obj["construction"]
            if not isinstance(construction, str):
                raise ParseError("bad report object: 'construction' must be a string, "
                                 f"got {construction!r}")
            return cls(
                construction=construction,
                params=dict(_require_object(obj.get("params", {}), "params")),
                assertions=assertions,
                details=dict(_require_object(obj.get("details", {}), "details")),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad report object: {exc}") from exc

    def render_text(self) -> str:
        lines = [f"construction: {self.construction}"]
        if self.params:
            params = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            lines.append(f"params: {params}")
        for a in self.assertions:
            status = "PASS" if a.passed else "FAIL"
            suffix = f"  [witness: {a.witness}]" if a.witness else ""
            lines.append(f"  {status} {a.name}{suffix}")
        for key in sorted(self.details):
            value = self.details[key]
            rendered = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
            lines.append(f"  {key}: {rendered}")
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"result: {verdict} ({sum(a.passed for a in self.assertions)}/"
                     f"{len(self.assertions)} assertions)")
        return "\n".join(lines) + "\n"


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"bad report object: {what} must be a JSON object, got {value!r}")
    return value


def _coeffs(layout: CoordLayout, terms: dict[str, int]) -> tuple[int, ...]:
    """Coefficients over ``layout``: ``terms[label]`` at each listed label, 0 elsewhere."""
    coeffs = [0] * layout.dim
    for label, c in terms.items():
        coeffs[layout.index_of(label)] = c
    return tuple(coeffs)


def _form(layout: CoordLayout, terms: dict, relation: str = "=", rhs: int = 0) -> LinearForm:
    return LinearForm(_coeffs(layout, terms), relation, rhs)


def _y(a: int, b: int) -> str:
    """Label of the order coordinate y(a,b)."""
    return f"y({a},{b})"


def _check_identities(
    report: Report, face: VertexSet, name: str, identities: list[tuple[str, LinearForm]]
) -> None:
    """Assert that every (place, form) identity holds on every face vertex.
    The witness is the first failing vertex in sorted order, at the first
    place where it fails."""
    failures = []
    for index, (place, form) in enumerate(identities):
        check = is_valid_inequality(form, face)
        if not check.valid:
            failures.append((check.witness.word, index, f"{check.witness} at {place}"))
    report.check(name, not failures, witness=min(failures)[2] if failures else None)


def _check_lifts(
    report: Report, on_face: Callable[[int], bool], projection: AffineMapQ,
    lifts: list[tuple[Vertex01, Permutation]], back_name: str,
) -> list[int]:
    """Record that each permutation lift lands on the face of the order
    polytope, as the test ``on_face(word)`` reads it, and projects back onto
    its target vertex.

    ``lifts`` pairs each target vertex with its lift, in sorted target order;
    each witness names the first failing target.  Returns the lifted words.
    """
    words = []
    witness_face = witness_back = None
    for x, perm in lifts:
        word = perm_to_lop_vertex(perm).word
        words.append(word)
        if witness_face is None and not on_face(word):
            witness_face = f"lift of {x} -> {perm.sequence_str()}"
        image = projection.apply_word(word)
        if witness_back is None and image != x.word:
            target = "a point that is not 0/1" if image is None else word_to_string(image, x.dim)
            witness_back = f"lift of {x} projects to {target}"
    report.check("lift_lands_on_face", witness_face is None, witness=witness_face)
    report.check(back_name, witness_back is None, witness=witness_back)
    return words


# ---------------------------------------------------------------------------
# quadric polytope as a face of the linear ordering polytope
# ---------------------------------------------------------------------------


def _bqp_n_from_dim(dim: int) -> int:
    n = (isqrt(8 * dim + 1) - 1) // 2
    if _KINDS["bqp"].dim(n) != dim:
        raise InvalidVertexError(f"dimension {dim} is not of the form n(n+1)/2")
    if n < 1:
        raise InvalidVertexError(f"dimension {dim} is n(n+1)/2 for n = {n}, "
                                 "but a quadric vertex needs n >= 1")
    return n


def theorem1_system(n: int) -> FaceSystem:
    """Equalities over the order polytope on 2n elements carving out the
    quadric face: for every 1 <= i < j <= n,

      y(2i,2j-1) = 0
      y(2i-1,2i) + y(2i,2j) - y(2i-1,2j) = 0
      y(2i-1,2j-1) + y(2j-1,2j) - y(2i-1,2j) = 0
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    layout = CoordLayout.lop(2 * n)
    forms = []
    for i, j in pairs(n):
        oi, ei = 2 * i - 1, 2 * i
        oj, ej = 2 * j - 1, 2 * j
        forms.append(_form(layout, {_y(ei, oj): 1}))
        forms.append(_form(layout, {_y(oi, ei): 1, _y(ei, ej): 1, _y(oi, ej): -1}))
        forms.append(_form(layout, {_y(oi, oj): 1, _y(oj, ej): 1, _y(oi, ej): -1}))
    return FaceSystem(layout, tuple(forms))


def theorem1_project(n: int) -> AffineMapQ:
    """Linear map from order coordinates on [2n] to quadric coordinates:
    x(i,i) = y(2i-1,2i) and x(i,j) = y(2j-1,2j) - y(2i,2j).

    The reversal maps to the origin and the interleaved order 531642 to
    the all-ones vertex:

    >>> from polyface import perm_to_lop_vertex, sequence_to_perm
    >>> proj = theorem1_project(3)
    >>> for s in ("654321", "531642"):
    ...     word = perm_to_lop_vertex(sequence_to_perm(s)).word
    ...     print(s, word_to_string(proj.apply_word(word), 6))
    654321 000000
    531642 111111
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    layout = CoordLayout.lop(2 * n)
    rows = [_coeffs(layout, {_y(2 * i - 1, 2 * i): 1}) for i in range(1, n + 1)]
    rows += [
        _coeffs(layout, {_y(2 * j - 1, 2 * j): 1, _y(2 * i, 2 * j): -1}) for i, j in pairs(n)
    ]
    return AffineMapQ.linear(rows)


def _validate_bqp_vertex(x: Vertex01, n: int) -> list[int]:
    """Check the product structure of a quadric vertex; return its diagonal.
    ``x`` is compared with the word its diagonal forces in bqp(n); the
    first pair where they differ is at their highest differing bit."""
    diagonal = x.word >> (x.dim - n)
    expected = _bqp_word(n, diagonal)
    if expected != x.word:
        i, j = pairs(n)[x.dim - (expected ^ x.word).bit_length() - n]
        raise InvalidVertexError(f"{x} violates the product structure at pair ({i},{j})")
    return [diagonal >> (n - 1 - i) & 1 for i in range(n)]


def _zeros_ones(bits) -> tuple[list[int], list[int]]:
    """Z and O: the 1-based indices where ``bits`` is 0 and where it is 1,
    each in descending order."""
    indices = range(len(bits), 0, -1)
    return [i for i in indices if not bits[i - 1]], [i for i in indices if bits[i - 1]]


def theorem1_lift(x: Vertex01) -> Permutation:
    """Permutation of [2n] whose order vector lies on the quadric face and
    projects back onto the quadric vertex ``x``: with Z and O the diagonal
    indices at 0 and at 1, each descending, the sequence

      [2i-1 for i in O] + [2i, 2i-1 for i in Z] + [2i for i in O]

    >>> theorem1_lift(Vertex01.from_string("101010")).sequence_str()  # Z = [2], O = [3, 1]
    '514362'
    """
    n = _bqp_n_from_dim(x.dim)
    zeros, ones = _zeros_ones(_validate_bqp_vertex(x, n))
    middle = [e for i in zeros for e in (2 * i, 2 * i - 1)]
    return sequence_to_perm([2 * i - 1 for i in ones] + middle + [2 * i for i in ones])


def theorem1_verify(n: int, max_perms: int = DEFAULT_MAX_PERMS) -> Report:
    """Certify the quadric-as-face embedding for one n.

    The face is found by the face search, which emits its 2^n orders out of
    the (2n)! of lop(2n); ``max_perms`` bounds those orders, so n with
    2^n > max_perms is refused before anything is built.  ``lop_size`` in
    the details is (2n)!.

    Checks, in order: the face has exactly 2^n vertices; the projection is a
    bijection from the face onto the quadric vertex set; the three dependent-
    coordinate identities hold on every face vertex; every quadric vertex
    lifts onto the face and round-trips; the face equals the lift image.
    """
    _refuse_over(max_perms, repeat(2, n), f"the 2^{n} orders of the theorem-1 face")
    m = 2 * n
    report = Report("theorem1", {"n": n})
    face = lop_face(theorem1_system(n), max_perms=max_perms).face
    bqp = bqp_vertices(n)
    projection = theorem1_project(n)

    report.check(
        "face_cardinality",
        len(face) == 2 ** n,
        witness=f"face has {len(face)} vertices, expected {2 ** n}",
    )

    images = [projection.apply_word(word) for word in face.words]
    bad = next((w for w, image in zip(face.words, images) if image is None), None)
    report.check(
        "projection_bijective_onto_bqp",
        bad is None and len(set(images)) == len(face) and set(images) == set(bqp.words),
        witness="image set mismatch" if bad is None
        else f"non-integral image of {word_to_string(bad, face.layout.dim)}",
    )

    # With d_i = y(2i-1,2i) and c = y(2i,2j): y(2i-1,2j) = d_i + c,
    # y(2i-1,2j-1) = d_i + c - d_j, and c = d_j (1 - d_i), which on 0/1
    # values is c <= d_j, c + d_i <= 1 and c - d_j + d_i >= 0.
    host = face.layout
    cross_oe, cross_oo, product = [], [], []
    for i, j in pairs(n):
        place = f"pair ({i},{j})"
        d_i, d_j, c = _y(2 * i - 1, 2 * i), _y(2 * j - 1, 2 * j), _y(2 * i, 2 * j)
        oe, oo = _y(2 * i - 1, 2 * j), _y(2 * i - 1, 2 * j - 1)
        cross_oe.append((place, _form(host, {oe: 1, d_i: -1, c: -1})))
        cross_oo.append((place, _form(host, {oo: 1, d_i: -1, c: -1, d_j: 1})))
        product.append((place, _form(host, {c: 1, d_j: -1}, "<=", 0)))
        product.append((place, _form(host, {c: 1, d_i: 1}, "<=", 1)))
        product.append((place, _form(host, {c: 1, d_j: -1, d_i: 1}, ">=", 0)))
    _check_identities(report, face, "identity_cross_odd_even", cross_oe)
    _check_identities(report, face, "identity_cross_odd_odd", cross_oo)
    _check_identities(report, face, "identity_product", product)

    lifts = [(x, theorem1_lift(x)) for x in bqp]
    lift_words = _check_lifts(
        report, frozenset(face.words).__contains__, projection, lifts, "lift_roundtrip")
    report.check(
        "face_equals_lift_image",
        set(face.words) == set(lift_words),
        witness="face and lift image differ as sets",
    )

    # a word determines its order, so each lift names its word's sequence;
    # only face words that no lift reaches, which fail a check, are decoded
    sequences = dict(zip(lift_words, (perm.sequence_str() for _, perm in lifts)))
    splits = [_zeros_ones(x.bits[:n]) for x, _ in lifts]
    report.details = {
        "n": n,
        "lop_size": factorial(m),
        "face_size": len(face),
        "face_sequences": [sequences.get(w) or lop_vertex_to_perm(
            Vertex01(host.dim, w), m).sequence_str() for w in face.words],
        "lifts": [
            {"diagonal": x.to_string()[:n], "k": len(zeros), "zeros_desc": zeros,
             "ones_desc": ones, "sequence": perm.sequence_str()}
            for (x, perm), (zeros, ones) in zip(lifts, splits)
        ],
    }
    return report


# ---------------------------------------------------------------------------
# stable-set polytope as a projection of a face
# ---------------------------------------------------------------------------


def lemma1_system(g: Graph) -> FaceSystem:
    """Equalities over the order polytope on [2n] for a graph on [n]:
    y(i, n+j) = 0 and y(j, n+i) = 0 for every edge {i, j}."""
    n = g.n
    layout = CoordLayout.lop(2 * n)
    forms = [
        _form(layout, {_y(a, b): 1})
        for i, j in g.sorted_edges()
        for a, b in ((i, n + j), (j, n + i))
    ]
    return FaceSystem(layout, tuple(forms))


def lemma1_project(n: int) -> AffineMapQ:
    """Coordinate projection from order coordinates on [2n] onto the n
    stable-set coordinates: x(i) = y(i, n+i)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    layout = CoordLayout.lop(2 * n)
    return AffineMapQ.linear([_coeffs(layout, {_y(i, n + i): 1}) for i in range(1, n + 1)])


def lemma1_lift(x: Vertex01, g: Graph) -> Permutation:
    """Permutation of [2n] whose order vector lies on the graph's face and
    projects onto the stable-set vertex ``x``: with Z and O the indices at 0
    and at 1, each descending, the sequence

      [n+i for i in Z] + O + [n+i for i in O] + Z

    >>> path = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    >>> lemma1_lift(Vertex01.from_string("1001"), path).sequence_str()  # Z = [3, 2], O = [4, 1]
    '76418532'
    """
    n = g.n
    if x.dim != n:
        raise DimensionMismatchError(
            f"vertex of dim {x.dim} for a graph on {n} vertices"
        )
    for i, j in g.sorted_edges():
        if x.bit(i - 1) and x.bit(j - 1):
            raise InvalidVertexError(f"{x} is not stable: edge ({i},{j}) fully set")
    zeros, ones = _zeros_ones(x.bits)
    return sequence_to_perm([n + i for i in zeros] + ones + [n + i for i in ones] + zeros)


def lemma1_verify(g: Graph, max_perms: int = DEFAULT_MAX_PERMS) -> Report:
    """Certify the stable-set projection for one graph.

    The face is the set of orders on [2n] that put b before a for every
    equality y(a, b) = 0 of the graph's system, so it is counted, not
    enumerated: ``_count_orders`` splits its orders by their images, the
    bits y(i, n+i) that the projection reads.  ``face_size`` is the sum of
    these counts and ``fibers`` are the counts.  The count holds at most
    5^n states, so n with 5^n > max_perms is refused before anything is
    built.  ``lop_size`` in the details is (2n)!.

    The image of the face under the coordinate projection must equal the
    stable-set vertex set (a projection, not a bijection; fiber sizes are
    recorded), and the lift of every stable vertex must meet the system's
    equalities.
    """
    n = g.n
    _refuse_over(max_perms, repeat(5, n),
                 f"the 5^{n} states of the lemma-1 count for a graph on {n} vertices")
    edges = [f"{i} {j}" for i, j in g.sorted_edges()]
    report = Report("lemma1", {"n": n, "edges": edges})
    system = lemma1_system(g)
    stable = stable_vertices(g)
    projection = lemma1_project(n)

    # each equality and each projection row reads one coordinate y(a, b):
    # y(a, b) = 0 puts b before a, and y(a, b) = 1 puts a before b
    pair_list = pairs(2 * n)

    def pair(form: LinearForm) -> tuple[int, int]:
        return pair_list[form.coeffs.index(1)]

    precedences = [pair(form) if form.rhs else pair(form)[::-1] for form in system.equalities]
    splits = [pair(row) for row in projection.rows]
    fibers = _count_orders(2 * n, precedences, splits)
    report.check(
        "projection_image_equals_stable_set",
        set(fibers) == set(stable.words),
        witness=f"image size {len(fibers)}, stable size {len(stable)}",
    )

    def on_face(word: int) -> bool:
        return all(form.holds(form.evaluate_word(word)) for form in system.equalities)

    lifts = [(x, lemma1_lift(x, g)) for x in stable]
    _check_lifts(report, on_face, projection, lifts, "lift_projects_back")

    report.details = {
        "n": n,
        "edges": edges,
        "lop_size": factorial(2 * n),
        "face_size": sum(fibers.values()),
        "stable_size": len(stable),
        "fibers": {
            word_to_string(w, stable.layout.dim): c for w, c in sorted(fibers.items())
        },
    }
    return report


# ---------------------------------------------------------------------------
# order polytope as a face of a double-covering polytope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DcpEmbedding:
    """Double-covering system hosting the order polytope on [m] as a face.

    Columns are ordered: y(i,j) pairs lexicographic, their complements
    yb(i,j), the two switch columns z and h, then one slack column t(i,j,k)
    per triple.  The face is cut out by z = 0, h = 1.
    """

    m: int
    matrix: FourOnesMatrix
    layout: CoordLayout
    fixed: dict[str, int]


def dcp_embedding(m: int) -> DcpEmbedding:
    """Build the double-covering system whose z=0, h=1 face is the order
    polytope on [m]:

      y(i,j) + yb(i,j) + z + h = 2          for every pair i < j,
      y(i,j) + y(j,k) + yb(i,k) + t(i,j,k) = 2   for every triple i < j < k.
    """
    if m < 3:
        raise InvalidParameterError(f"need m >= 3 (no triples exist below), got {m}")
    pair_list = pairs(m)
    triple_list = triples(m)
    labels = (
        [_y(i, j) for i, j in pair_list]
        + [f"yb({i},{j})" for i, j in pair_list]
        + ["z", "h"]
        + [f"t({i},{j},{k})" for i, j, k in triple_list]
    )
    layout = CoordLayout.dcp(len(labels), labels)

    def columns(*names: str) -> tuple[int, ...]:
        return tuple(layout.index_of(name) + 1 for name in names)

    rows = [columns(_y(i, j), f"yb({i},{j})", "z", "h") for i, j in pair_list]
    rows += [
        columns(_y(i, j), _y(j, k), f"yb({i},{k})", f"t({i},{j},{k})") for i, j, k in triple_list
    ]
    matrix = FourOnesMatrix.from_rows(len(labels), rows)
    return DcpEmbedding(m=m, matrix=matrix, layout=layout, fixed={"z": 0, "h": 1})


def dcp_face_system(emb: DcpEmbedding) -> FaceSystem:
    """The z = 0, h = 1 equalities over the embedding's column layout."""
    forms = [_form(emb.layout, {label: 1}, "=", value) for label, value in emb.fixed.items()]
    return FaceSystem(emb.layout, tuple(forms))


def dcp_verify(
    m: int,
    max_cols: int = DEFAULT_MAX_DCP_COLS,
    max_perms: int = DEFAULT_MAX_PERMS,
) -> Report:
    """Certify the double-covering embedding for one m by full enumeration.

    Checks the row count formula m(m-1)(m+1)/6, the four-ones row structure,
    that the z=0, h=1 face projects bijectively onto the order polytope
    vertex set, and the two dependent-coordinate identities on the face
    (complements yb = 1 - y and slacks t = 1 - (y_ij + y_jk - y_ik)).
    The order budget is checked before the embedding's C(m,3) rows are built.
    """
    lop = lop_vertices(m, max_perms=max_perms)
    emb = dcp_embedding(m)
    ncols = emb.layout.dim
    report = Report("dcp", {"m": m})
    expected_rows = m * (m - 1) * (m + 1) // 6
    report.check(
        "row_count",
        emb.matrix.k == expected_rows,
        witness=f"{emb.matrix.k} rows, expected {expected_rows}",
    )
    report.check(
        "rows_have_four_ones",
        all(len(set(row)) == 4 for row in emb.matrix.rows),
        witness="some row does not have four distinct columns",
    )

    dcp_set = dcp_vertices(emb.matrix, max_cols=max_cols, layout=emb.layout)
    face = extract_face(dcp_set, dcp_face_system(emb)).face

    projected = {word >> (ncols - lop.layout.dim) for word in face.words}
    report.check(
        "face_projects_bijectively_onto_lop",
        len(face) == len(lop) and projected == set(lop.words),
        witness=f"face size {len(face)}, lop size {len(lop)}",
    )

    # On the face, yb(i,j) = 1 - y(i,j) and t(i,j,k) = 1 - (y_ij + y_jk - y_ik).
    host = emb.layout
    complements = [
        (f"pair ({i},{j})", _form(host, {_y(i, j): 1, f"yb({i},{j})": 1}, "=", 1))
        for i, j in pairs(m)
    ]
    slacks = [
        (f"triple ({i},{j},{k})", _form(
            host, {_y(i, j): 1, _y(j, k): 1, _y(i, k): -1, f"t({i},{j},{k})": 1}, "=", 1))
        for i, j, k in triples(m)
    ]
    _check_identities(report, face, "complement_coordinates", complements)
    _check_identities(report, face, "slack_coordinates", slacks)

    report.details = {
        "m": m,
        "columns": ncols,
        "rows": emb.matrix.k,
        "dcp_size": len(dcp_set),
        "face_size": len(face),
        "lop_size": len(lop),
    }
    return report
