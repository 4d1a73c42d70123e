"""Coordinate layouts, 0/1 vertices, permutations, integer linear forms and maps.

Conventions used throughout the package:

* elements and coordinate pairs are 1-based in every public interface and in
  all file formats; 0-based indices appear only inside coordinate arithmetic,
* a vertex is stored bit-packed with coordinate ``i`` (0-based) at bit
  ``dim - 1 - i``, so comparing packed words is exactly lexicographic
  comparison of the coordinate sequences and ``to_string`` is a plain binary
  rendering,
* a linear order on [m] is a ``Permutation``, the sequence of its elements
  from first to last, and as a vertex the word of its pair bits: y(a, b),
  a < b, is 1 iff a precedes b, and ``lop_pair_bits`` is the table of these
  bits,
* vertex sets are deduplicated and sorted in that lexicographic order, which
  makes every generator and face extraction deterministic down to the byte.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidPairError,
    InvalidParameterError,
    InvalidPermutationError,
    InvalidVertexError,
    ParseError,
)

RELATIONS = ("<=", ">=", "=")


def pair_index(i: int, j: int, m: int) -> int:
    """0-based position of the pair (i, j), i < j, in lexicographic order.

    Pairs over [m] are ordered (1,2), (1,3), ..., (1,m), (2,3), ..., (m-1,m).

    >>> pair_index(1, 2, 4)
    0
    >>> pair_index(3, 4, 4)
    5
    """
    if not (1 <= i < j <= m):
        raise InvalidPairError(f"need 1 <= i < j <= m, got (i={i}, j={j}, m={m})")
    return (i - 1) * (2 * m - i) // 2 + (j - i - 1)


def pairs(m: int) -> list[tuple[int, int]]:
    """All pairs (i, j) with 1 <= i < j <= m in lexicographic order."""
    return list(combinations(range(1, m + 1), 2))


def triples(m: int) -> list[tuple[int, int, int]]:
    """All triples (i, j, k) with 1 <= i < j < k <= m in lexicographic order."""
    return list(combinations(range(1, m + 1), 3))


#: Each layout kind: its parameter's name, then its dimension and its
#: default labels as functions of the parameter.
_Kind = namedtuple("_Kind", "param_name dim labels")
_KINDS = {
    "bqp": _Kind("n", lambda n: n * (n + 1) // 2, lambda n: tuple(
        f"x({i},{j})" for i, j in [(i, i) for i in range(1, n + 1)] + pairs(n))),
    "lop": _Kind("m", lambda m: m * (m - 1) // 2, lambda m: tuple(
        f"y({i},{j})" for i, j in pairs(m))),
    "stable": _Kind("n", lambda n: n, lambda n: tuple(f"x({i})" for i in range(1, n + 1))),
    "dcp": _Kind("columns", lambda n: n, lambda n: tuple(f"c({k})" for k in range(1, n + 1))),
}


def _kind(kind, param: int) -> _Kind:
    """The table row of ``kind``, refusing an unknown kind or a parameter below 1."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidParameterError(f"unknown layout kind: {kind!r}")
    row = _KINDS[kind]
    if param < 1:
        raise InvalidParameterError(f"{kind} layout needs {row.param_name} >= 1, got {param}")
    return row


@dataclass(frozen=True)
class CoordLayout:
    """A named coordinate space: kind, size parameter, and ordered labels.

    The table ``_KINDS`` states for each kind, once, the name of its
    parameter (at least 1), its dimension and its default labels:
      * ``bqp``    - n: x(i,i) for i in [n], then x(i,j) for i < j lexicographic,
      * ``lop``    - m: y(i,j) for i < j lexicographic,
      * ``stable`` - n: x(i) for i in [n],
      * ``dcp``    - columns: c(k) for each column; embedding layouts carry
                     their structured labels instead.

    Custom labels replace the defaults one for one, so the dimension is the
    table's whatever the labels.  Layouts are values: equal kind, parameter
    and labels compare and hash equal.
    """

    kind: str
    param: int
    #: None (the default) stands for the kind's default labels.
    labels: tuple[str, ...] | None = None
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        row = _kind(self.kind, self.param)
        labels = row.labels(self.param) if self.labels is None else tuple(self.labels)
        if len(labels) != row.dim(self.param):
            raise InvalidParameterError(
                f"{self.kind}({self.param}) needs {row.dim(self.param)} labels, got {len(labels)}"
            )
        # the text header lists labels separated by spaces
        if any(str(lab).split() != [lab] for lab in labels) or len(set(labels)) != len(labels):
            raise InvalidParameterError("coordinate labels must be distinct words")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def bqp(cls, n: int) -> "CoordLayout":
        return cls("bqp", n)

    @classmethod
    def lop(cls, m: int) -> "CoordLayout":
        return cls("lop", m)

    @classmethod
    def stable(cls, n: int) -> "CoordLayout":
        return cls("stable", n)

    @classmethod
    def dcp(cls, columns: int, labels: Sequence[str] | None = None) -> "CoordLayout":
        return cls("dcp", columns, labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidParameterError(f"no coordinate labelled {label!r}") from None

    def _custom_labels(self) -> bool:
        return self.labels != _KINDS[self.kind].labels(self.param)

    def header(self) -> str:
        """Header of the text formats: ``layout <kind> <param>``, then a
        ``labels ...`` line when the labels are not the kind's defaults."""
        line = f"layout {self.kind} {self.param}"
        if self._custom_labels():
            line += "\nlabels " + " ".join(self.labels)
        return line

    @classmethod
    def from_header(cls, text: str) -> "CoordLayout":
        """Parse what ``header`` writes."""
        layout, rest = cls.split_header(text.splitlines() or [""])
        if rest:
            raise ParseError(f"unexpected line after layout header: {rest[0]!r}")
        return layout

    @classmethod
    def split_header(cls, lines: Sequence[str]) -> tuple["CoordLayout", list[str]]:
        """The layout named by the header at the top of ``lines``, and the
        lines after the header."""
        parts = lines[0].split()
        if len(parts) != 3 or parts[0] != "layout":
            raise ParseError(f"bad layout header: {lines[0]!r}")
        try:
            param = int(parts[2])
        except ValueError:
            raise ParseError(f"bad layout parameter: {parts[2]!r}") from None
        if lines[1:] and lines[1].split()[:1] == ["labels"]:
            return _file_layout(parts[1], param, lines[1].split()[1:]), list(lines[2:])
        return _file_layout(parts[1], param), list(lines[1:])

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "param": self.param, "dim": self.dim}
        if self._custom_labels():
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CoordLayout":
        try:
            kind, param, labels = obj["kind"], obj["param"], obj.get("labels")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad layout object: {obj!r}") from exc
        # JSON booleans load as Python bools, which are ints
        if type(param) is not int:
            raise ParseError(f"layout param must be an integer: {param!r}")
        if labels is not None and not isinstance(labels, list):
            raise ParseError(f"layout labels must be a list: {labels!r}")
        layout = _file_layout(kind, param, labels)
        dim = obj.get("dim", layout.dim)
        if type(dim) is not int or dim != layout.dim:
            raise ParseError(f"layout {kind}({param}) has dim {layout.dim}, not {dim!r}")
        return layout

    def __repr__(self) -> str:
        return f"CoordLayout({self.kind}, {self.param}, dim={self.dim})"


#: Most coordinates in a layout that a file names.  A header names its
#: parameter in a few bytes, while the labels grow with its square, so the
#: cap is checked before any label is built.
MAX_FILE_LAYOUT_DIM = 1 << 16


def _file_layout(kind, param: int, labels: Sequence[str] | None = None) -> CoordLayout:
    """The layout that a file names; a bad one is a ParseError."""
    try:
        dim = _kind(kind, param).dim(param)
        if dim > MAX_FILE_LAYOUT_DIM:
            raise ParseError(f"layout {kind} {param} has {dim} coordinates; a file may "
                             f"name at most {MAX_FILE_LAYOUT_DIM}")
        return CoordLayout(kind, param, labels)
    except InvalidParameterError as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True, order=True)
class Vertex01:
    """A fixed-dimension 0/1 vector, packed into one integer.

    Coordinate ``i`` (0-based) sits at bit ``dim - 1 - i``; dataclass ordering
    on (dim, word) therefore sorts same-dimension vertices lexicographically
    by coordinates.
    """

    dim: int
    word: int

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidVertexError(f"dimension must be >= 0, got {self.dim}")
        if not 0 <= self.word < (1 << self.dim):
            raise InvalidVertexError(
                f"packed word {self.word} out of range for dimension {self.dim}"
            )

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Vertex01":
        bits = tuple(bits)
        word = 0
        for value in bits:
            if value != 0 and value != 1:
                raise InvalidVertexError(f"coordinates must be 0 or 1, got {bits!r}")
            word = word << 1 | (value == 1)
        return cls(len(bits), word)

    @classmethod
    def from_string(cls, s: str) -> "Vertex01":
        if any(c not in "01" for c in s):
            raise ParseError(f"vertex string must be over {{0,1}}: {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    def bit(self, i: int) -> int:
        """Coordinate i (0-based)."""
        if not 0 <= i < self.dim:
            raise InvalidVertexError(f"coordinate {i} out of range for dim {self.dim}")
        return (self.word >> (self.dim - 1 - i)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.word >> (self.dim - 1 - i)) & 1 for i in range(self.dim))

    def to_string(self) -> str:
        return word_to_string(self.word, self.dim)

    def __str__(self) -> str:
        return self.to_string()


def word_to_string(word: int, dim: int) -> str:
    """The coordinates of a packed word of dimension ``dim`` as a 0/1 string."""
    return format(word, f"0{dim}b") if dim else ""


def _parse_vertices(layout: CoordLayout, strings: Iterable[str]) -> list[Vertex01]:
    """The vertices written as the 0/1 strings ``strings`` under ``layout``."""
    verts = [Vertex01.from_string(s) for s in strings]
    for v in verts:
        if v.dim != layout.dim:
            raise ParseError(
                f"vertex of length {v.dim} under layout of dimension {layout.dim}"
            )
    return verts


class VertexSet:
    """A deduplicated, lexicographically sorted set of vertices of one layout.

    Only the sorted packed words are stored, and membership is a binary
    search; ``Vertex01`` objects are built when a caller iterates or reads
    ``vertices``.
    """

    __slots__ = ("layout", "_words")

    def __init__(self, layout: CoordLayout, vertices: Iterable[Vertex01]):
        words = []
        for v in vertices:
            if v.dim != layout.dim:
                raise DimensionMismatchError(
                    f"vertex of dim {v.dim} in layout of dim {layout.dim}"
                )
            words.append(v.word)
        self._store(layout, words)

    @classmethod
    def from_words(cls, layout: CoordLayout, words: Iterable[int]) -> "VertexSet":
        vs = cls.__new__(cls)
        vs._store(layout, words)
        return vs

    def _store(self, layout: CoordLayout, words: Iterable[int]) -> None:
        ordered = tuple(sorted(set(words)))
        if ordered and not (ordered[0] >= 0 and ordered[-1] < 1 << layout.dim):
            raise InvalidVertexError("packed word out of range for layout dimension")
        self.layout = layout
        self._words = ordered

    @property
    def words(self) -> tuple[int, ...]:
        return self._words

    @property
    def vertices(self) -> tuple[Vertex01, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[Vertex01]:
        dim = self.layout.dim
        return (Vertex01(dim, w) for w in self._words)

    def __contains__(self, v: Vertex01) -> bool:
        k = bisect_left(self._words, v.word)
        return v.dim == self.layout.dim and self._words[k:k + 1] == (v.word,)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.layout == other.layout
            and self._words == other._words
        )

    def __hash__(self) -> int:
        return hash((self.layout, self._words))

    def __repr__(self) -> str:
        return f"VertexSet({self.layout!r}, count={len(self)})"

    def restrict_to_words(self, words: Iterable[int]) -> "VertexSet":
        return VertexSet.from_words(self.layout, words)

    def to_text(self) -> str:
        dim = self.layout.dim
        lines = [self.layout.header()]
        lines.extend(word_to_string(w, dim) for w in self._words)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "VertexSet":
        lines = text.splitlines()
        if not lines:
            raise ParseError("empty vertex-set file")
        layout, body = CoordLayout.split_header(lines)
        if layout.dim > 0:
            body = [ln.strip() for ln in body if ln.strip()]
        return cls(layout, _parse_vertices(layout, body))

    def to_json_obj(self) -> dict:
        return {
            "layout": self.layout.to_json_obj(),
            "vertices": [word_to_string(w, self.layout.dim) for w in self._words],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VertexSet":
        try:
            layout = CoordLayout.from_json_obj(obj["layout"])
            strings = obj["vertices"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad vertex-set object: {exc}") from exc
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise ParseError(f"vertices must be a list of strings: {strings!r}")
        return cls(layout, _parse_vertices(layout, strings))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VertexSet":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        return cls.from_json_obj(obj)


@dataclass(frozen=True)
class Permutation:
    """A linear order on [m], stored as its sequence: the elements of [m]
    from first to last.

    The positional argument is that sequence, any iterable stored as a tuple,
    so ``Permutation((2, 4, 3, 1))`` puts 2 first and 1 last.  ``__post_init__`` holds the one check that a
    sequence is an order on [m]: m >= 1 and every element an ``int``, not a
    ``bool``, with each of 1..m listed once.

    >>> sequence_to_perm("4132").sequence
    (4, 1, 3, 2)
    >>> Permutation((2, 4, 3, 1)).sequence_str()
    '2431'
    """

    sequence: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.sequence)
        m = len(seq)
        if m == 0 or any(type(e) is not int for e in seq) or sorted(seq) != list(range(1, m + 1)):
            raise InvalidPermutationError(f"not an order on [{m}]: {self.sequence!r}")
        object.__setattr__(self, "sequence", seq)

    @property
    def m(self) -> int:
        return len(self.sequence)

    def sequence_str(self) -> str:
        sep = "" if self.m <= 9 else " "
        return sep.join(str(e) for e in self.sequence)


def sequence_to_perm(s: str | Sequence[int]) -> Permutation:
    """Parse sequence notation, the elements from first to last, into a
    Permutation; a sequence that is not an order on [m] is a ParseError.

    Accepts an iterable of integers, or a compact digit string such as
    ``"654321"``, or a whitespace/comma separated string for m >= 10.
    """
    elements = s
    if isinstance(s, str):
        text = s.strip()
        tokens = text.replace(",", " ").split() if " " in text or "," in text else list(text)
        try:
            elements = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"bad permutation sequence: {s!r}") from None
    try:
        return Permutation(elements)
    except InvalidPermutationError as exc:
        raise ParseError(str(exc)) from exc


@lru_cache(maxsize=16)
def lop_pair_bits(m: int) -> tuple[tuple[int, ...], ...]:
    """The table ``bits[a][b]`` of lop(m): the packed bit of coordinate
    y(a, b) for 1 <= a < b <= m, and 0 for every other a, b in 0..m.
    Built once per m and shared, so it is a tuple of tuples."""
    bits = [[0] * (m + 1) for _ in range(m + 1)]
    bit = 1 << _KINDS["lop"].dim(m)
    for a, b in pairs(m):
        bit >>= 1
        bits[a][b] = bit
    return tuple(map(tuple, bits))


def perm_to_lop_vertex(p: Permutation) -> Vertex01:
    """Characteristic vector of the linear order induced by a permutation:
    each element precedes every element after it in ``p.sequence``.

    >>> perm_to_lop_vertex(sequence_to_perm("312")).to_string()
    '100'
    """
    m, seq = p.m, p.sequence
    bits = lop_pair_bits(m)
    word = 0
    for k, a in enumerate(seq, start=1):
        for b in seq[k:]:
            word |= bits[a][b]
    return Vertex01(_KINDS["lop"].dim(m), word)


def lop_vertex_to_perm(v: Vertex01, m: int) -> Permutation:
    """Invert perm_to_lop_vertex: count how many elements each element
    precedes, list the elements by that count, most first, and encode the
    list again.  A word that does not come back is not a linear order.

    >>> lop_vertex_to_perm(Vertex01.from_string("100"), 3).sequence_str()
    '312'
    """
    if v.dim != _kind("lop", m).dim(m):
        raise DimensionMismatchError(
            f"vertex of dim {v.dim} cannot encode a linear order on [{m}]"
        )
    precedes = [0] * (m + 1)
    for (a, b), y in zip(pairs(m), v.bits):
        precedes[a if y else b] += 1
    p = Permutation(sorted(range(1, m + 1), key=precedes.__getitem__, reverse=True))
    if perm_to_lop_vertex(p) != v:
        raise InvalidVertexError(f"{v} is not the vector of a linear order")
    return p


@dataclass(frozen=True)
class LinearForm:
    """Integer linear form over one coordinate layout: coeffs, relation, rhs."""

    coeffs: tuple[int, ...]
    relation: str
    rhs: int
    _nz: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    #: Packed bits of the nonzero coefficients: the value on a 0/1 word
    #: depends only on ``word & support_mask``.
    support_mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise InvalidParameterError(f"relation must be one of {RELATIONS}")
        dim = len(self.coeffs)
        nz = tuple(
            (1 << (dim - 1 - i), c) for i, c in enumerate(self.coeffs) if c != 0
        )
        object.__setattr__(self, "_nz", nz)
        object.__setattr__(self, "support_mask", sum(mask for mask, _ in nz))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def evaluate_word(self, word: int) -> int:
        """Dot product with a packed 0/1 word of matching dimension."""
        total = 0
        for mask, c in self._nz:
            if word & mask:
                total += c
        return total

    def evaluate(self, v: Vertex01) -> int:
        if v.dim != self.dim:
            raise DimensionMismatchError(
                f"form of dim {self.dim} applied to vertex of dim {v.dim}"
            )
        return self.evaluate_word(v.word)

    def evaluate_coords(self, coords: Sequence):
        """Dot product with arbitrary exact coordinates (int or Fraction)."""
        if len(coords) != self.dim:
            raise DimensionMismatchError(
                f"form of dim {self.dim} applied to point of dim {len(coords)}"
            )
        return sum(c * x for c, x in zip(self.coeffs, coords))

    def holds(self, value) -> bool:
        if self.relation == "<=":
            return value <= self.rhs
        if self.relation == ">=":
            return value >= self.rhs
        return value == self.rhs

    def relaxed(self, relation: str) -> "LinearForm":
        return LinearForm(self.coeffs, relation, self.rhs)

    def render(self) -> str:
        return " ".join(str(c) for c in self.coeffs) + f" {self.relation} {self.rhs}"

    def describe(self, layout: CoordLayout) -> str:
        """Human-readable rendering using the layout's coordinate labels."""
        terms = []
        for label, c in zip(layout.labels, self.coeffs):
            if c:
                sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
                terms.append(f"{sign}{label}" if abs(c) == 1 else f"{sign}{abs(c)}*{label}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {self.relation} {self.rhs}"

    @classmethod
    def parse(cls, line: str) -> "LinearForm":
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError(f"bad linear form line: {line!r}")
        relation = tokens[-2]
        if relation not in RELATIONS:
            raise ParseError(f"bad relation token {relation!r} in {line!r}")
        try:
            coeffs = tuple(int(t) for t in tokens[:-2])
            rhs = int(tokens[-1])
        except ValueError:
            raise ParseError(f"bad integer in form line: {line!r}") from None
        return cls(coeffs, relation, rhs)


@dataclass(frozen=True)
class AffineMapQ:
    """Integer linear map between coordinate spaces: one ``LinearForm`` per
    target coordinate, whose coefficients are that coordinate's row.

    ``apply`` evaluates the rows on arbitrary exact coordinates;
    ``apply_word`` maps packed 0/1 words to packed 0/1 words.
    """

    rows: tuple[LinearForm, ...]

    def __post_init__(self):
        if len({row.dim for row in self.rows}) > 1:
            raise DimensionMismatchError("rows of unequal length")

    @classmethod
    def linear(cls, rows: Sequence[Sequence[int]]) -> "AffineMapQ":
        return cls(tuple(LinearForm(tuple(row), "=", 0) for row in rows))

    @property
    def source_dim(self) -> int:
        return self.rows[0].dim if self.rows else 0

    # perfbench/tracing.py wraps this method through the class __dict__
    def apply(self, coords: Sequence) -> tuple:
        return tuple(row.evaluate_coords(coords) for row in self.rows)

    def apply_word(self, word: int) -> int | None:
        """Packed image of the packed 0/1 source point ``word``, or None when
        some image coordinate is not 0 or 1.  The image reads only ``word``'s
        bits under the rows' support masks, and each row is summed inline
        from its (mask, coefficient) pairs."""
        if not 0 <= word < 1 << self.source_dim:
            raise InvalidVertexError(
                f"packed word {word} out of range for source dimension {self.source_dim}"
            )
        image = 0
        for row in self.rows:
            value = 0
            for mask, c in row._nz:
                if word & mask:
                    value += c
            if value != 0 and value != 1:
                return None
            image = image << 1 | value
        return image
