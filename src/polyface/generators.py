"""Vertex-set generators for the four polytope families.

Every generator returns a canonical VertexSet (deduplicated, lexicographically
sorted), so outputs are reproducible byte for byte.  The order and column
budgets are keyword arguments with package-wide defaults.  Every 2^d scan
(bqp, stable, and the two brute-force oracles kept to cross-check the
enumerators) and the backtracking search stop at one cap, ``MAX_VECTORS``.

Graph and four-ones matrix files share one reader: a line ``n <count>`` or
``cols <count>``, then one row of integers per line.  Each class checks its
own rows (an edge is two distinct vertices, a matrix row four distinct
columns), and the reader turns what they reject into a ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul, or_

from .core import CoordLayout, VertexSet, _kind, lop_pair_bits, pairs
from .errors import CapacityError, InvalidParameterError, ParseError
from .faces import three_cycle_forms

#: Largest number of linear orders enumerated by default (8 elements).
DEFAULT_MAX_PERMS = 40320

#: Column budget for the backtracking double-covering enumerator.
DEFAULT_MAX_DCP_COLS = 40

#: Most 0/1 vectors that any enumeration here scans or keeps; the oracles
#: thus take lop(m) up to m = 6 (2^15 candidates) and up to 20 columns.
MAX_VECTORS = 1 << 20


def _all_words(dim: int) -> range:
    """range(2^dim), or a CapacityError when 2^dim exceeds MAX_VECTORS."""
    if dim >= MAX_VECTORS.bit_length():
        raise CapacityError(f"2^{dim} vectors exceed the enumeration cap of {MAX_VECTORS}")
    return range(1 << dim)


def _parse_counted_rows(text: str, keyword: str, build):
    """``build(count, rows)`` for a file of one line ``<keyword> <count>``
    and then one row of integers per line.  Malformed text, and anything
    ``build`` rejects with InvalidParameterError, is a ParseError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != keyword:
        raise ParseError(f"file must start with a line '{keyword} <count>'")
    try:
        count, rows = int(lines[0][1]), [tuple(map(int, ln)) for ln in lines[1:]]
    except ValueError as exc:
        raise ParseError(f"bad integer in a '{keyword}' file: {exc}") from None
    try:
        return build(count, rows)
    except InvalidParameterError as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex set [n], edges as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"graph needs n >= 1, got {self.n}")
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise InvalidParameterError(f"bad edge ({i}, {j}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        normalized = set()
        for edge in edges:
            if len(edge) != 2 or edge[0] == edge[1]:
                raise InvalidParameterError(f"an edge needs two distinct vertices: {edge!r}")
            normalized.add((min(edge), max(edge)))
        return cls(n, frozenset(normalized))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, pairs(n))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def render(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"{i} {j}" for i, j in self.sorted_edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Graph":
        return _parse_counted_rows(text, "n", cls.from_edges)


@dataclass(frozen=True)
class FourOnesMatrix:
    """0/1 matrix given by rows of exactly four distinct column indices (1-based)."""

    n: int
    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"matrix needs >= 1 column, got {self.n}")
        for row in self.rows:
            if len(row) != 4 or len(set(row)) != 4:
                raise InvalidParameterError(
                    f"every row must have exactly four distinct columns, got {row!r}"
                )
            for c in row:
                if not 1 <= c <= self.n:
                    raise InvalidParameterError(
                        f"column {c} out of range [1, {self.n}] in row {row!r}"
                    )

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, n: int, rows) -> "FourOnesMatrix":
        normalized = tuple(tuple(sorted(row)) for row in rows)
        return cls(n, normalized)

    def render(self) -> str:
        lines = [f"cols {self.n}"]
        lines.extend(" ".join(str(c) for c in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "FourOnesMatrix":
        return _parse_counted_rows(text, "cols", cls.from_rows)


def bqp_vertices(n: int) -> VertexSet:
    """All 0/1 vectors whose off-diagonal coordinates multiply the diagonal.

    The 2^n vertices are indexed by their diagonal assignments; coordinate
    (i, j), i < j, is forced to the product of coordinates (i, i) and (j, j).
    The layout's rule for n and the cap are checked before any label is built.
    """
    _kind("bqp", n)
    diagonals = _all_words(n)
    layout = CoordLayout.bqp(n)
    off = pairs(n)
    words = []
    for d in diagonals:
        diag = [(d >> (n - 1 - i)) & 1 for i in range(n)]
        word = d
        for i, j in off:
            word = (word << 1) | (diag[i - 1] & diag[j - 1])
        words.append(word)
    return VertexSet.from_words(layout, words)


def lop_vertices(m: int, max_perms: int = DEFAULT_MAX_PERMS) -> VertexSet:
    """Characteristic vectors of all m! linear orders on [m].

    Built by insertion: the orders of {e, ..., m} are the orders of
    {e+1, ..., m} with e inserted at every position, for e = m down to 1.
    As in ``perm_to_lop_vertex``, e precedes every element after it, so the
    new bits are ``lop_pair_bits(m)[e][j]`` over that suffix: one OR of a
    running suffix mask per inserted word.  The insertions run depth first,
    so only the sequences on the current path are alive; the last level
    keeps words only.

    >>> [v.to_string() for v in lop_vertices(3)]
    ['000', '001', '011', '100', '110', '111']
    """
    # m! is multiplied out only until it passes the budget
    if any(count > max_perms for count in accumulate(range(1, m + 1), mul)):
        raise CapacityError(
            f"the {m}! linear orders on [{m}] exceed the budget of {max_perms}; "
            "raise max_perms to allow it"
        )
    layout = CoordLayout.lop(m)
    words: list[int] = []
    _insert_below((), 0, m, lop_pair_bits(m), words)
    return VertexSet.from_words(layout, words)


def _insert_below(
    seq: tuple[int, ...], word: int, e: int, pair_bits: list[list[int]], words: list[int]
) -> None:
    """Append to ``words`` every order that extends ``seq``, an order of
    {e+1, ..., m} with packed word ``word``, by inserting e, e-1, ..., 1;
    ``pair_bits`` is ``lop_pair_bits(m)``."""
    # suffix masks for inserting e at positions len(seq), ..., 0
    suffixes = accumulate(map(pair_bits[e].__getitem__, reversed(seq)), or_, initial=0)
    if e == 1:
        words.extend(map(word.__or__, suffixes))
        return
    for p, suffix in zip(range(len(seq), -1, -1), suffixes):
        _insert_below(seq[:p] + (e,) + seq[p:], word | suffix, e - 1, pair_bits, words)


def lop_vertices_oracle(m: int) -> VertexSet:
    """Brute-force route to the same set: filter {0,1}^C(m,2) by the
    three-cycle inequalities 0 <= y_ij + y_jk - y_ik <= 1.

    Kept independent of the insertion enumerator on purpose; the two routes
    are compared in tests.  The layout's rule for m and the cap are checked
    before any label is built.
    """
    candidates = _all_words(_kind("lop", m).dim(m))
    layout = CoordLayout.lop(m)
    forms = three_cycle_forms(m)
    words = [w for w in candidates if all(f.holds(f.evaluate_word(w)) for f in forms)]
    return VertexSet.from_words(layout, words)


def stable_vertices(g: Graph) -> VertexSet:
    """All 0/1 vectors with at most one endpoint of every edge set to 1."""
    n = g.n
    edge_masks = [
        (1 << (n - i)) | (1 << (n - j)) for i, j in g.sorted_edges()
    ]
    words = []
    for w in _all_words(n):
        for mask in edge_masks:
            if w & mask == mask:
                break
        else:
            words.append(w)
    return VertexSet.from_words(CoordLayout.stable(n), words)


def dcp_vertices(
    b: FourOnesMatrix,
    max_cols: int = DEFAULT_MAX_DCP_COLS,
    layout: CoordLayout | None = None,
) -> VertexSet:
    """All 0/1 vectors whose sum over every row's four columns is exactly 2.

    A partial assignment is two packed words, ``one`` and ``zero``: the
    columns fixed to 1 and the columns fixed to 0 (column c is bit n - c).
    Fixing columns revisits only the rows that touch them: a row holding two
    ones forces its free columns to 0, a row holding two zeros forces them to
    1, and three of either kills the branch.  The search branches on the
    lowest-numbered free column, 0 before 1, and hands new words down, so
    nothing is undone.  An empty result is a valid answer.

    >>> [v.to_string() for v in dcp_vertices(FourOnesMatrix.from_rows(4, [(1, 2, 3, 4)]))]
    ['0011', '0101', '0110', '1001', '1010', '1100']
    """
    n = b.n
    if n > max_cols:
        raise CapacityError(f"{n} columns exceed the backtracking cap of {max_cols}")
    if layout is None:
        layout = CoordLayout.dcp(n)
    elif layout.dim != n:
        raise InvalidParameterError(
            f"layout of dimension {layout.dim} for a {n}-column matrix"
        )
    # rows_at[n - c + 1]: masks of the rows holding column c, whose bit has that length
    rows_at: list[list[int]] = [[] for _ in range(n + 1)]
    for row in b.rows:
        mask = sum(1 << (n - c) for c in row)
        for c in row:
            rows_at[n - c + 1].append(mask)

    def settle(one: int, zero: int, new: int) -> tuple[int, int] | None:
        """Propagate from the newly fixed columns ``new``; None if a row breaks."""
        while new:
            low = new & -new
            new ^= low
            for mask in rows_at[low.bit_length()]:
                ones = (one & mask).bit_count()
                zeros = (zero & mask).bit_count()
                if ones > 2 or zeros > 2:
                    return None
                free = mask & ~(one | zero)
                if ones == 2:
                    zero |= free
                    new |= free
                elif zeros == 2:
                    one |= free
                    new |= free
        return one, zero

    full = (1 << n) - 1
    words: list[int] = []
    stack = [(0, 0)]
    while stack:
        one, zero = stack.pop()
        free = full & ~(one | zero)
        if not free:
            words.append(one)
            if len(words) > MAX_VECTORS:
                raise CapacityError(f"{n} columns give over {MAX_VECTORS} vertices, the cap")
            continue
        col = 1 << (free.bit_length() - 1)
        # the 1 branch is pushed first so that the 0 branch is searched first
        for branch in (settle(one | col, zero, col), settle(one, zero | col, col)):
            if branch is not None:
                stack.append(branch)
    return VertexSet.from_words(layout, words)


def dcp_vertices_naive(b: FourOnesMatrix) -> VertexSet:
    """Cross-check route: filter all 2^n vectors by the row sums directly."""
    n = b.n
    row_masks = [sum(1 << (n - c) for c in row) for row in b.rows]
    words = [w for w in _all_words(n) if all((w & mask).bit_count() == 2 for mask in row_masks)]
    return VertexSet.from_words(CoordLayout.dcp(n), words)
