"""Vertex-set generators for the four polytope families.

Every generator returns a canonical VertexSet (deduplicated, lexicographically
sorted), so outputs are reproducible byte for byte.  Enumeration budgets are
plain keyword arguments with package-wide defaults.  The two brute-force
oracles, kept to cross-check the enumerators, have fixed caps instead: the
module constants ``DEFAULT_ORACLE_MAX_M`` and ``DEFAULT_MAX_NAIVE_DCP_COLS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import factorial
from operator import or_

from .core import CoordLayout, VertexSet, pair_index, pairs
from .errors import CapacityError, InvalidParameterError, ParseError
from .faces import three_cycle_forms

#: Largest number of linear orders enumerated by default (8 elements).
DEFAULT_MAX_PERMS = 40320

#: Largest ground-set size accepted by the brute-force linear-order oracle
#: (2^C(6,2) = 32768 candidate vectors).
DEFAULT_ORACLE_MAX_M = 6

#: Column budget for the backtracking double-covering enumerator.
DEFAULT_MAX_DCP_COLS = 40

#: Column budget for the naive double-covering cross-check (2^n filtering).
DEFAULT_MAX_NAIVE_DCP_COLS = 20


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
        for a, b in edges:
            if a == b:
                raise InvalidParameterError(f"loop edge ({a}, {b}) not allowed")
            normalized.add((min(a, b), max(a, b)))
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
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n "):
            raise ParseError("graph file must start with a line 'n <count>'")
        try:
            n = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad graph header: {lines[0]!r}") from None
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"bad edge line: {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(f"bad edge line: {ln!r}") from None
        try:
            return cls.from_edges(n, edges)
        except InvalidParameterError as exc:
            raise ParseError(str(exc)) from exc


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
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("cols "):
            raise ParseError("matrix file must start with a line 'cols <n>'")
        try:
            n = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad matrix header: {lines[0]!r}") from None
        rows = []
        for ln in lines[1:]:
            try:
                rows.append(tuple(int(t) for t in ln.split()))
            except ValueError:
                raise ParseError(f"bad row line: {ln!r}") from None
        try:
            return cls.from_rows(n, rows)
        except InvalidParameterError as exc:
            raise ParseError(str(exc)) from exc


def bqp_vertices(n: int) -> VertexSet:
    """All 0/1 vectors whose off-diagonal coordinates multiply the diagonal.

    The 2^n vertices are indexed by their diagonal assignments; coordinate
    (i, j), i < j, is forced to the product of coordinates (i, i) and (j, j).
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    layout = CoordLayout.bqp(n)
    off = pairs(n)
    words = []
    for d in range(1 << n):
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
    Element e then precedes exactly the elements after it, so the new bits
    are the pair bits (e, j) of that suffix: one OR of a running suffix mask
    per inserted word.  The insertions run depth first, so only the
    sequences on the current path are alive; the last level keeps words
    only.

    >>> [v.to_string() for v in lop_vertices(3)]
    ['000', '001', '011', '100', '110', '111']
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    if factorial(m) > max_perms:
        raise CapacityError(
            f"enumerating {m}! = {factorial(m)} linear orders exceeds the budget "
            f"of {max_perms}; raise max_perms to allow it"
        )
    layout = CoordLayout.lop(m)
    dim = layout.dim
    # pair_bits[e][j] marks coordinate (e, j) for e < j; 0 elsewhere.
    pair_bits = [
        [1 << (dim - 1 - pair_index(e, j, m)) if 0 < e < j else 0 for j in range(m + 1)]
        for e in range(m + 1)
    ]
    words: list[int] = []
    _insert_below((), 0, m, pair_bits, words)
    return VertexSet.from_words(layout, words)


def _insert_below(
    seq: tuple[int, ...], word: int, e: int, pair_bits: list[list[int]], words: list[int]
) -> None:
    """Append to ``words`` every order that extends ``seq``, an order of
    {e+1, ..., m} with packed word ``word``, by inserting e, e-1, ..., 1."""
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
    are compared in tests.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    if m > DEFAULT_ORACLE_MAX_M:
        raise CapacityError(
            f"oracle over 2^C({m},2) candidates exceeds the cap m <= {DEFAULT_ORACLE_MAX_M}"
        )
    layout = CoordLayout.lop(m)
    forms = three_cycle_forms(m)
    words = [
        w for w in range(1 << layout.dim) if all(f.holds(f.evaluate_word(w)) for f in forms)
    ]
    return VertexSet.from_words(layout, words)


def stable_vertices(g: Graph) -> VertexSet:
    """All 0/1 vectors with at most one endpoint of every edge set to 1."""
    n = g.n
    layout = CoordLayout.stable(n)
    edge_masks = [
        (1 << (n - i)) | (1 << (n - j)) for i, j in g.sorted_edges()
    ]
    words = []
    for w in range(1 << n):
        for mask in edge_masks:
            if w & mask == mask:
                break
        else:
            words.append(w)
    return VertexSet.from_words(layout, words)


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
    if n > DEFAULT_MAX_NAIVE_DCP_COLS:
        raise CapacityError(
            f"{n} columns exceed the naive filter cap of {DEFAULT_MAX_NAIVE_DCP_COLS}"
        )
    row_masks = [
        sum(1 << (n - c) for c in row) for row in b.rows
    ]
    words = [
        w
        for w in range(1 << n)
        if all((w & mask).bit_count() == 2 for mask in row_masks)
    ]
    return VertexSet.from_words(CoordLayout.dcp(n), words)
