"""Vertex-set generators for the four polytope families.

Every generator returns a canonical VertexSet (deduplicated, lexicographically
sorted), so outputs are reproducible byte for byte.  ``lop_face`` returns the
face that an equality system cuts out of lop(m), found by the insertion
search that ``lop_vertices`` runs, without enumerating lop(m); the private
``_count_orders`` counts the orders that meet given precedences, split by
their patterns on given pairs, without listing them.  The order and column
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
from itertools import accumulate, combinations
from operator import mul, or_

from .core import CoordLayout, VertexSet, _kind, lop_pair_bits, pairs
from .errors import CapacityError, DimensionMismatchError, InvalidParameterError, ParseError
from .faces import FaceExtraction, FaceSystem, _extraction, _not_supporting, cut, three_cycle_forms

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


def _refuse_over(budget: int, factors, what: str) -> None:
    """CapacityError when the product of ``factors`` exceeds ``budget``; it
    is multiplied out only until it passes the budget."""
    if any(product > budget for product in accumulate(factors, mul)):
        raise CapacityError(f"{what} exceed the budget of {budget}; raise max_perms to allow it")


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
    return VertexSet.from_words(layout, [_bqp_word(n, d) for d in diagonals])


def _bqp_word(n: int, diagonal: int) -> int:
    """The bqp(n) word whose diagonal is the packed n-bit ``diagonal``:
    the diagonal, then x(i,i) * x(j,j) for each pair i < j in order."""
    word = diagonal
    for d_i, d_j in combinations([diagonal >> (n - 1 - i) & 1 for i in range(n)], 2):
        word = word << 1 | d_i & d_j
    return word


def lop_vertices(m: int, max_perms: int = DEFAULT_MAX_PERMS) -> VertexSet:
    """Characteristic vectors of all m! linear orders on [m].

    Built by insertion: the orders of {e, ..., m} are the orders of
    {e+1, ..., m} with e inserted at every position, for e = m down to 1.
    As in ``perm_to_lop_vertex``, e precedes every element after it, so the
    new bits are ``lop_pair_bits(m)[e][j]`` over that suffix: one OR of a
    running suffix mask per inserted word.  The insertions run depth first,
    so only the sequences on the current path are alive; the last level
    keeps words only.  ``lop_face`` runs the same search with equalities.

    >>> [v.to_string() for v in lop_vertices(3)]
    ['000', '001', '011', '100', '110', '111']
    """
    words = _lop_search(m, range(1, m + 1), {}, max_perms)
    return VertexSet.from_words(CoordLayout.lop(m), words)


def lop_face(fs: FaceSystem, max_perms: int = DEFAULT_MAX_PERMS) -> FaceExtraction:
    """``extract_face(lop_vertices(m), fs)`` for a system ``fs`` over lop(m),
    enumerating only the face.

    *Support on the elements a form touches.*  Let U be the elements that the
    coordinates y(a, b) of an equality touch.  The form reads only the order
    of U; every order on [m] restricts to one on U, and every order on U
    extends to one on [m].  So the orders of U, in lop(m)'s coordinates, have
    the form's support patterns on lop(m), and ``cut`` on them decides the
    equality as ``extract_face`` does.  They are enumerated under the larger
    of ``max_perms`` and the default budget, so forms on up to 8 elements are
    always checked.  If the form fails both directions, ``faces``' refusal
    names the least extensions (``_least_extension``) of the least orders of
    U that break <= and >=: they are the first words of lop(m) that break
    each.

    *The face search.*  Inserting e into an order of {e+1, ..., m} fixes
    every coordinate y(e, j), so an equality whose smallest element is e is
    decided by its support pattern as soon as e goes in, and a branch that
    breaks one is dropped.  The search raises CapacityError once it has
    emitted more than ``max_perms`` orders, or kept more than m *
    ``max_perms`` partial orders on the way.  The second bound caps its time
    whatever the system, at m insertions per partial order kept: equalities
    that clash only among small elements are checked last, after the
    partial orders of the large ones are built, and none of those need be
    emitted.  It never refuses lop(m) within the budget, which keeps at most
    2 * (m-1)! partial orders, nor the Theorem-1 face, which kept at most
    m/2 per order of the face on every system measured.

    >>> fs = FaceSystem.parse("layout lop 3\\n1 0 0 = 0")
    >>> [v.to_string() for v in lop_face(fs).face]  # 2 before 1
    ['000', '001', '011']
    >>> fs = FaceSystem.parse("layout lop 10\\n1 -1" + " 0" * 43 + " = 0")
    >>> lop_face(fs)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    polyface.errors.NotSupportingError: equality y(1,2) - y(1,3) = 0 is not supporting-derived: ...
    """
    if fs.layout.kind != "lop":
        raise DimensionMismatchError(f"expected a system over lop, got {fs.layout.kind}")
    m = fs.layout.param
    pair_list = pairs(m)
    checks = []
    tests: dict[int, list] = {}
    for form in fs.equalities:
        touched = sorted({x for pair, c in zip(pair_list, form.coeffs) if c for x in pair})
        orders = _lop_search(m, touched, {}, max(max_perms, DEFAULT_MAX_PERMS))
        check, patterns = cut(form, orders)
        if check is None:
            raise _not_supporting(form, fs.layout, orders,
                                  lambda w: _least_extension(m, touched, w))
        checks.append(check)
        # a form that touches nothing is tested at the first insertion
        tests.setdefault(touched[0] if touched else m, []).append((form.support_mask, patterns))
    words = _lop_search(m, range(1, m + 1), tests, max_perms)
    face = VertexSet.from_words(CoordLayout.lop(m), words)
    # lop(m) holds m! >= 1 orders
    return _extraction(face, checks, host_empty=False)


def _least_extension(m: int, elements, word: int) -> int:
    """The least word of lop(m) whose order of ``elements``, the chain, is
    that of ``word``: the chain merged with the other elements in descending
    order, the larger head first.  So it adds to ``word`` just the y(r, c),
    r another element and c > r in the chain, where some chain d < r
    precedes c; an extension putting c before r puts d before r and sets
    the more significant y(d, r).  These bits read only chain pairs (d, c)
    with d < r, so extending keeps the order of words."""
    bits = lop_pair_bits(m)
    return word | sum(bits[r][c] for r in range(1, m + 1) if r not in elements for c in elements
                      if c > r and any(word & bits[d][c] for d in elements if d < r))


def _lop_search(m: int, elements, tests: dict, max_perms: int) -> list[int]:
    """Words, in lop(m)'s coordinates, of the orders on the ascending
    ``elements`` that pass every test ``(mask, patterns)`` in ``tests[e]``,
    ``word & mask in patterns``, checked once e is inserted.  CapacityError
    once more than ``max_perms`` are emitted or m * ``max_perms`` partial
    orders are kept; with no tests all k! orders would be emitted, so
    k! > ``max_perms`` is refused before the search."""
    k = len(elements)
    if not tests:
        _refuse_over(max_perms, range(1, k + 1), f"the {k}! linear orders of {k} elements")
    if not elements:
        return [0]
    pair_bits = lop_pair_bits(m)
    words: list[int] = []
    kept = m * max_perms

    def insert_below(seq: tuple[int, ...], word: int, i: int) -> None:
        """Append to ``words`` every order that extends ``seq``, an order
        of ``elements[i+1:]`` with packed word ``word``, by inserting
        ``elements[i]``, ..., ``elements[0]``."""
        nonlocal kept
        kept -= 1
        if kept < 0:
            raise CapacityError(f"the face search on [{m}] kept over {m} partial orders per "
                                f"order of the budget of {max_perms}; raise max_perms to allow it")
        e = elements[i]
        # the words of e inserted at positions len(seq), ..., 0
        inserted = map(word.__or__, accumulate(
            map(pair_bits[e].__getitem__, reversed(seq)), or_, initial=0))
        here = tests.get(e, ())
        if i == 0:
            for mask, patterns in here:
                inserted = [w for w in inserted if w & mask in patterns]
            words.extend(inserted)
            if len(words) > max_perms:
                raise CapacityError(f"the face search passed the budget of {max_perms} orders; "
                                    "raise max_perms to allow it")
            return
        inserted = zip(range(len(seq), -1, -1), inserted)
        for mask, patterns in here:
            inserted = [(p, w) for p, w in inserted if w & mask in patterns]
        for p, new in inserted:
            insert_below(seq[:p] + (e,) + seq[p:], new, i - 1)

    insert_below((), 0, k - 1)
    return words


def _count_orders(m: int, precedences, splits) -> dict[int, int]:
    """The number of orders on [m] that put a before b for every (a, b) in
    ``precedences``, keyed by the pattern they show on the disjoint pairs
    ``splits``: one bit per split pair (a, b), the first pair most
    significant, that is 1 when a comes before b, so y(a, b) when a < b.  A
    pattern that no order shows is absent, and cyclic precedences give {}.

    The (+, x) subset DP over downsets builds the orders left to right.  A
    state is the set of placed elements with the bits decided so far, one
    int: element e is bit e - 1, and the pattern sits above bit m.  Element
    e may be placed once all the elements that must precede it are, and a
    split pair's bit is decided when the first of its two elements is
    placed.  Each layer maps its states to their numbers of prefixes.  A
    split pair is in one of five states (neither placed, one of the two, or
    both in one of two orders), so when the split pairs cover [m] the
    layers hold at most 5^(m/2) states in all.

    >>> sorted(_count_orders(3, [(3, 1)], [(1, 2)]).items())  # 321 231 | 312
    [(0, 2), (1, 1)]
    >>> _count_orders(3, [(1, 2), (2, 3), (3, 1)], [(1, 2)])
    {}
    """
    before = [0] * (m + 1)  # before[e]: the elements that precede e, as a mask
    for a, b in precedences:
        before[b] |= 1 << (a - 1)
    decides = [(0, 0)] * (m + 1)  # decides[a]: b's bit and the pattern bit a sets before b
    for t, (a, b) in enumerate(splits):
        decides[a] = (1 << (b - 1), 1 << (m + len(splits) - 1 - t))
    moves = [(1 << (e - 1), before[e], *decides[e]) for e in range(1, m + 1)]
    full = (1 << m) - 1
    layer = {0: 1}
    for _ in range(m):
        grown: dict[int, int] = {}
        for state, count in layer.items():
            placed = state & full
            for bit, need, partner, key in moves:
                if not placed & bit and need & placed == need:
                    new = state | bit | (0 if placed & partner else key)
                    grown[new] = grown.get(new, 0) + count
        layer = grown
    return {state >> m: count for state, count in layer.items()}


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
