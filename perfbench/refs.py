"""Reference answers computed without polyface.

Nothing here imports the package under test.  Host vertex sets are rebuilt
from their definitions, faces are cut with a plain loop over packed words,
and geometry verdicts come from facts of the paper or from a second,
combinatorial predicate.  All of it runs in the benchmark's parent process,
after the worker has exited, so none of it is inside a timed region.

Packed words follow polyface's documented convention: coordinate ``c``
(0-based) of a ``dim``-dimensional 0/1 vector sits at bit ``dim - 1 - c``,
and vertex sets are sorted by word.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "report_digests.json"


def pair_coord(i: int, j: int, m: int) -> int:
    """0-based coordinate of the pair (i, j), 1 <= i < j <= m, in lop(m)."""
    return (i - 1) * (2 * m - i) // 2 + (j - i - 1)


def lop_words(m: int) -> list[int]:
    """Characteristic words of the m! linear orders on [m], sorted."""
    dim = m * (m - 1) // 2
    pair_bits = [
        (i, j, 1 << (dim - 1 - pair_coord(i, j, m)))
        for i, j in itertools.combinations(range(1, m + 1), 2)
    ]
    words = []
    for order in itertools.permutations(range(1, m + 1)):
        rank = {e: r for r, e in enumerate(order)}
        words.append(sum(bit for i, j, bit in pair_bits if rank[i] < rank[j]))
    return sorted(words)


def bqp_words(n: int) -> list[int]:
    """Words of the boolean quadric polytope: x(i,i) first, then x(i)x(j)."""
    words = []
    for d in range(1 << n):
        x = [(d >> (n - 1 - i)) & 1 for i in range(n)]
        word = d
        for i, j in itertools.combinations(range(n), 2):
            word = (word << 1) | (x[i] & x[j])
        words.append(word)
    return sorted(words)


def dcp_embedding_words(m: int) -> list[int]:
    """Vertices of the double-covering system that hosts lop(m) as a face.

    Columns are y(i,j), yb(i,j), z, h, t(i,j,k).  A pair row forces
    {z, h} = {0, 1} and yb = 1 - y (z = h would need y = yb = 1 or 0, which
    no triple row allows), and a triple row forces t = 1 - y_ij - y_jk + y_ik,
    which is 0/1 exactly when y is a linear order.  So the host is lop(m)
    twice, once per choice of (z, h).
    """
    npairs = m * (m - 1) // 2
    full = (1 << npairs) - 1
    triples = list(itertools.combinations(range(1, m + 1), 3))

    def y(word: int, i: int, j: int) -> int:
        return (word >> (npairs - 1 - pair_coord(i, j, m))) & 1

    words = []
    for w in lop_words(m):
        slack = 0
        for i, j, k in triples:
            slack = (slack << 1) | (1 - y(w, i, j) - y(w, j, k) + y(w, i, k))
        for z, h in ((0, 1), (1, 0)):
            head = (((w << npairs) | (full ^ w)) << 2) | (z << 1) | h
            words.append((head << len(triples)) | slack)
    return sorted(words)


HOST_BUILDERS = {
    "lop4": lambda: lop_words(4),
    "lop5": lambda: lop_words(5),
    "lop8": lambda: lop_words(8),
    "bqp4": lambda: bqp_words(4),
    "bqp5": lambda: bqp_words(5),
    "dcp6": lambda: dcp_embedding_words(6),
}

HOST_DIMS = {"lop4": 6, "lop5": 10, "lop8": 28, "bqp4": 10, "bqp5": 15, "dcp6": 52}


def words_digest(words) -> int:
    """Order-sensitive digest of a word sequence; the worker uses the same."""
    return hash(tuple(words))


class Host:
    """A reference vertex set with cached per-form classifications."""

    def __init__(self, name: str):
        self.name = name
        self.dim = HOST_DIMS[name]
        self.words = HOST_BUILDERS[name]()
        self.digest = words_digest(self.words)
        self._classes: dict = {}

    def classify(self, terms, rhs: int) -> tuple[int, int, int]:
        """Bitmasks over vertex rank (rank 0 = most significant bit) of the
        vertices where the form is below, at and above ``rhs``."""
        key = (tuple(map(tuple, terms)), rhs)
        if key not in self._classes:
            pos = neg = 0
            for coord, coeff in terms:
                bit = 1 << (self.dim - 1 - coord)
                if coeff == 1:
                    pos |= bit
                elif coeff == -1:
                    neg |= bit
                else:
                    raise ValueError("reference forms use 0/+1/-1 coefficients")
            values = [(w & pos).bit_count() - (w & neg).bit_count() for w in self.words]
            self._classes[key] = tuple(
                int("".join("1" if test(v) else "0" for v in values), 2)
                for test in (lambda v: v < rhs, lambda v: v == rhs, lambda v: v > rhs)
            )
        return self._classes[key]

    def first(self, mask: int) -> int | None:
        """Lowest vertex rank in ``mask``, or None."""
        return len(self.words) - mask.bit_length() if mask else None

    def select(self, mask: int) -> list[int]:
        bits = format(mask, f"0{len(self.words)}b")
        return [w for w, b in zip(self.words, bits) if b == "1"]

    def check_inequality(self, terms, relation: str, rhs: int):
        """polyface's ``is_valid_inequality`` contract: (valid, attained,
        first violating word in sorted order)."""
        below, at, above = self.classify(terms, rhs)
        bad = above if relation == "<=" else below
        witness = self.first(bad)
        if witness is None:
            return True, at != 0, None
        attained = at >> (len(self.words) - witness) != 0
        return False, attained, self.words[witness]

    def extract(self, equalities):
        """polyface's ``extract_face`` contract: ("face", size, digest,
        directions, attained) or ("reject", equality index, witness word)."""
        directions, attained = [], []
        face = (1 << len(self.words)) - 1
        for index, (terms, rhs) in enumerate(equalities):
            below, at, above = self.classify(terms, rhs)
            if not above:
                directions.append("<=")
            elif not below:
                directions.append(">=")
            else:
                return ("reject", index, self.words[self.first(below)])
            attained.append(at != 0)
            face &= at
        words = self.select(face)
        return ("face", len(words), words_digest(words), directions, attained)


def two_point_adjacent(words, u: int, v: int) -> bool:
    """Adjacency by a second predicate: u and v are not adjacent iff two
    other vertices w, x have w + x = u + v.

    Such a pair puts the midpoint of u and v inside the hull of the rest, so
    the answer "not adjacent" is always right.  The converse is not true of
    every 0/1 polytope; this predicate agrees with polyface's LP on all 276
    pairs of lop(4) and all 7140 pairs of lop(5), which are the only hosts it
    is used on.
    """
    common, diff = u & v, u ^ v
    others = {w for w in words if w not in (u, v) and w & ~diff == common}
    return not any((common | (diff & ~w)) in others for w in others)


def dot(coeffs, word: int, dim: int) -> int:
    return sum(c for k, c in enumerate(coeffs) if (word >> (dim - 1 - k)) & 1)


def face_certificate_ok(coeffs, beta: int, subset, words, dim: int) -> bool:
    """Re-check an integer face certificate: equality on the subset and a
    unit gap on every other vertex."""
    chosen = set(subset)
    for w in words:
        value = dot(coeffs, w, dim)
        if (value != beta) if w in chosen else (value > beta - 1):
            return False
    return True


def stable_count(n: int, edges) -> int:
    """Number of stable sets of a graph on [n], by brute force."""
    return sum(
        1
        for s in range(1 << n)
        if not any((s >> (i - 1)) & 1 and (s >> (j - 1)) & 1 for i, j in edges)
    )


def lemma1_face_size(lop8: list[int], edges) -> int:
    """Orders on [8] with y(i, 4+j) = y(j, 4+i) = 0 for every edge {i, j}."""
    mask = 0
    for i, j in edges:
        for a, b in ((i, 4 + j), (j, 4 + i)):
            mask |= 1 << (27 - pair_coord(a, b, 8))
    return sum(1 for w in lop8 if not w & mask)


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
