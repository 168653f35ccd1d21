"""
Weyl group machinery on top of a root system.

Elements are represented by their integer matrix acting on the weight
lattice in fundamental-weight coordinates.  That gives a canonical,
word-independent identity (equality and hashing are by matrix), used for
comparisons, Bruhat intervals and every action on a weight.

Words are tuples of 0-based simple-root indices; the product convention is
``from_word((i_1, ..., i_r)) = s_{i_1} s_{i_2} ... s_{i_r}`` acting on
weights with s_{i_r} applied first.  Externally words serialize as
comma-separated 1-based indices ("1,2,1,3,2,1"); see :func:`format_word`
and :func:`parse_word`.

Reduced words are counted and streamed on the single vector x = w(rho)
rather than on matrices: because rho is regular, x fixes w, the left
descents of w are the i with x[i] < 0, and s_i w has vector s_i(x), an
O(rank) update.  The words of w are i followed by a word of s_i w, over
the left descents i in ascending order, so a depth-first walk emits them
in lexicographic order with no sorting and memory bounded by the elements
it has visited.  Because word counts explode in high rank (the F4 longest
element already has over two million reduced words), enumeration is
guarded by an exact pre-count with a configurable cap; exceeding the cap
requires an explicit opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from .roots import Root, RootSystem, Weight

__all__ = [
    "WeylElement",
    "WordCapExceeded",
    "from_word",
    "identity",
    "simple_reflection",
    "apply_word",
    "length",
    "inversions",
    "is_reduced",
    "unreduced_prefix",
    "longest_element",
    "reduced_words",
    "count_words",
    "canonical_word",
    "completions_to_w0",
    "bruhat_leq",
    "lower_interval",
    "alpha0_criterion",
    "all_elements",
    "weyl_order",
    "parse_word",
    "format_word",
]

DEFAULT_WORD_CAP = 1_000_000


class WordCapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured word cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"element has {count} reduced words, exceeding the cap of {cap}; "
            "pass allow_large=True (CLI: --allow-large) to enumerate anyway"
        )
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as its action matrix on the weight lattice."""

    matrix: tuple  # n rows, each a tuple of n ints

    def apply(self, lam) -> Weight:
        return Weight(sum(row[j] * lam[j] for j in range(len(row)))
                      for row in self.matrix)

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        n = len(a)
        return WeylElement(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)))

    def is_identity(self) -> bool:
        return all(v == (1 if i == j else 0)
                   for i, row in enumerate(self.matrix)
                   for j, v in enumerate(row))

    def __repr__(self) -> str:
        return f"WeylElement{self.matrix!r}"


# -- construction ------------------------------------------------------


def identity(rs: RootSystem) -> WeylElement:
    n = rs.rank
    return WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def _reflection_matrices(rs: RootSystem) -> tuple:
    cached = rs._caches.get("refl")
    if cached is None:
        n = rs.rank
        mats = []
        for i in range(n):
            rows = []
            for k in range(n):
                row = [int(k == j) for j in range(n)]
                row[i] -= rs.cartan[k][i]
                rows.append(tuple(row))
            mats.append(WeylElement(tuple(rows)))
        cached = rs._caches["refl"] = tuple(mats)
    return cached


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _reflection_matrices(rs)[i]


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product s_{i_1} ... s_{i_r}; the empty word gives the identity."""
    refl = _reflection_matrices(rs)
    w = identity(rs)
    for i in word:
        if not 0 <= i < rs.rank:
            raise IndexError(f"letter {i} out of range for {rs.cartan_type}")
        w = w @ refl[i]
    return w


def apply_word(rs: RootSystem, word: Sequence[int], lam) -> Weight:
    """Apply s_{i_1}...s_{i_r} to a weight without building the matrix."""
    lam = Weight(lam)
    for i in reversed(word):
        c = lam[i]
        col = rs.simple_roots[i]
        lam = Weight(x - c * col[k] for k, x in enumerate(lam))
    return lam


# -- length, descents, inversions -------------------------------------


def inversions(rs: RootSystem, w: WeylElement) -> set:
    """R+(w) = {beta in R+ : w(beta) in R-}."""
    return {beta for beta in rs.positive_roots
            if rs.is_negative_root(w.apply(beta.weight))}


def length(rs: RootSystem, w: WeylElement) -> int:
    return len(inversions(rs, w))


def right_descents(rs: RootSystem, w: WeylElement) -> list:
    """Indices i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
    return [i for i in range(rs.rank)
            if rs.is_negative_root(w.apply(rs.simple_roots[i]))]


def unreduced_prefix(rs: RootSystem, word: Sequence[int]) -> Optional[tuple]:
    """The shortest non-reduced prefix of the word, or None if reduced.

    Walks the word maintaining the running product; the first letter that
    fails to increase length closes the failing prefix.
    """
    refl = _reflection_matrices(rs)
    u = identity(rs)
    for k, i in enumerate(word):
        if not 0 <= i < rs.rank:
            raise IndexError(f"letter {i} out of range for {rs.cartan_type}")
        if rs.is_negative_root(u.apply(rs.simple_roots[i])):
            return tuple(word[: k + 1])
        u = u @ refl[i]
    return None


def is_reduced(rs: RootSystem, word: Sequence[int]) -> bool:
    return unreduced_prefix(rs, word) is None


def longest_element(rs: RootSystem) -> WeylElement:
    """w_0, built by repeated ascent; satisfies w_0(R+) = R-."""
    w0 = rs._caches.get("w0")
    if w0 is None:
        refl = _reflection_matrices(rs)
        w = identity(rs)
        while True:
            asc = next((i for i in range(rs.rank)
                        if not rs.is_negative_root(w.apply(rs.simple_roots[i]))),
                       None)
            if asc is None:
                break
            w = w @ refl[asc]
        w0 = rs._caches["w0"] = w
    return w0


# -- reduced-word enumeration ------------------------------------------


def _descents(rs: RootSystem, x: tuple) -> list:
    """(i, s_i(x)) for each i with x[i] < 0, in ascending i.

    For x = w(rho) these i are the left descents of w, since
    w^{-1}(alpha_i) < 0 iff <w(rho), alpha_i^vee> < 0, and s_i(x) is the
    vector (s_i w)(rho).
    """
    roots = rs.simple_roots
    return [(i, tuple(a - c * b for a, b in zip(x, roots[i])))
            for i, c in enumerate(x) if c < 0]


def _count(rs: RootSystem, x: tuple) -> int:
    """Reduced words of the element with vector x, memoized by vector in
    ``rs._caches["count"]``: c(e) = 1, c(w) = sum of c(s_i w) over the left
    descents i of w.

    The recursion runs on an explicit stack, so a call leaves no reference
    cycle that would keep ``rs`` (and the memo in its caches) alive after
    it returns.
    """
    memo = rs._caches.setdefault("count", {})
    # (vector, its descent vectors once expanded); a vector is summed when
    # it is popped the second time, after everything below it
    stack = [(x, None)]
    while stack:
        y, below = stack.pop()
        if y in memo:
            continue
        if below is None:
            below = [z for _, z in _descents(rs, y)]
            stack.append((y, below))
            stack.extend((z, None) for z in below if z not in memo)
        else:
            memo[y] = sum(memo[z] for z in below) if below else 1
    return memo[x]


def count_words(rs: RootSystem, w: WeylElement) -> int:
    """Number of reduced words of w, by the memoized descent recursion."""
    return _count(rs, tuple(w.apply(rs.rho)))


def _walk(rs: RootSystem, x: tuple) -> Iterator[tuple]:
    """Every reduced word of the element with vector x, lexicographically:
    depth first over left descents in ascending order.  Descent lists are
    kept per call, so each element below is reflected only once."""
    edges: dict = {}
    top = edges[x] = _descents(rs, x)
    if not top:
        yield ()
        return
    word: list = []   # one letter per iterator on the stack but the first
    stack = [iter(top)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if word:
                word.pop()
            continue
        i, y = step
        below = edges.get(y)
        if below is None:
            below = edges[y] = _descents(rs, y)
        if below:
            word.append(i)
            stack.append(iter(below))
        else:
            yield (*word, i)


def reduced_words(rs: RootSystem, w: WeylElement, limit: Optional[int] = None,
                  cap: int = DEFAULT_WORD_CAP,
                  allow_large: bool = False) -> Iterator[tuple]:
    """Stream every reduced word of w exactly once, lexicographically.

    An exact pre-count runs at the first ``next()``; if it exceeds ``cap``
    the stream raises WordCapExceeded unless ``allow_large`` is set.  The
    words are produced lazily, so taking a few of them costs a few walks
    down from w, not the whole list.  ``limit`` (a nonnegative int or None)
    truncates the stream; truncation is visible by comparing against
    count_words, not an error.
    """
    x = tuple(w.apply(rs.rho))
    total = _count(rs, x)
    if total > cap and not allow_large:
        raise WordCapExceeded(total, cap)
    yield from islice(_walk(rs, x), limit)


def canonical_word(rs: RootSystem, w: WeylElement) -> tuple:
    """A fixed reduced word for w: smallest right descent, right to left."""
    refl = _reflection_matrices(rs)
    rev = []
    u = w
    while True:
        ds = right_descents(rs, u)
        if not ds:
            break
        i = ds[0]
        rev.append(i)
        u = u @ refl[i]
    return tuple(reversed(rev))


def completions_to_w0(rs: RootSystem, word: Sequence[int],
                      cap: int = DEFAULT_WORD_CAP,
                      allow_large: bool = False) -> Iterator[tuple]:
    """All reduced words of w_0 whose prefix is the given reduced word.

    These are exactly word + t over reduced words t of u^{-1} w_0 (where u
    is the word's element), since lengths are always additive against w_0.
    """
    bad = unreduced_prefix(rs, word)
    if bad is not None:
        raise ValueError(f"word is not reduced; failing prefix {bad}")
    u_inv = from_word(rs, tuple(reversed(tuple(word))))
    rest = u_inv @ longest_element(rs)
    prefix = tuple(word)
    for t in reduced_words(rs, rest, cap=cap, allow_large=allow_large):
        yield prefix + t


# -- Bruhat order ------------------------------------------------------


def lower_interval(rs: RootSystem, w_word: Sequence[int]) -> frozenset:
    """{v : v <= w} via the subword property on one fixed reduced word.

    Dynamic programming over prefixes: extend each collected element by the
    next letter only when that increases length, which enumerates exactly
    the products of reduced subwords.
    """
    bad = unreduced_prefix(rs, w_word)
    if bad is not None:
        raise ValueError(f"word is not reduced; failing prefix {bad}")
    key = ("interval", tuple(w_word))
    got = rs._caches.get(key)
    if got is not None:
        return got
    refl = _reflection_matrices(rs)
    current = {identity(rs)}
    for i in w_word:
        alpha = rs.simple_roots[i]
        grown = set()
        for v in current:
            if not rs.is_negative_root(v.apply(alpha)):
                grown.add(v @ refl[i])
        current |= grown
    result = frozenset(current)
    rs._caches[key] = result
    return result


def bruhat_leq(rs: RootSystem, v: WeylElement, w_word: Sequence[int]) -> bool:
    """v <= w in Bruhat order (subword property along w_word)."""
    return v in lower_interval(rs, w_word)


# -- the highest-root criterion ---------------------------------------


def alpha0_criterion(rs: RootSystem, w: WeylElement) -> bool:
    """True iff w^{-1}(alpha_0) is a negative root; equivalently some
    positive root is sent to -alpha_0 by w."""
    target = tuple(-c for c in rs.highest_root.weight)
    return any(tuple(w.apply(beta.weight)) == target for beta in rs.positive_roots)


# -- whole-group enumeration (small ranks) -----------------------------

_ORDER = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2 ** n * _factorial(n),
    "C": lambda n: 2 ** n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def weyl_order(rs: RootSystem) -> int:
    return _ORDER[rs.cartan_type.family](rs.rank)


def all_elements(rs: RootSystem) -> list:
    """Every element of W, sorted by (length, matrix) for determinism.

    Breadth-first closure under right multiplication; only sensible at
    small rank (the list has weyl_order(rs) entries).
    """
    got = rs._caches.get("elements")
    if got is not None:
        return got
    refl = _reflection_matrices(rs)
    seen = {identity(rs)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in refl:
                nxt = w @ s
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    ordered = sorted(seen, key=lambda w: (length(rs, w), w.matrix))
    if len(ordered) != weyl_order(rs):
        raise AssertionError("group closure does not match the classical order")
    rs._caches["elements"] = ordered
    return ordered


# -- serialization ------------------------------------------------------


def parse_word(text: str, rank: int) -> tuple:
    """Parse "1,2,1" (1-based) into internal 0-based letters."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not piece.isdigit():
            raise ValueError(f"bad letter {piece!r} at position {pos + 1}")
        k = int(piece)
        if not 1 <= k <= rank:
            raise ValueError(
                f"letter {k} at position {pos + 1} out of range 1..{rank}")
        letters.append(k - 1)
    return tuple(letters)


def format_word(word: Sequence[int]) -> str:
    """Internal 0-based letters -> external "1,2,1" form."""
    return ",".join(str(i + 1) for i in word)
