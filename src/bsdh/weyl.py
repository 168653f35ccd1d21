"""
Weyl group machinery on top of a root system.

Elements are represented by their integer matrix acting on the weight
lattice in fundamental-weight coordinates.  That gives a canonical,
word-independent identity (equality and hashing are by matrix), which in
turn makes memoized reduced-word enumeration and Bruhat-interval caching
straightforward.

Words are tuples of 0-based simple-root indices; the product convention is
``from_word((i_1, ..., i_r)) = s_{i_1} s_{i_2} ... s_{i_r}`` acting on
weights with s_{i_r} applied first.  Externally words serialize as
comma-separated 1-based indices ("1,2,1,3,2,1"); see :func:`format_word`
and :func:`parse_word`.

Enumeration of reduced words recurses over right descents (the words of w
are the words of w*s_i extended by i, over all descents i), memoized per
element, emitted in lexicographic order.  Because word counts explode in
high rank (the F4 longest element already has over two million reduced
words), enumeration is guarded by an exact pre-count with a configurable
cap; exceeding the cap requires an explicit opt-in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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


def count_words(rs: RootSystem, w: WeylElement) -> int:
    """Number of reduced words of w, by the memoized descent recursion
    c(e) = 1, c(w) = sum over right descents i of c(w s_i).

    The recursion runs on an explicit stack, so a call leaves no reference
    cycle that would keep ``rs`` (and the memo in its caches) alive after
    it returns.
    """
    memo = rs._caches.setdefault("count", {})
    refl = _reflection_matrices(rs)
    # (element, its descent products once expanded); an element is summed
    # when it is popped the second time, after everything below it
    stack = [(w, None)]
    while stack:
        u, below = stack.pop()
        if u.matrix in memo:
            continue
        if below is None:
            below = [u @ refl[i] for i in right_descents(rs, u)]
            stack.append((u, below))
            stack.extend((v, None) for v in below if v.matrix not in memo)
        else:
            memo[u.matrix] = sum(memo[v.matrix] for v in below) if below else 1
    return memo[w.matrix]


def _word_list(rs: RootSystem, w: WeylElement) -> tuple:
    """All reduced words of w, lexicographically sorted (memoized)."""
    memo = rs._caches.setdefault("words", {})
    got = memo.get(w.matrix)
    if got is not None:
        return got
    disk = _disk_cache_load(rs, w)
    if disk is not None:
        memo[w.matrix] = disk
        return disk
    refl = _reflection_matrices(rs)
    ds = right_descents(rs, w)
    if not ds:
        result = ((),)
    else:
        acc = []
        for i in ds:
            for prefix in _word_list(rs, w @ refl[i]):
                acc.append(prefix + (i,))
        acc.sort()
        result = tuple(acc)
    memo[w.matrix] = result
    _disk_cache_store(rs, w, result)
    return result


def reduced_words(rs: RootSystem, w: WeylElement, limit: Optional[int] = None,
                  cap: int = DEFAULT_WORD_CAP,
                  allow_large: bool = False) -> Iterator[tuple]:
    """Stream every reduced word of w exactly once, lexicographically.

    An exact pre-count runs first; if it exceeds ``cap`` the enumeration
    refuses unless ``allow_large`` is set.  ``limit`` truncates the stream
    (truncation is visible by comparing against count_words, not an error).
    """
    total = count_words(rs, w)
    if total > cap and not allow_large:
        raise WordCapExceeded(total, cap)
    words = _word_list(rs, w)
    if limit is None:
        yield from words
    else:
        yield from words[:limit]


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


# -- optional on-disk word cache ---------------------------------------


def _cache_path(rs: RootSystem, w: WeylElement) -> Optional[str]:
    root = os.environ.get("BSDH_CACHE_DIR")
    if not root:
        return None
    digest = hashlib.sha256(repr(w.matrix).encode()).hexdigest()[:24]
    return os.path.join(root, f"words_{rs.cartan_type}_{digest}.json")


def _disk_cache_load(rs: RootSystem, w: WeylElement) -> Optional[tuple]:
    path = _cache_path(rs, w)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("matrix") != [list(r) for r in w.matrix]:
            return None
        return tuple(tuple(i - 1 for i in word) for word in payload["words"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _disk_cache_store(rs: RootSystem, w: WeylElement, words: tuple) -> None:
    path = _cache_path(rs, w)
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "type": str(rs.cartan_type),
            "matrix": [list(r) for r in w.matrix],
            "words": [[i + 1 for i in word] for word in words],
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        pass
