"""
Weyl group machinery on top of a root system.

An element w is the single vector x = w(rho) in fundamental-weight
coordinates; rho is regular, so x fixes w, and equality and hashing are by
x.  The rest is read off x by O(rank) reflections, with no matrix product:
the left descents of w are the i with x[i] < 0, s_i w has vector s_i(x),
and stripping the smallest left descent until x = rho gives a reduced word
of w, which is how w acts on other weights.

Words are tuples of 0-based simple-root indices; the product convention is
``from_word((i_1, ..., i_r)) = s_{i_1} s_{i_2} ... s_{i_r}`` acting on
weights with s_{i_r} applied first.  Externally words serialize as
comma-separated 1-based indices ("1,2,1,3,2,1"); see :func:`format_word`
and :func:`parse_word`.

The words of w are i followed by a word of s_i w, over the left descents i
in ascending order, so a depth-first walk on x emits them in lexicographic
order with no sorting and memory bounded by the elements it has visited.
One level sweep, _levels, walks down the left descents one length at a
time, holding two levels: it counts words, lists W and, in autgroup,
buckets the words of w_0 by J.  It keys each vector by its packed int
(``roots.pack_weight``), so a descent test is a field read and a
reflection one int subtraction; the coordinates of w(rho) are coroot
heights, at most 29 up to E8, far inside a 32-bit field.  Because word
counts explode in high rank (the F4 longest element already has over two
million reduced words), enumeration is guarded by a cap that the sweep
checks as it goes, so an element far past the cap is refused in a few
levels; ``cap=None`` lifts it.

Bruhat order is tested by the lifting property with no interval: strip
the letters of a reduced word of w from v where they are descents of v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import factorial
from typing import Iterator, Optional, Sequence

from .roots import (PACK_BIAS, PACK_BITS, PACK_MASK, RootSystem, Weight,
                    unpack_weight)

__all__ = [
    "WeylElement",
    "WordCapExceeded",
    "from_word",
    "identity",
    "simple_reflection",
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
    "alpha0_criterion",
    "all_elements",
    "weyl_order",
    "parse_word",
    "format_word",
]

DEFAULT_WORD_CAP = 1_000_000


class WordCapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured word cap."""

    def __init__(self, cap: int):
        super().__init__(
            f"element has more than {cap} reduced words; "
            "pass cap=None (CLI: --allow-large) to enumerate anyway"
        )
        self.cap = cap


def _reflect(x, i: int, roots) -> tuple:
    """s_i(x) = x - <x, alpha_i^vee> alpha_i, as a plain tuple."""
    c = x[i]
    return tuple(a - c * b for a, b in zip(x, roots[i]))


def _apply(roots, word, lam) -> tuple:
    """s_{i_1} ... s_{i_r}(lam), the last letter applied first."""
    for i in reversed(word):
        lam = _reflect(lam, i, roots)
    return tuple(lam)


def _left_word(x, roots) -> list:
    """A reduced word of the element with vector x: its smallest left
    descent, then the same for s_i(x), until x = rho."""
    word = []
    while True:
        i = next((i for i, c in enumerate(x) if c < 0), None)
        if i is None:
            return word
        word.append(i)
        x = _reflect(x, i, roots)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element w as the vector x = w(rho).

    The simple roots ride along (not compared or hashed) so that the
    element can act on weights without holding its RootSystem.
    """

    x: tuple
    simple_roots: tuple = field(compare=False, repr=False)

    def apply(self, lam) -> Weight:
        roots = self.simple_roots
        return Weight(_apply(roots, _left_word(self.x, roots), lam))

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(tuple(self.apply(other.x)), self.simple_roots)


def _element(rs: RootSystem, x) -> WeylElement:
    return WeylElement(tuple(x), rs.simple_roots)


def _inverse_vector(w: WeylElement) -> tuple:
    """w^{-1}(rho): the reversed word of w applied to rho."""
    roots = w.simple_roots
    return _apply(roots, _left_word(w.x, roots)[::-1], (1,) * len(w.x))


# -- construction ------------------------------------------------------


def identity(rs: RootSystem) -> WeylElement:
    return _element(rs, rs.rho)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _element(rs, _reflect(rs.rho, i, rs.simple_roots))


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product s_{i_1} ... s_{i_r}; the empty word gives the identity."""
    for i in word:
        if not 0 <= i < rs.rank:
            raise IndexError(f"letter {i} out of range for {rs.cartan_type}")
    return _element(rs, _apply(rs.simple_roots, word, rs.rho))


# -- length, descents, inversions -------------------------------------


def inversions(rs: RootSystem, w: WeylElement) -> set:
    """R+(w) = {beta in R+ : w(beta) in R-}, i.e. <w^{-1}(rho), beta^vee> < 0."""
    y = _inverse_vector(w)
    return {beta for beta in rs.positive_roots if rs.coroot_pairing(y, beta) < 0}


def length(rs: RootSystem, w: WeylElement) -> int:
    """l(w) = |R+(w^{-1})|, the positive beta with <w(rho), beta^vee> < 0."""
    return sum(rs.coroot_pairing(w.x, beta) < 0 for beta in rs.positive_roots)


def unreduced_prefix(rs: RootSystem, word: Sequence[int]) -> Optional[tuple]:
    """The shortest non-reduced prefix of the word, or None if reduced.

    Walks the word carrying v = u^{-1}(rho) for the prefix u read so far:
    the next letter i lengthens u iff v[i] > 0, and u s_i has s_i(v).
    """
    roots = rs.simple_roots
    v = rs.rho
    for k, i in enumerate(word):
        if not 0 <= i < rs.rank:
            raise IndexError(f"letter {i} out of range for {rs.cartan_type}")
        if v[i] < 0:
            return tuple(word[: k + 1])
        v = _reflect(v, i, roots)
    return None


def _require_reduced(rs: RootSystem, word: Sequence[int]) -> None:
    bad = unreduced_prefix(rs, word)
    if bad is not None:
        raise ValueError(f"word is not reduced; failing prefix {bad}")


def is_reduced(rs: RootSystem, word: Sequence[int]) -> bool:
    return unreduced_prefix(rs, word) is None


def longest_element(rs: RootSystem) -> WeylElement:
    """w_0, with vector -rho; satisfies w_0(R+) = R-."""
    return _element(rs, (-c for c in rs.rho))


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


def _pack(rs: RootSystem, x) -> int:
    """pack_weight(x), with the fields at the shifts of rs.packed_alphas,
    so that the sweep also runs above PACK_MAX_RANK, where pack_weight
    refuses."""
    key = 1 << PACK_BITS * rs.rank
    for c, (shift, _) in zip(x, rs.packed_alphas):
        key += (c + PACK_BIAS) << shift
    return key


def _levels(rs: RootSystem, x: tuple, seed, edge) -> Iterator[dict]:
    """Each level {pack_weight(y): state} below the element with vector x
    (a tuple), from {pack_weight(x): seed} down the left descents to the
    level that holds rho.  A state crosses the edge y -> s_i(y) as
    ``edge(state at s_i(y) or None, i, state at y)``; keys are in the
    order first reached (level above in order, then ascending i).

    On packed keys y[i] is one field read, and s_i(y) = y - y[i] alpha_i
    is one int subtraction of alpha_i's packed delta.  No field overflows:
    for y = w(rho), y[i] = <rho, (w^{-1} alpha_i)^vee> is plus or minus a
    coroot height, at most 29 up to E8.
    """
    steps = tuple(enumerate(rs.packed_alphas))
    rho = _pack(rs, rs.rho)
    level = {_pack(rs, x): seed}
    yield level
    while rho not in level:
        grown: dict = {}
        get = grown.get
        for y, state in level.items():
            for i, (shift, delta) in steps:
                c = (y >> shift & PACK_MASK) - PACK_BIAS
                if c < 0:
                    z = y - c * delta
                    grown[z] = edge(get(z), i, state)
        level = grown
        yield level


def _count(rs: RootSystem, x: tuple, cap: Optional[int] = None) -> int:
    """Reduced words of the element with vector x, by the level sweep with
    an int per vector y: the number of descent paths from x to y.  The
    level that holds rho is {packed rho: count}.

    Every path crosses each level once and only e has no descent, so a
    level's sum never falls and bounds the count from below.  With ``cap``
    set the sweep stops at the first level whose sum passes it, so the
    result exceeds ``cap`` exactly when the count does.
    """
    for level in _levels(rs, x, 1, lambda acc, i, c: c + (acc or 0)):
        total = sum(level.values())
        if cap is not None and total > cap:
            break
    return total


def count_words(rs: RootSystem, w: WeylElement,
                cap: Optional[int] = None) -> int:
    """Number of reduced words of w, by the level sweep of _count.  With
    ``cap`` set the count saturates: it is exact when at most ``cap``, and
    otherwise only known to exceed it."""
    return _count(rs, w.x, cap)


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
                  cap: Optional[int] = DEFAULT_WORD_CAP) -> Iterator[tuple]:
    """Stream every reduced word of w exactly once, lexicographically.

    Unless ``cap`` is None, the first ``next()`` counts the words up to
    ``cap`` and raises WordCapExceeded if there are more.  The words
    are produced lazily, so taking a few of them costs a few walks down
    from w, not the whole list.  ``limit`` (a nonnegative int or None)
    truncates the stream; truncation is visible by comparing against
    count_words, not an error.
    """
    if cap is not None and _count(rs, w.x, cap) > cap:
        raise WordCapExceeded(cap)
    yield from islice(_walk(rs, w.x), limit)


def canonical_word(rs: RootSystem, w: WeylElement) -> tuple:
    """A fixed reduced word for w: smallest right descent, right to left.

    The right descents of w are the left descents of w^{-1}, so this is the
    smallest-left-descent word of w^{-1}(rho), reversed.
    """
    return tuple(reversed(_left_word(_inverse_vector(w), rs.simple_roots)))


def _rest_to_w0(rs: RootSystem, word: Sequence[int]) -> tuple:
    """The vector of u^{-1} w_0 for the word's element u: -u^{-1}(rho)."""
    return tuple(-c for c in _apply(rs.simple_roots, tuple(word)[::-1], rs.rho))


def completions_to_w0(rs: RootSystem, word: Sequence[int],
                      cap: Optional[int] = DEFAULT_WORD_CAP) -> Iterator[tuple]:
    """All reduced words of w_0 whose prefix is the given reduced word.

    These are exactly word + t over reduced words t of u^{-1} w_0 (where u
    is the word's element), since lengths are always additive against w_0.
    """
    _require_reduced(rs, word)
    rest = _element(rs, _rest_to_w0(rs, word))
    prefix = tuple(word)
    for t in reduced_words(rs, rest, cap=cap):
        yield prefix + t


# -- Bruhat order ------------------------------------------------------


def bruhat_leq(rs: RootSystem, v: WeylElement, w_word: Sequence[int]) -> bool:
    """v <= w in Bruhat order, by the lifting property along w_word.

    Each letter i of a reduced word of w, read left to right, is a left
    descent of what is left of w.  If i is also a left descent of v
    (y[i] < 0 for y = v(rho)), then v <= w iff s_i v <= s_i w; otherwise
    v <= w iff v <= s_i w.  So strip i from v exactly when it is one of
    its descents; once w is used up, v <= e iff y = rho.  O(l(w) rank).
    """
    _require_reduced(rs, w_word)
    roots, y = rs.simple_roots, v.x
    for i in w_word:
        if y[i] < 0:
            y = _reflect(y, i, roots)
    return y == rs.rho


# -- the highest-root criterion ---------------------------------------


def alpha0_criterion(rs: RootSystem, w: WeylElement) -> bool:
    """True iff w^{-1}(alpha_0) is a negative root, read as
    <w(rho), alpha_0^vee> = <rho, w^{-1}(alpha_0)^vee> < 0."""
    return rs.coroot_pairing(w.x, rs.highest_root) < 0


# -- whole-group enumeration (small ranks) -----------------------------

_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2 ** n * factorial(n),
    "C": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def weyl_order(rs: RootSystem) -> int:
    return _ORDER[rs.cartan_type.family](rs.rank)


def all_elements(rs: RootSystem) -> list:
    """Every element of W, by length and then by the reversed canonical
    word, i.e. the lexicographically least reduced word of w^{-1}.

    The level sweep from w_0 down to e reaches u w_0 (vector -u(rho)) at
    the level of length l(u), so its vectors negated list W; only
    sensible at small rank (the list has weyl_order(rs) entries).
    """
    got = rs._caches.get("elements")
    if got is not None:
        return got
    levels = _levels(rs, tuple(-c for c in rs.rho), None, lambda *_: None)
    ordered = [_element(rs, (-c for c in unpack_weight(y)))
               for level in levels for y in level]
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
