"""Independent re-implementations used only by the tests.

Each function here deliberately takes a different computational path from
the library code it checks: actual Laurent-polynomial long division
instead of branch-on-pairing string sums, subword enumeration instead of
interval DP, a closed-form product instead of operator recursion.  The
tests pass only when both paths agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

from bsdh.characters import Character
from bsdh.roots import RootSystem, Weight
from bsdh import weyl


def demazure_step_rational(rs: RootSystem, i: int, chi: Character) -> Character:
    """(e^lam - e^{s_i(lam) - alpha_i}) / (1 - e^{-alpha_i}), term by term.

    The division is performed as genuine ascending long division of Laurent
    polynomials in t = e^{-alpha_i}: repeatedly cancel the lowest-degree
    term of the remainder against the constant term of (1 - t).  No
    branching on the sign of the pairing is involved; exactness of the
    division is asserted by the loop reaching a zero remainder.
    """
    alpha = rs.simple_roots[i]
    out: dict = {}
    for lam_t, coeff in chi.terms.items():
        lam = Weight(lam_t)
        n = lam[i]                      # <lam, alpha_i^vee>
        # numerator, as a Laurent polynomial in t: e^{lam - k.alpha_i} = t^k
        remainder = {0: 1}
        remainder[n + 1] = remainder.get(n + 1, 0) - 1
        remainder = {k: c for k, c in remainder.items() if c}
        quotient: dict = {}
        guard = 0
        while remainder:
            guard += 1
            if guard > 10 * (abs(n) + 2):
                raise AssertionError("division does not terminate")
            k = min(remainder)
            c = remainder[k]
            quotient[k] = quotient.get(k, 0) + c
            # subtract c.t^k.(1 - t)
            remainder[k] -= c
            remainder[k + 1] = remainder.get(k + 1, 0) + c
            remainder = {p: q for p, q in remainder.items() if q}
        for k, c in quotient.items():
            w = tuple(lam[j] - k * alpha[j] for j in range(rs.rank))
            out[w] = out.get(w, 0) + coeff * c
    return Character(out)


def count_reduced_words(rs: RootSystem, w: weyl.WeylElement) -> int:
    """Descent recursion c(e) = 1, c(w) = sum over right descents of c(ws_i)."""

    @lru_cache(maxsize=None)
    def rec(u: weyl.WeylElement) -> int:
        descents = weyl.right_descents(rs, u)
        if not descents:
            return 1
        return sum(rec(u @ weyl.simple_reflection(rs, i)) for i in descents)

    return rec(w)


def reduced_words_by_filter(rs: RootSystem, w: weyl.WeylElement) -> list:
    """Every word of length l(w) whose matrix product is w.  Words of that
    length are produced in lexicographic order, so the list is too.  Each
    product is its prefix's product times one reflection matrix."""

    @lru_cache(maxsize=None)
    def from_word(word: tuple) -> weyl.WeylElement:
        if not word:
            return weyl.identity(rs)
        return from_word(word[:-1]) @ weyl.simple_reflection(rs, word[-1])

    return [word for word in product(range(rs.rank), repeat=weyl.length(rs, w))
            if from_word(word) == w]


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """prod over beta > 0 of <lam+rho, beta^vee> / <rho, beta^vee>, exactly.

    <mu, beta^vee> is evaluated as sum_j c_j d_j mu_j / d_beta where
    beta = sum c_j alpha_j, d_j are the half-norms and d_beta is the
    half-norm of beta; the d_beta denominators cancel between numerator
    and denominator of each factor, so plain integers suffice.
    """
    if any(c < 0 for c in lam):
        raise ValueError("weight is not dominant")
    value = Fraction(1)
    for beta in rs.positive_roots:
        num = sum((lam[j] + 1) * rs._norms[j] * beta.root_coords[j]
                  for j in range(rs.rank))
        den = sum(rs._norms[j] * beta.root_coords[j] for j in range(rs.rank))
        value *= Fraction(num, den)
    assert value.denominator == 1
    return int(value)


def bruhat_leq_subword(rs: RootSystem, v: weyl.WeylElement,
                       w_word: Sequence[int]) -> bool:
    """v <= w iff some subword of a reduced word of w multiplies to v."""
    word = tuple(w_word)
    target_len = weyl.length(rs, v)
    for r in range(len(word) + 1):
        if r != target_len:
            continue
        for positions in combinations(range(len(word)), r):
            sub = tuple(word[p] for p in positions)
            if weyl.from_word(rs, sub) == v:
                return True
    return False


def w0_classes_by_enumeration(rs: RootSystem) -> dict:
    """{J: number of reduced words of w_0 with that J}, by listing every
    word.  J' is computed here with its own loop: position l counts when
    its letter pairs to zero with every earlier letter."""
    buckets: dict = {}
    w0 = weyl.longest_element(rs)
    for word in weyl.reduced_words(rs, w0, allow_large=True):
        letters = set()
        for l, b in enumerate(word):
            if all(rs.cartan[a][b] == 0 for a in word[:l]):
                letters.add(b)
        J = tuple(sorted(letters))
        buckets[J] = buckets.get(J, 0) + 1
    return buckets


def independent_sets(rs: RootSystem) -> set:
    """The nonempty sets of pairwise orthogonal simple roots (the independent
    sets of the Dynkin diagram), as sorted index tuples."""
    n = rs.rank
    return {J for r in range(1, n + 1) for J in combinations(range(n), r)
            if all(rs.cartan[a][b] == 0 for a, b in combinations(J, 2))}
