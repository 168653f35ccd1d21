"""Independent re-implementations used only by the tests.

Each function here deliberately takes a different computational path from
the library code it checks: actual Laurent-polynomial long division
instead of branch-on-pairing string sums, subword enumeration instead of
the lifting property and the R_w recurrence, a closed-form product
instead of operator recursion.  The tests pass only when both paths agree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from operator import mul
from typing import Sequence

from bsdh.characters import Character, euler_char
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


def root_coords_rational(rs: RootSystem, w) -> tuple | None:
    """Solve C c = w over the rationals by Gauss-Jordan elimination with
    row swaps; the simple-root coordinates c, or None if not integral."""
    n = rs.rank
    aug = [[Fraction(x) for x in rs.cartan[i]] + [Fraction(w[i])]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    coords = [row[n] for row in aug]
    if any(c.denominator != 1 for c in coords):
        return None
    return tuple(int(c) for c in coords)


# -- Weyl group elements as action matrices --------------------------------
#
# The library represents an element w by the vector w(rho).  These oracles
# use the integer matrix of w on fundamental-weight coordinates instead,
# built from products of simple-reflection matrices.  A library element is
# turned into its matrix only through its defining vector: the oracle's own
# group closure is searched for the M with M(rho) = w(rho).


def reflection_matrices(rs: RootSystem) -> tuple:
    """S_i with (S_i lam)_k = lam_k - cartan[k][i] lam_i, i.e.
    lam - <lam, alpha_i^vee> alpha_i."""
    n = rs.rank
    mats = []
    for i in range(n):
        rows = []
        for k in range(n):
            row = [int(k == j) for j in range(n)]
            row[i] -= rs.cartan[k][i]
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return tuple(mats)


def matmul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_apply(m: tuple, lam) -> tuple:
    return tuple(sum(row[j] * lam[j] for j in range(len(row))) for row in m)


def mat_identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matrix_of_word(rs: RootSystem, word: Sequence[int]) -> tuple:
    """S_{i_1} ... S_{i_r}."""
    refl = reflection_matrices(rs)
    m = mat_identity(rs.rank)
    for i in word:
        m = matmul(m, refl[i])
    return m


def group_words(rs: RootSystem) -> dict:
    """{matrix: a word for it} over all of W, by closure under right
    multiplication by reflection matrices, breadth first (so each word is
    reduced)."""
    refl = reflection_matrices(rs)
    words = {mat_identity(rs.rank): ()}
    frontier = list(words)
    while frontier:
        grown = []
        for m in frontier:
            for i, s in enumerate(refl):
                nxt = matmul(m, s)
                if nxt not in words:
                    words[nxt] = words[m] + (i,)
                    grown.append(nxt)
        frontier = grown
    return words


def matrix_of(rs: RootSystem, w: weyl.WeylElement) -> tuple:
    """The action matrix of a library element, found by its vector w(rho)."""
    x = tuple(w.x)
    return next(m for m in group_words(rs) if mat_apply(m, rs.rho) == x)


def is_negative_root(rs: RootSystem, w) -> bool:
    """Is the weight w minus a positive root?"""
    return tuple(-c for c in w) in {beta.weight for beta in rs.positive_roots}


def mat_inversions(rs: RootSystem, m: tuple) -> set:
    """R+(w) = {beta in R+ : M beta in R-}."""
    return {beta for beta in rs.positive_roots
            if is_negative_root(rs, mat_apply(m, beta.weight))}


def mat_right_descents(rs: RootSystem, m: tuple) -> list:
    return [i for i in range(rs.rank)
            if is_negative_root(rs, mat_apply(m, rs.simple_roots[i]))]


def mat_canonical_word(rs: RootSystem, m: tuple) -> tuple:
    """Strip the smallest right descent until the identity, then reverse."""
    refl = reflection_matrices(rs)
    rev = []
    while True:
        ds = mat_right_descents(rs, m)
        if not ds:
            return tuple(reversed(rev))
        rev.append(ds[0])
        m = matmul(m, refl[ds[0]])


def mat_unreduced_prefix(rs: RootSystem, word: Sequence[int]):
    """The shortest prefix u s_i with u(alpha_i) negative, i.e. shorter
    than u."""
    refl = reflection_matrices(rs)
    m = mat_identity(rs.rank)
    for k, i in enumerate(word):
        if is_negative_root(rs, mat_apply(m, rs.simple_roots[i])):
            return tuple(word[: k + 1])
        m = matmul(m, refl[i])
    return None


def subword_products(rs: RootSystem, word: Sequence[int]) -> set:
    """The matrices of all 2^r subwords of the word; for a reduced word
    these are exactly the elements below it in Bruhat order."""
    refl = reflection_matrices(rs)
    products = {mat_identity(rs.rank)}
    for i in word:
        products |= {matmul(m, refl[i]) for m in products}
    return products


def root_subset_R_w_by_interval(rs: RootSystem, word: Sequence[int]) -> set:
    """R_w by its definition: the positive roots beta with
    <v(rho), beta^vee> > 0 for every v <= w, the interval taken as the
    subword products of the word.  The pairing's sign is that of
    sum_j c_j d_j v(rho)_j for beta = sum_j c_j alpha_j, where d_j are the
    half-norms of the simple roots."""
    tops = {mat_apply(m, rs.rho) for m in subword_products(rs, word)}
    return {beta for beta in rs.positive_roots
            if all(sum(c * d * y for c, d, y in
                       zip(beta.root_coords, rs._norms, top)) > 0
                   for top in tops)}


def count_reduced_words(rs: RootSystem, w: weyl.WeylElement) -> int:
    """Descent recursion c(e) = 1, c(w) = sum over right descents of c(ws_i)."""
    refl = reflection_matrices(rs)

    @lru_cache(maxsize=None)
    def rec(m: tuple) -> int:
        descents = mat_right_descents(rs, m)
        if not descents:
            return 1
        return sum(rec(matmul(m, refl[i])) for i in descents)

    return rec(matrix_of(rs, w))


def levels_by_tuples(rs: RootSystem, x: tuple, seed, edge):
    """weyl._levels on plain tuple vectors: each level {y: state}, with
    the descent test a coordinate read and s_i(y) a tuple comprehension,
    where the library packs each y into one int."""
    roots, rho = rs.simple_roots, rs.rho
    level = {x: seed}
    yield level
    while rho not in level:
        grown: dict = {}
        for y, state in level.items():
            for i, c in enumerate(y):
                if c < 0:
                    z = tuple([a - c * b for a, b in zip(y, roots[i])])
                    grown[z] = edge(grown.get(z), i, state)
        level = grown
        yield level


def standard_tableaux(shape: Sequence[int]) -> int:
    """Standard Young tableaux of a partition (rows, weakly decreasing),
    by the hook-length formula: |shape|! over the product of the hooks."""
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            below = sum(1 for other in shape[r + 1:] if other > c)
            hooks *= row - c + below
    return factorial(sum(shape)) // hooks


def w0_word_count_by_tableaux(rs: RootSystem) -> int:
    """Reduced words of w_0 as standard tableaux (Stanley 1984, On the
    number of reduced decompositions of elements of Coxeter groups; Haiman
    1992 for B/C): the staircase (n, ..., 1) for A_n, the n x n square for
    B_n and C_n."""
    n, family = rs.rank, rs.cartan_type.family
    if family == "A":
        return standard_tableaux(range(n, 0, -1))
    if family in "BC":
        return standard_tableaux([n] * n)
    raise ValueError(f"no tableau count for {rs.cartan_type}")


def reduced_words_by_filter(rs: RootSystem, w: weyl.WeylElement) -> list:
    """Every word of length l(w) whose matrix product is w.  Words of that
    length are produced in lexicographic order, so the list is too.  Each
    product is its prefix's product times one reflection matrix."""
    refl = reflection_matrices(rs)
    target = matrix_of(rs, w)

    @lru_cache(maxsize=None)
    def product_of(word: tuple) -> tuple:
        if not word:
            return mat_identity(rs.rank)
        return matmul(product_of(word[:-1]), refl[word[-1]])

    length = len(mat_inversions(rs, target))
    return [word for word in product(range(rs.rank), repeat=length)
            if product_of(word) == target]


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
    target = matrix_of(rs, v)
    r = len(mat_inversions(rs, target))
    return any(matrix_of_word(rs, [word[p] for p in positions]) == target
               for positions in combinations(range(len(word)), r))


def per_step(rs: RootSystem, word: Sequence[int]) -> list:
    """The tangent sum one P^1-level at a time: entry j is the Euler
    characteristic of the line bundle of alpha_{i_{j+1}} along the prefix
    (i_1 ... i_{j+1}), with no Horner sharing between levels; the tangent
    sum is their total."""
    return [euler_char(rs, word[: j + 1], rs.simple_roots[word[j]])
            for j in range(len(word))]


def schubert_tangent_char_by_roots(rs: RootSystem,
                                   w: weyl.WeylElement) -> Character:
    """The Schubert tangent sum one positive root at a time: the Euler
    character of each e^beta along the lexicographically first reduced
    word of w, summed over beta in R+."""
    word = next(weyl.reduced_words(rs, w))
    total = Character.zero()
    for beta in rs.positive_roots:
        total = total + euler_char(rs, word, beta.weight)
    return total


def j_set_by_definition(rs: RootSystem, word: Sequence[int]) -> tuple:
    """J of a word by its definition, in O(l^2) pairings and with no
    suffix recurrence: the letters at the positions l whose letter pairs
    to zero with every earlier letter."""
    return tuple(sorted({b for l, b in enumerate(word)
                         if all(rs.cartan[a][b] == 0 for a in word[:l])}))


def w0_classes_by_enumeration(rs: RootSystem) -> dict:
    """{J: number of reduced words of w_0 with that J}, by listing every
    word."""
    w0 = weyl.longest_element(rs)
    return dict(Counter(j_set_by_definition(rs, word)
                        for word in weyl.reduced_words(rs, w0, cap=None)))


def completion_classes_by_enumeration(rs: RootSystem) -> dict:
    """{prefix: Counter of J(c)} over every prefix of every reduced word of
    w_0, the completions c of a prefix being the rests of the w_0 words
    that start with it, listed and cut, and J(c) taken by its
    definition."""
    classes: dict = {}
    for word in weyl.reduced_words(rs, weyl.longest_element(rs), cap=None):
        for r in range(len(word) + 1):
            classes.setdefault(word[:r], Counter())[
                j_set_by_definition(rs, word[r:])] += 1
    return classes


def independent_sets(rs: RootSystem) -> set:
    """The nonempty sets of pairwise orthogonal simple roots (the independent
    sets of the Dynkin diagram), as sorted index tuples."""
    n = rs.rank
    return {J for r in range(1, n + 1) for J in combinations(range(n), r)
            if all(rs.cartan[a][b] == 0 for a, b in combinations(J, 2))}
