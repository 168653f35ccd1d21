"""
The formal character ring of the weight lattice, and Demazure operators.

A character is a finitely supported integer-coefficient function on the
weight lattice.  All cohomology-flavoured outputs of this package (Euler
characteristics, section characters, kernels) live in this ring;
coefficients are plain Python integers, so nothing ever overflows.

Storage: a character is a dict {packed weight: nonzero coefficient}, with
weights packed into ints by ``roots.pack_weight``: a leading 1, then one
32-bit field holding x_k + 2^31 per coordinate, x_1 most significant.  The
leading 1 gives the rank back, so a character needs no RootSystem, and
integer order of the keys is lexicographic order of the weights, so every
sorted output is the same as with tuple keys.  In a Demazure step, adding
alpha_i to a weight is one int add of alpha_i's packed delta (each field
moves by one coordinate of alpha_i), and <lambda, alpha_i^vee> is one
shift, one mask and one subtract.  ``Character.terms`` is the tuple-keyed
view.

Why no field overflows: the constructors take weights of rank at most 64
whose coordinates lie strictly inside (-2^24, 2^24) (``COORD_BOUND``), and
raise ValueError otherwise.  The ring has no product, so every weight a
computation reaches is such an input or the output of a Demazure step,
and the string sum through lambda runs from lambda towards s_i(lambda):
for the steps of one root system, every output lies in the convex hull of
the W-orbit of the inputs.  A coordinate of w(mu) is <mu, w^{-1}(alpha_i^vee)>,
a coroot pairing, so it is at most the height of the highest coroot (at
most 2r - 1 in the classical types, 29 in the exceptional ones) times
max |mu_j| < 2^24.  For r <= 64 that is below 127 * 2^24 < 2^31, inside
the field.

The Demazure operator D_i acts term by term through the three-branch
string sum, with n = <lambda, alpha_i^vee>:

    n >= 0:   e^lambda + e^{lambda - alpha_i} + ... + e^{lambda - n alpha_i}
    n == -1:  0
    n <= -2:  -(e^{lambda + alpha_i} + ... + e^{lambda + (-n-1) alpha_i})

which is the exact expansion of (e^lambda - e^{s_i(lambda) - alpha_i}) /
(1 - e^{-alpha_i}).  The string-sum form is the implementation of record;
the rational-function division only appears as an independent oracle in
the test suite.

Iterating D over a word right-to-left computes the Euler characteristic
of a line bundle on the corresponding Schubert/Bott-Samelson datum; at the
longest element with a dominant weight this is the full Weyl character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .roots import (PACK_BIAS, PACK_MASK, RootSystem, pack_weight,
                    unpack_weight)
from . import weyl

__all__ = [
    "Character",
    "demazure_step",
    "euler_char",
    "demazure_character",
    "reference_chars",
    "ReferenceChars",
    "COORD_BOUND",
]

COORD_BOUND = 1 << 24    # constructor coordinates lie strictly inside +-this


def _pack(w) -> int:
    key = pack_weight(w)
    if w and not -COORD_BOUND < min(w) <= max(w) < COORD_BOUND:
        raise ValueError(f"weight {tuple(w)} has a coordinate outside "
                         f"(-{COORD_BOUND}, {COORD_BOUND})")
    return key


def _character(packed: dict) -> "Character":
    res = Character.__new__(Character)
    res._d = packed
    return res


class Character:
    """A finitely supported Weight -> int map with exact arithmetic.

    Immutable by convention: operators return new instances, and the
    underlying dict never stores a zero coefficient.  Weights are kept
    packed (see the module docstring); ``terms`` is the tuple-keyed view.
    """

    __slots__ = ("_d",)

    def __init__(self, terms: Mapping[Tuple[int, ...], int] | None = None):
        self._d = {_pack(w): c for w, c in terms.items() if c} if terms else {}

    @classmethod
    def monomial(cls, w, coeff: int = 1) -> "Character":
        return cls({tuple(w): coeff})

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @property
    def terms(self) -> Dict[tuple, int]:
        """{weight tuple: coefficient}, built on each read."""
        return {unpack_weight(k): c for k, c in self._d.items()}

    def coeff(self, w) -> int:
        try:
            key = pack_weight(w)
        except ValueError:       # no stored weight lies outside the fields
            return 0
        return self._d.get(key, 0)

    def support(self):
        return {unpack_weight(k) for k in self._d}

    def dim(self) -> int:
        """Sum of coefficients: the (virtual) dimension."""
        return sum(self._d.values())

    def is_zero(self) -> bool:
        return not self._d

    def sorted_items(self):
        """(weight, coeff) pairs, weights in lexicographic order."""
        return [(unpack_weight(k), c) for k, c in sorted(self._d.items())]

    def __add__(self, other: "Character") -> "Character":
        out = dict(self._d)
        for w, c in other._d.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return _character(out)

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self._d)
        for w, c in other._d.items():
            v = out.get(w, 0) - c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return _character(out)

    def __neg__(self) -> "Character":
        return _character({w: -c for w, c in self._d.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def leq(self, other: "Character") -> bool:
        """Coefficientwise <=, over the union of supports."""
        a, b = self._d, other._d
        return all(a.get(w, 0) <= b.get(w, 0) for w in a.keys() | b.keys())

    def nonnegative(self) -> bool:
        return all(c > 0 for c in self._d.values())

    def to_json(self) -> list:
        return [{"weight": list(w), "coeff": c} for w, c in self.sorted_items()]

    def __repr__(self) -> str:
        if not self._d:
            return "Character(0)"
        bits = [f"{c}*e{list(w)}" for w, c in self.sorted_items()]
        return "Character(" + " + ".join(bits) + ")"


def demazure_step(rs: RootSystem, i: int, chi: Character) -> Character:
    """Apply the Demazure operator for the i-th simple root to a character."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple-root index {i} out of range for {rs.cartan_type}")
    shift, delta = rs.packed_alphas[i]
    out: Dict[int, int] = {}
    get = out.get
    for lam, c in chi._d.items():
        n = (lam >> shift & PACK_MASK) - PACK_BIAS
        if n >= 0:
            w = lam
            for _ in range(n + 1):
                v = get(w, 0) + c
                if v:
                    out[w] = v
                else:
                    del out[w]
                w -= delta
        elif n <= -2:
            w = lam
            for _ in range(-n - 1):
                w += delta
                v = get(w, 0) - c
                if v:
                    out[w] = v
                else:
                    del out[w]
        # n == -1 contributes nothing
    return _character(out)


def euler_char(rs: RootSystem, word: Sequence[int], lam) -> Character:
    """Iterated Demazure operator D_{i_1} ... D_{i_r} e^lambda.

    Operators apply right to left (the innermost is the last letter), so
    the empty word returns e^lambda unchanged.  For a reduced word this is
    the Euler characteristic of the line bundle of lambda; the value is
    then independent of which reduced word of the element is used.
    """
    chi = Character.monomial(tuple(lam))
    for i in reversed(tuple(word)):
        chi = demazure_step(rs, i, chi)
    return chi


def demazure_character(rs: RootSystem, w: "weyl.WeylElement", lam) -> Character:
    """The Demazure character of a *dominant* weight along w.

    Computed as euler_char over a fixed reduced word of w; all coefficients
    are then nonnegative, and at w = w_0 this is the full Weyl character of
    highest weight lambda.
    """
    lam = tuple(lam)
    if any(c < 0 for c in lam):
        raise ValueError(
            f"weight {lam} is not dominant; use euler_char for general weights")
    word = weyl.canonical_word(rs, w)
    return euler_char(rs, word, lam)


@dataclass(frozen=True)
class ReferenceChars:
    """Characters of the standard subalgebras attached to a subset J of
    simple roots.  The Borel here is the *negative* one: char_b is
    n.e^0 plus every e^{-beta}."""

    char_b: Character
    char_g: Character
    char_g_mod_b: Character
    char_p_J: Character
    char_nilrad: Character


def reference_chars(rs: RootSystem, J: Iterable[int] = ()) -> ReferenceChars:
    """Assemble char_b, char_g, char_g/b, char_p_J and the nilradical of p_J.

    R_J+ is the positive-root subsystem generated by {alpha_j : j in J}
    (the roots supported on J); when J is pairwise orthogonal this is just
    the alpha_j themselves.
    """
    J = frozenset(J)
    for j in J:
        if not 0 <= j < rs.rank:
            raise IndexError(f"index {j} out of range for {rs.cartan_type}")
    n = rs.rank
    borel = {(0,) * n: n}
    for beta in rs.positive_roots:
        borel[tuple(-c for c in beta.weight)] = 1
    char_b = Character(borel)

    char_g_mod_b = Character({tuple(beta.weight): 1 for beta in rs.positive_roots})
    char_g = char_b + char_g_mod_b

    in_J = [beta for beta in rs.positive_roots
            if all(j in J or c == 0 for j, c in enumerate(beta.root_coords))]
    char_p_J = char_b + Character({tuple(beta.weight): 1 for beta in in_J})

    nilrad = Character({tuple(-c for c in beta.weight): 1
                        for beta in rs.positive_roots if beta not in in_J})
    return ReferenceChars(char_b, char_g, char_g_mod_b, char_p_J, nilrad)
