"""
The formal character ring of the weight lattice, and Demazure operators.

A character is a finitely supported integer-coefficient function on the
weight lattice, stored sparsely as {weight tuple: nonzero coefficient}.
All cohomology-flavoured outputs of this package (Euler characteristics,
section characters, kernels) live in this ring; coefficients are plain
Python integers, so nothing ever overflows.

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
from operator import add, sub
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .roots import RootSystem
from . import weyl

__all__ = [
    "Character",
    "demazure_step",
    "euler_char",
    "demazure_character",
    "reference_chars",
    "ReferenceChars",
]


class Character:
    """A finitely supported Weight -> int map with exact arithmetic.

    Immutable by convention: operators return new instances, and the
    underlying dict never stores a zero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, ...], int] | None = None):
        clean: Dict[tuple, int] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, w, coeff: int = 1) -> "Character":
        return cls({tuple(w): coeff})

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    def coeff(self, w) -> int:
        return self.terms.get(tuple(w), 0)

    def support(self):
        return set(self.terms)

    def dim(self) -> int:
        """Sum of coefficients: the (virtual) dimension."""
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_items(self):
        """(weight, coeff) pairs, weights in lexicographic order."""
        return sorted(self.terms.items())

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        res = Character.__new__(Character)
        res.terms = out
        return res

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, 0) - c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        res = Character.__new__(Character)
        res.terms = out
        return res

    def __neg__(self) -> "Character":
        res = Character.__new__(Character)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def leq(self, other: "Character") -> bool:
        """Coefficientwise <=, over the union of supports."""
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(w, 0) <= other.terms.get(w, 0) for w in keys)

    def nonnegative(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def to_json(self) -> list:
        return [{"weight": list(w), "coeff": c} for w, c in self.sorted_items()]

    def __repr__(self) -> str:
        if not self.terms:
            return "Character(0)"
        bits = [f"{c}*e{list(w)}" for w, c in self.sorted_items()]
        return "Character(" + " + ".join(bits) + ")"


def demazure_step(rs: RootSystem, i: int, chi: Character) -> Character:
    """Apply the Demazure operator for the i-th simple root to a character."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple-root index {i} out of range for {rs.cartan_type}")
    alpha = tuple(rs.simple_roots[i])
    out: Dict[tuple, int] = {}
    get = out.get
    for lam, c in chi.terms.items():
        n = lam[i]
        if n >= 0:
            w = lam
            for _ in range(n + 1):
                v = get(w, 0) + c
                if v:
                    out[w] = v
                else:
                    del out[w]
                w = tuple(map(sub, w, alpha))
        elif n <= -2:
            w = tuple(map(add, lam, alpha))
            for _ in range(-n - 1):
                v = get(w, 0) - c
                if v:
                    out[w] = v
                else:
                    del out[w]
                w = tuple(map(add, w, alpha))
        # n == -1 contributes nothing
    res = Character.__new__(Character)
    res.terms = out
    return res


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
