"""
Bott-Samelson-Demazure-Hansen combinatorics and tangent-bundle characters.

A BSDH variety Z(w, i) is the iterated P^1-bundle built from a reduced
word i = (i_1, ..., i_r) of a Weyl group element w.  At the character
level everything this module computes reduces to sums of iterated
Demazure strings:

* the tangent Euler characteristic is the sum over j of the Euler
  characteristic of the line bundle of alpha_{i_j} along the length-j
  prefix — one summand per P^1-level of the tower, with the base point
  contributing nothing (an empty word gives the zero report, and the
  multiplicity of the zero weight therefore *emerges* as d(w), the number
  of distinct letters, rather than being seeded); the sum is taken by
  Horner's rule, T(i.t) = D_i(e^{alpha_i} + T(t)) with T(()) = 0, one
  Demazure step per letter;

* in simply-laced types higher cohomology of the tangent bundle
  vanishes, so the same sum is the genuine character of
  H^0(Z(w,i), T) and is tagged H0_exact; elsewhere it is tagged
  Euler_only and never presented as a section character;

* at the longest element (any type) the sections are the parabolic
  subalgebra attached to J(w_0, i), which pins down H^1 as a difference
  of characters;

* for Schubert varieties X(w), the restriction of the tangent bundle of
  G/B has section character equal to the Demazure-string sum over all
  positive roots, and contains the adjoint character exactly when
  w^{-1}(alpha_0) < 0.

Few distinct suffix sums T(t) occur, so each root system keeps one
transition table for them (in ``rs._caches``, shared by every word of
that system): the interned suffix sums, numbered from 0 for the zero
character, and the map (letter i, state of T(t)) -> state of T(i.t).  A
word is summed by walking its reversed letters through the table, and a
Demazure step runs only for a transition not yet in it.  The table holds
at most one state per distinct suffix sum met, and one transition per
(letter, state) pair met.  Over all 2,316 reduced words of w_0 in D4 that
is 52 states and 136 transitions; over all 24,024 in B4, 156 states and
364 transitions.  The element vector is not part of the state:
T(i.t) depends on i and T(t) alone, and keying on w(rho) as well would
split each state by every element it occurs at.

The combinatorial sets attached to a word:

* J(w, i), recorded as simple indices, by the suffix recurrence
  J(i.t) = {i} ∪ {j in J(t) : <alpha_j, alpha_i^vee> = 0} with J(()) empty;
  on bit masks, J = 1 << i | J & orth[i] with the per-letter
  orthogonality masks of the root system, taken in the same
  right-to-left walk that checks the word is reduced and builds w(rho).
  Its letters are pairwise orthogonal and pairwise distinct.
* J'(w, i): the first position of each letter of J, which are exactly
  the positions whose letter is orthogonal to every earlier letter
  (position 1 always qualifies).
* supp(w): the set of distinct letters, with d(w) = |supp(w)| — a
  word-independent invariant of the element.
* R_w: positive roots inverted by no v^{-1} with v <= w, that is R+
  minus U, by the suffix recurrence U(i.t) = U(t) ∪ s_i(U(t) minus
  {alpha_i}) ∪ {alpha_i} with U(()) empty; with J_1 (new orthogonal
  letters of a completion) it shapes the kernel of restriction from
  Z(w_0, j) to Z(w, i).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

from .roots import RootSystem, dominance_leq
from .characters import Character, demazure_step, reference_chars
from . import weyl

__all__ = [
    "BsdhWord",
    "TangentReport",
    "KernelReport",
    "tangent_euler_char",
    "tangent_h0_char",
    "h1_w0_char",
    "schubert_tangent_char",
    "adjoint_containment",
    "kernel_char",
    "root_subset_R_w",
]

MODE_H0 = "H0_exact"
MODE_EULER = "Euler_only"


class BsdhWord:
    """A root system with a validated reduced word and its cached data.

    Raises ValueError (naming the shortest failing prefix) if the word is
    not reduced, and IndexError for a letter out of range, exactly as
    ``weyl.unreduced_prefix`` does.  The empty word is allowed and
    describes a point.
    """

    def __init__(self, rs: RootSystem, word: Sequence[int]):
        word = tuple(word)
        roots, n, orth = rs.simple_roots, rs.rank, _orth_masks(rs)
        reflect = weyl._reflect
        # one right-to-left walk over the suffixes t = (i_k ... i_r),
        # carrying x = t(rho) and the masks of J(t) (see the module
        # docstring) and supp(t); i_k lengthens t exactly when x[i_k] > 0,
        # since <v(rho), alpha_i^vee> is positive iff v^{-1}(alpha_i) is a
        # positive root
        x, J, supp, reduced = rs.rho, 0, 0, True
        try:
            for i in reversed(word):
                if not 0 <= i < n or x[i] < 0:
                    reduced = False
                    break
                x = reflect(x, i, roots)
                J = 1 << i | J & orth[i]
                supp |= 1 << i
        except TypeError:        # a letter that is no index
            reduced = False
        if not reduced:
            # rescan left to right for the error of the first bad letter
            bad = weyl.unreduced_prefix(rs, word)
            raise ValueError(
                f"word {weyl.format_word(word)} is not reduced; "
                f"failing prefix {weyl.format_word(bad)}")
        self.rs = rs
        self.word = word
        self.element = weyl._element(rs, x)
        self.J = _bits(J)
        self.supp = _bits(supp)
        self.d = len(self.supp)

    def __repr__(self) -> str:
        return f"BsdhWord({self.rs.cartan_type}, {weyl.format_word(self.word)!r})"

    @cached_property
    def j_prime(self) -> tuple:
        """J'(w, i): the first position (0-based) of each letter of J."""
        return tuple(sorted(map(self.word.index, self.J)))

    @cached_property
    def tangent_sum(self) -> Character:
        """sum over j of D_{i_1} ... D_{i_j}(e^{alpha_{i_j}}), by Horner's rule:
        D_{i_1}(e^{alpha_{i_1}} + D_{i_2}(e^{alpha_{i_2}} + ... D_{i_r}(e^{alpha_{i_r}}))),
        one Demazure step per letter instead of r(r+1)/2.

        The steps are read from the root system's transition table (see
        the module docstring): a Demazure step runs only for a (letter,
        suffix sum) pair no earlier word of this root system has met, and
        past that a word costs one int-keyed dict lookup per letter.  The
        table holds at most one state per distinct suffix sum met (52 for
        all of D4's w_0 words, 156 for all of B4's).  Taken once per word;
        every tangent report and h1_w0_char read it.  Words with the same
        sum share one Character object, which no operation mutates."""
        return _tangent_table(self.rs).walk(self.rs, self.word)


@lru_cache(maxsize=None)
def _bits(mask: int) -> tuple:
    """The indices of the set bits of a mask, in ascending order."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _orth_masks(rs: RootSystem) -> tuple:
    """Per simple root i, the bit mask of the simple roots orthogonal to
    alpha_i (bit k set iff <alpha_k, alpha_i^vee> = 0; bit i never is)."""
    masks = rs._caches.get("orth")
    if masks is None:
        n = rs.rank
        masks = rs._caches["orth"] = tuple(
            sum(1 << k for k in range(n) if rs.cartan[i][k] == 0)
            for i in range(n))
    return masks


def _char_p_J(rs: RootSystem, J: tuple) -> Character:
    """char p_J, built once per root system and J."""
    key = ("p_J", J)
    chi = rs._caches.get(key)
    if chi is None:
        chi = rs._caches[key] = reference_chars(rs, J).char_p_J
    return chi


class _TangentTable:
    """Horner states of one root system: state s is the suffix sum
    ``states[s]`` (state 0 is the zero character of the empty suffix),
    ``ids`` interns each distinct sum to its state, keyed by the Character
    itself (hashed over its packed items, frozenset(chi._d.items())), and
    ``step`` maps s * rank + i to the state of D_i(e^{alpha_i} + states[s]).

    Interning takes a lock, so two threads that meet the same missing
    transition get the same state; the transition itself may then be
    computed twice, with equal results.
    """

    __slots__ = ("states", "ids", "step", "alphas", "lock")

    def __init__(self, rs: RootSystem):
        zero = Character.zero()
        self.states = [zero]
        self.ids = {zero: 0}
        self.step: dict = {}
        self.alphas = [Character.monomial(alpha) for alpha in rs.simple_roots]
        self.lock = threading.Lock()

    def walk(self, rs: RootSystem, word: tuple) -> Character:
        """T(word), from state 0 through the reversed word."""
        n, step = rs.rank, self.step
        s = 0
        for i in reversed(word):
            key = s * n + i
            t = step.get(key)
            if t is None:
                t = step[key] = self._intern(demazure_step(
                    rs, i, self.states[s] + self.alphas[i]))
            s = t
        return self.states[s]

    def _intern(self, chi: Character) -> int:
        with self.lock:
            s = self.ids.get(chi)
            if s is None:
                s = self.ids[chi] = len(self.states)
                self.states.append(chi)
        return s


def _tangent_table(rs: RootSystem) -> _TangentTable:
    table = rs._caches.get("tangent")
    if table is None:
        table = rs._caches.setdefault("tangent", _TangentTable(rs))
    return table


@dataclass
class TangentReport:
    """Character data for the tangent bundle of Z(w, i)."""

    rs: RootSystem
    word: tuple
    mode: str
    total: Character
    J: tuple
    supp: tuple
    d: int

    @property
    def zero_mult(self) -> int:
        return self.total.coeff((0,) * self.rs.rank)

    @property
    def positive_support(self) -> list:
        """Weights in the support strictly above 0 in dominance order."""
        zero = (0,) * self.rs.rank
        return [w for w, _ in self.total.sorted_items()
                if w != zero and dominance_leq(self.rs, zero, w)]

    def dim(self) -> int:
        return self.total.dim()

    def to_json(self) -> dict:
        return {
            "type": str(self.rs.cartan_type),
            "word": weyl.format_word(self.word),
            "mode": self.mode,
            "J": [j + 1 for j in self.J],
            "supp": [j + 1 for j in self.supp],
            "d": self.d,
            "char": self.total.to_json(),
            "zero_mult": self.zero_mult,
            "positive_support": [list(w) for w in self.positive_support],
            "dim": self.dim(),
        }


def tangent_euler_char(b: BsdhWord) -> TangentReport:
    """chi(Z(w,i), T) as a sum of one Demazure string per tower level.

    Valid in every type: Euler characteristics are additive along the
    relative-tangent filtration regardless of vanishing.
    """
    return TangentReport(rs=b.rs, word=b.word, mode=MODE_EULER,
                         total=b.tangent_sum, J=b.J, supp=b.supp, d=b.d)


def tangent_h0_char(b: BsdhWord) -> TangentReport:
    """The genuine character of H^0(Z(w,i), T): simply-laced only.

    Numerically identical to tangent_euler_char; the simply-laced
    hypothesis is what makes the higher cohomology vanish so the Euler sum
    *is* the section character.  Refuses other types.
    """
    if not b.rs.cartan_type.simply_laced():
        raise ValueError(
            f"{b.rs.cartan_type} is not simply laced, so the Euler sum is not "
            "known to equal the section character; use tangent_euler_char")
    return TangentReport(rs=b.rs, word=b.word, mode=MODE_H0,
                         total=b.tangent_sum, J=b.J, supp=b.supp, d=b.d)


def h1_w0_char(b: BsdhWord) -> Character:
    """char H^1(Z(w_0,i), T) = char p_{J(w_0,i)} - chi(Z(w_0,i), T).

    Only available at the longest element, where the section character is
    the parabolic subalgebra of J(w_0, i) in every type.  The result is
    coefficientwise nonnegative, and is the zero character in simply-laced
    types.  Outside them its e^0 multiplicity depends on the word and can
    be nonzero: it is 1 for the B2 word 2,1,2,1, and 2 and 1 for the G2
    words 1,2,1,2,1,2 and 2,1,2,1,2,1.
    """
    if b.element != weyl.longest_element(b.rs):
        raise ValueError("word does not multiply to the longest element; "
                         "H^1 is only determined there")
    return _char_p_J(b.rs, b.J) - b.tangent_sum


def schubert_tangent_char(rs: RootSystem, w: "weyl.WeylElement") -> Character:
    """char H^0(X(w), T_{G/B} restricted): the string sum over all of R+.

    D_w is linear, so that sum is one Demazure chain D_w(char g/b).  Exact
    in every type (higher cohomology of the restricted tangent bundle
    vanishes on Schubert varieties); independent of the reduced word of w.
    """
    chi = reference_chars(rs).char_g_mod_b
    for i in reversed(weyl.canonical_word(rs, w)):
        chi = demazure_step(rs, i, chi)
    return chi


def adjoint_containment(rs: RootSystem, w: "weyl.WeylElement") -> bool:
    """Does the adjoint character embed coefficientwise in the Schubert
    tangent sections?  Equivalent to the highest-root criterion
    w^{-1}(alpha_0) < 0; both sides are computed independently here."""
    g = reference_chars(rs).char_g
    return g.leq(schubert_tangent_char(rs, w))


# -- kernels of restriction --------------------------------------------


def root_subset_R_w(rs: RootSystem, word: Sequence[int]) -> set:
    """R_w = R+ minus U(w), where U(w) is the union of R+(v^{-1}) over v <= w.

    U is built on root weights walking the word from the right, from U(e)
    empty.  Each letter lengthens the suffix (s_i w > w), so by the subword
    property [e, s_i w] = [e, w] ∪ s_i[e, w], and as R+((s_i v)^{-1}) is
    {alpha_i} ∪ s_i R+(v^{-1}) or s_i(R+(v^{-1}) minus {alpha_i}):
    U(s_i w) = U(w) ∪ s_i(U(w) minus {alpha_i}) ∪ {alpha_i}.
    """
    weyl._require_reduced(rs, word)
    roots, U = rs.simple_roots, set()
    for i in reversed(word):
        U |= {weyl._reflect(beta, i, roots) for beta in U if beta != roots[i]}
        U.add(roots[i])
    return {beta for beta in rs.positive_roots if beta.weight not in U}


@dataclass
class KernelReport:
    """Predicted and observed characters of the kernel of restriction
    from sections over Z(w_0, j) to sections over Z(w, i)."""

    rs: RootSystem
    word: tuple
    completion: tuple
    predicted: Character
    observed: Character
    J1: tuple
    R_w: list = field(repr=False)

    @property
    def equal(self) -> bool:
        return self.predicted == self.observed

    def to_json(self) -> dict:
        return {
            "type": str(self.rs.cartan_type),
            "word": weyl.format_word(self.word),
            "completion": weyl.format_word(self.completion),
            "predicted": self.predicted.to_json(),
            "observed": self.observed.to_json(),
            "equal": self.equal,
            "J1": [j + 1 for j in self.J1],
            "dim": self.predicted.dim(),
        }


def kernel_char(b: BsdhWord, completion: Sequence[int]) -> KernelReport:
    """Kernel of the restriction map along a completion j of the word i.

    predicted = (n - d(w)).e^0  +  sum over R_w of e^{-beta}
                                +  sum over J_1 of e^{alpha_j}
    where J_1 collects the letters of J(w_0, j) outside supp(w); observed
    is the difference of the two exact section characters.  Simply-laced
    only (both sides rest on the vanishing there).
    """
    rs = b.rs
    if not rs.cartan_type.simply_laced():
        raise ValueError(f"{rs.cartan_type} is not simply laced; "
                         "kernel characters are only computed there")
    completion = tuple(completion)
    if completion[: len(b.word)] != b.word:
        raise ValueError("completion does not extend the word")
    full = BsdhWord(rs, completion)   # validates reducedness
    if full.element != weyl.longest_element(rs):
        raise ValueError("completion does not multiply to the longest element")

    n = rs.rank
    J1 = tuple(sorted(set(full.J) - set(b.supp)))
    R_w = sorted(root_subset_R_w(rs, b.word),
                 key=lambda r: (r.height, r.root_coords))

    predicted_terms = {(0,) * n: n - b.d}
    for beta in R_w:
        predicted_terms[tuple(-c for c in beta.weight)] = 1
    for j in J1:
        predicted_terms[tuple(rs.simple_roots[j])] = \
            predicted_terms.get(tuple(rs.simple_roots[j]), 0) + 1
    predicted = Character(predicted_terms)

    observed = tangent_h0_char(full).total - tangent_h0_char(b).total
    return KernelReport(rs=rs, word=b.word, completion=completion,
                        predicted=predicted, observed=observed,
                        J1=J1, R_w=R_w)
