"""
Classification of the connected automorphism group of Z(w, i), plus the
named verification suites.

The classification statement being surfaced: Aut^0(Z(w_0, i)) is the
parabolic subgroup attached to J(w_0, i) in every type; for general w it
contains the parabolic of J(w, i) precisely when w^{-1}(alpha_0) < 0; and
in simply-laced types that containment is an isomorphism exactly under
the same criterion.  The status taxonomy keeps the three strengths of
claim separate instead of over-reporting:

* ExactParabolic   — Aut^0 is the parabolic of J (longest element in any
                     type, or simply laced with the criterion true);
* ContainsParabolic — the parabolic embeds, nothing stronger is claimed
                     (criterion true outside the simply-laced case);
* EulerOnly        — the criterion fails; only Euler-characteristic data
                     is attached.

The semistability field mirrors the criterion (the torus-semistable locus
of the opposite Schubert variety for the highest-root line bundle is
nonempty iff the criterion holds); it is wired to the same predicate by
construction and recorded separately only so reports surface both
phrasings.

classify_all_w0 counts the reduced words of w_0 in each J-set class in
one sweep over the group, one length at a time, without listing a single
word, so F4 (over two million words), E6 (about 1.3e15) and E7 (about
1.2e30) are in reach; the cost grows with the group order, not the word
count.  The cap guardrail still bounds the word count unless it is None,
and refuses as soon as a level of the sweep passes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random

from .roots import RootSystem
from .characters import Character, demazure_step, euler_char
from .tangent import (BsdhWord, KernelReport, TangentReport,
                      _bits, _orth_masks, _reference_chars,
                      adjoint_containment, h1_w0_char, kernel_char,
                      tangent_euler_char, tangent_h0_char)
from . import weyl

__all__ = [
    "AutReport",
    "W0Classes",
    "VerifyReport",
    "classify",
    "classify_all_w0",
    "verify",
    "SUITES",
]

STATUS_EXACT = "ExactParabolic"
STATUS_CONTAINS = "ContainsParabolic"
STATUS_EULER = "EulerOnly"


@dataclass
class AutReport:
    """Classification verdict plus the character data backing it."""

    rs: RootSystem
    word: tuple
    status: str
    J: tuple
    parabolic_dim: int
    criterion: bool
    semistable_equiv: bool
    rank_bound: int
    tangent: TangentReport
    completions_checked: int = 0

    def to_json(self) -> dict:
        return {
            "type": str(self.rs.cartan_type),
            "word": weyl.format_word(self.word),
            "status": self.status,
            "J": [j + 1 for j in self.J],
            "parabolic_dim": self.parabolic_dim,
            "criterion": self.criterion,
            "semistable_equiv": self.semistable_equiv,
            "rank_bound": self.rank_bound,
            "completions_checked": self.completions_checked,
            "tangent": self.tangent.to_json(),
        }


def classify(b: BsdhWord, cap: int = weyl.DEFAULT_WORD_CAP) -> AutReport:
    """Classify Aut^0(Z(w, i)) from the word's combinatorics.

    In the simply-laced criterion-true case the identity
    J(w, i) = J(w_0, j) holds for every completion j of i to a word of
    the longest element; it is cross-checked here whenever the completion
    count fits under the cap (exhaustive at desk scale and skipped, not
    subsampled, beyond).
    """
    rs = b.rs
    crit = b._criterion
    simply = rs.cartan_type.simply_laced()
    tangent = tangent_h0_char(b) if simply else tangent_euler_char(b)

    checked = 0
    if b._is_w0:
        status = STATUS_EXACT
    elif simply and crit:
        status = STATUS_EXACT
        # completions are the reduced words of u^{-1} w_0
        if weyl._count(rs, weyl._rest_to_w0(rs, b.word), cap) <= cap:
            for j_word in weyl.completions_to_w0(rs, b.word, cap=None):
                checked += 1
                full = BsdhWord(rs, j_word)
                if full.J != b.J:
                    raise AssertionError(
                        f"completion {weyl.format_word(j_word)} has "
                        f"J={full.J}, expected {b.J}")
    elif crit:
        status = STATUS_CONTAINS
    else:
        status = STATUS_EULER

    n, N = rs.rank, len(rs.positive_roots)
    return AutReport(
        rs=rs, word=b.word, status=status, J=b.J,
        parabolic_dim=n + N + len(b.J),
        criterion=crit, semistable_equiv=crit,
        rank_bound=tangent.zero_mult,
        tangent=tangent, completions_checked=checked)


# -- bucketing all longest-element words by J-set ----------------------


@dataclass
class W0Classes:
    rs: RootSystem
    total_words: int
    buckets: dict  # J tuple (0-based) -> count

    def to_json(self) -> dict:
        classes = [{"J": [j + 1 for j in J], "count": c}
                   for J, c in sorted(self.buckets.items())]
        return {"type": str(self.rs.cartan_type),
                "total_words": self.total_words,
                "classes": classes}


def _bucket_edge(rs: RootSystem):
    """The edge of classify_all_w0's sweep: the J-table of v, extended by
    the left ascent i to s_i v, is added into s_i v's table."""
    orth = _orth_masks(rs)

    def edge(target, i, by_J):
        bit, keep = 1 << i, orth[i]
        target = {} if target is None else target
        for J, c in by_J.items():
            J_next = bit | J & keep
            target[J_next] = target.get(J_next, 0) + c
        return target

    return edge


def classify_all_w0(rs: RootSystem,
                    cap: int | None = weyl.DEFAULT_WORD_CAP) -> W0Classes:
    """Count the reduced words of w_0 in each J-set class, listing none.

    J composes over suffixes: J(i.t) = {i} ∪ {j in J(t) orthogonal to i}
    (see the tangent module).  One sweep extends each suffix element v by
    its left ascents, one length at a time, from e up to w_0, carrying
    how many reduced words of v have each J; only two levels are held.
    At w_0 that state is the table, and its sum is the word count.

    Each v is keyed by the vector z = -v(rho) of v w_0, so the sweep is
    weyl._levels from -rho down to rho, with no Weyl-element product: the
    left ascents i of v are the left descents of v w_0, and s_i v has
    vector s_i(z).  A level's sum counts the reduced suffixes of that
    length, which never falls, so unless ``cap`` is None the sweep stops
    with WordCapExceeded at the first level whose sum passes ``cap``.
    """
    edge = _bucket_edge(rs)
    # z -> {J mask: reduced words of v with that J}; v = e first
    for level in weyl._levels(rs, tuple(-c for c in rs.rho), {0: 1}, edge):
        if cap is not None and sum(
                c for by_J in level.values() for c in by_J.values()) > cap:
            raise weyl.WordCapExceeded(cap)

    (by_J,) = level.values()   # v = w_0, at z = rho
    buckets = {_bits(J): c for J, c in by_J.items()}
    return W0Classes(rs=rs, total_words=sum(buckets.values()), buckets=buckets)


# -- verification suites ----------------------------------------------


@dataclass
class VerifyReport:
    suite: str
    rs: RootSystem
    cases: int
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self, timing: bool = True) -> dict:
        return {"suite": self.suite,
                "type": str(self.rs.cartan_type),
                "cases": self.cases,
                "failures": self.failures,
                "elapsed_ms": self.elapsed_ms if timing else 0}


def _random_character(rs: RootSystem, rng: Random) -> Character:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = terms.get(w, 0) + c
    return Character(terms)


def _braid_order(rs: RootSystem, i: int, j: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}[rs.cartan[i][j] * rs.cartan[j][i]]


def _alternate(rs: RootSystem, first: int, second: int, m: int,
               chi: Character) -> Character:
    seq = [first if k % 2 == 0 else second for k in range(m)]
    for i in reversed(seq):
        chi = demazure_step(rs, i, chi)
    return chi


def _char_pair(expected: Character, got: Character):
    return {"expected": expected.to_json(), "got": got.to_json()}


def _suite_operators(rs, report, *, cases=1000, seed=0):
    rng = Random(seed)
    n = rs.rank
    for case in range(cases):
        chi = _random_character(rs, rng)
        for i in range(n):
            once = demazure_step(rs, i, chi)
            twice = demazure_step(rs, i, once)
            report.cases += 1
            if once != twice:
                report.failures.append(
                    {"check": "idempotence", "case": case, "letter": i + 1,
                     **_char_pair(once, twice)})
        for i in range(n):
            for j in range(i + 1, n):
                m = _braid_order(rs, i, j)
                lhs = _alternate(rs, i, j, m, chi)
                rhs = _alternate(rs, j, i, m, chi)
                report.cases += 1
                if lhs != rhs:
                    report.failures.append(
                        {"check": "braid", "case": case, "order": m,
                         "letters": [i + 1, j + 1], **_char_pair(lhs, rhs)})


def _suite_euler(rs, report, *, weights=50, seed=0, cap=weyl.DEFAULT_WORD_CAP):
    rng = Random(seed)
    for w in weyl.all_elements(rs):
        words = list(weyl.reduced_words(rs, w, cap=cap))
        lams = [tuple(rng.randint(-4, 4) for _ in range(rs.rank))
                for _ in range(weights)]
        if len(words) < 2:
            report.cases += len(lams)
            continue
        for lam in lams:
            report.cases += 1
            base = euler_char(rs, words[0], lam)
            for other in words[1:]:
                got = euler_char(rs, other, lam)
                if got != base:
                    report.failures.append(
                        {"check": "word-independence",
                         "words": [weyl.format_word(words[0]),
                                   weyl.format_word(other)],
                         "weight": list(lam), **_char_pair(base, got)})


def _check_sl_word(rs, word, report):
    b = BsdhWord(rs, word)
    rep = tangent_h0_char(b)
    crit = b._criterion
    p_J = _reference_chars(rs, b.J).char_p_J
    word_s = weyl.format_word(word)

    report.cases += 1
    if (rep.total == p_J) != crit:
        report.failures.append(
            {"check": "parabolic-iff-criterion", "word": word_s,
             "criterion": crit, **_char_pair(p_J, rep.total)})
    if rep.zero_mult != b.d:
        report.failures.append(
            {"check": "zero-mult-is-d", "word": word_s,
             "expected": b.d, "got": rep.zero_mult})
    expected_pos = sorted({tuple(rs.simple_roots[word[l]]) for l in b.j_prime})
    if rep.positive_support != expected_pos or \
            any(rep.total.coeff(w) != 1 for w in expected_pos):
        report.failures.append(
            {"check": "positive-support-is-Jprime", "word": word_s,
             "expected": [list(w) for w in expected_pos],
             "got": [list(w) for w in rep.positive_support]})
    for beta in rs.positive_roots:
        for sgn in (1, -1):
            c = rep.total.coeff(tuple(sgn * x for x in beta.weight))
            if c not in (0, 1):
                report.failures.append(
                    {"check": "root-coeff-in-01", "word": word_s,
                     "weight": [sgn * x for x in beta.weight], "got": c})


def _suite_simply_laced(rs, report, *, w0_only=None, sample=None, seed=0,
                        cap=weyl.DEFAULT_WORD_CAP):
    if not rs.cartan_type.simply_laced():
        raise ValueError(f"suite requires a simply-laced type, got {rs.cartan_type}")
    if w0_only is None:
        w0_only = rs.rank >= 4
    if w0_only:
        elements = [weyl.longest_element(rs)]
    else:
        elements = weyl.all_elements(rs)
    rng = Random(seed)
    for w in elements:
        words = list(weyl.reduced_words(rs, w, cap=cap))
        if sample is not None and len(words) > sample:
            words = rng.sample(words, sample)
        for word in words:
            _check_sl_word(rs, word, report)


def _suite_kernel(rs, report, *, cap=weyl.DEFAULT_WORD_CAP):
    if not rs.cartan_type.simply_laced():
        raise ValueError(f"suite requires a simply-laced type, got {rs.cartan_type}")
    w0 = weyl.longest_element(rs)
    for j_word in weyl.reduced_words(rs, w0, cap=cap):
        for r in range(len(j_word) + 1):
            b = BsdhWord(rs, j_word[:r])
            rep = kernel_char(b, j_word)
            report.cases += 1
            if not rep.equal:
                report.failures.append(
                    {"check": "kernel-predicted-vs-observed",
                     "word": weyl.format_word(b.word),
                     "completion": weyl.format_word(j_word),
                     **_char_pair(rep.predicted, rep.observed)})


def _suite_w0_all_types(rs, report, *, cap=weyl.DEFAULT_WORD_CAP):
    n = rs.rank
    zero = (0,) * n
    simply = rs.cartan_type.simply_laced()
    w0 = weyl.longest_element(rs)
    for word in weyl.reduced_words(rs, w0, cap=cap):
        b = BsdhWord(rs, word)
        chi = tangent_euler_char(b)
        h1 = h1_w0_char(b)
        word_s = weyl.format_word(word)
        report.cases += 1
        if not h1.nonnegative():
            report.failures.append(
                {"check": "h1-nonnegative", "word": word_s,
                 "got": h1.to_json()})
        if h1.coeff(zero) != 0:
            report.failures.append(
                {"check": "h1-zero-weight-free", "word": word_s,
                 "got": h1.coeff(zero)})
        if chi.total.coeff(zero) != n:
            report.failures.append(
                {"check": "euler-zero-mult-is-rank", "word": word_s,
                 "expected": n, "got": chi.total.coeff(zero)})
        if simply and not h1.is_zero():
            report.failures.append(
                {"check": "h1-vanishes-simply-laced", "word": word_s,
                 "got": h1.to_json()})


def _suite_schubert_adjoint(rs, report):
    for w in weyl.all_elements(rs):
        report.cases += 1
        contain = adjoint_containment(rs, w)
        crit = weyl.alpha0_criterion(rs, w)
        if contain != crit:
            report.failures.append(
                {"check": "adjoint-containment-iff-criterion",
                 "word": weyl.format_word(weyl.canonical_word(rs, w)),
                 "containment": contain, "criterion": crit})


SUITES = {
    "operators": _suite_operators,
    "euler": _suite_euler,
    "simply-laced-theorems": _suite_simply_laced,
    "kernel": _suite_kernel,
    "w0-all-types": _suite_w0_all_types,
    "schubert-adjoint": _suite_schubert_adjoint,
}


def verify(suite: str, rs: RootSystem, **options) -> VerifyReport:
    """Run one named invariant battery; see SUITES for the names.

    Returns a report with a deterministic failure list; cases counts the
    instances checked.  Unknown suite names, and options the suite does
    not take, raise ValueError.
    """
    runner = SUITES.get(suite)
    if runner is None:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    takes = runner.__kwdefaults__ or {}
    for name in options:
        if name not in takes:
            raise ValueError(f"suite {suite!r} takes no option {name!r}")
    report = VerifyReport(suite=suite, rs=rs, cases=0)
    start = time.monotonic()
    runner(rs, report, **options)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report
