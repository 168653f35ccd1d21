import itertools
from random import Random

import pytest

from bsdh.roots import RootSystem, Weight
from bsdh.characters import Character, demazure_step, reference_chars
from bsdh.tangent import (BsdhWord, KernelReport, TangentReport,
                          adjoint_containment, h1_w0_char, kernel_char,
                          root_subset_R_w, schubert_tangent_char,
                          tangent_euler_char, tangent_h0_char)
from bsdh import tangent, weyl

import oracles


def mono(*coords):
    return Character.monomial(tuple(coords))


def euler_char_sum(system, word):
    """The tangent sum by its definition: one Demazure string per level."""
    return sum(oracles.per_step(system, word), Character.zero())


# -- BsdhWord ---------------------------------------------------------------

def test_bsdh_word_requires_reduced(rs):
    a2 = rs("A2")
    with pytest.raises(ValueError) as err:
        BsdhWord(a2, (0, 0))
    assert "prefix" in str(err.value)
    with pytest.raises(ValueError):
        BsdhWord(a2, (0, 1, 0, 1))


def test_bsdh_word_empty(rs):
    b = BsdhWord(rs("A2"), ())
    assert b.J == () and b.supp == () and b.d == 0
    rep = tangent_euler_char(b)
    assert rep.total.is_zero() and oracles.per_step(b.rs, b.word) == []


def test_bsdh_word_sets(rs):
    a3 = rs("A3")
    b = BsdhWord(a3, (0, 1, 0, 2, 1, 0))
    assert b.j_prime == (0,)
    assert b.J == (0,)
    assert b.supp == (0, 1, 2)
    assert b.d == 3


def test_j_first_position_always_in(rs):
    for name in ("A3", "B3", "G2"):
        system = rs(name)
        w0 = weyl.longest_element(system)
        for word in weyl.reduced_words(system, w0):
            b = BsdhWord(system, word)
            assert 0 in b.j_prime
            # letters of J' are pairwise orthogonal and distinct
            letters = [word[l] for l in b.j_prime]
            assert len(set(letters)) == len(letters)
            for x, y in itertools.combinations(letters, 2):
                assert system.cartan[x][y] == 0


def test_j_sets_frozen_examples(rs):
    a3 = rs("A3")
    for word, jp, J in [((0, 1, 0, 2, 1, 0), (0,), (0,)),
                        ((0, 2, 1, 2, 0, 1), (0, 1), (0, 2)),
                        ((1,), (0,), (1,))]:
        b = BsdhWord(a3, word)
        assert (b.j_prime, b.J) == (jp, J)


def test_d_is_word_invariant(rs):
    b3 = rs("B3")
    for w in weyl.all_elements(b3):
        ds = {BsdhWord(b3, word).d for word in weyl.reduced_words(b3, w)}
        assert len(ds) <= 1


def _validate_prefix_first(system, word):
    """The reducedness check as weyl.unreduced_prefix makes it, left to
    right: IndexError at the first letter out of range, ValueError at the
    first prefix that is not reduced, whichever comes first."""
    bad = weyl.unreduced_prefix(system, word)
    if bad is not None:
        raise ValueError(f"word {weyl.format_word(word)} is not reduced; "
                         f"failing prefix {weyl.format_word(bad)}")


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


def test_bsdh_word_errors_match_prefix_first_validation(rs):
    rng = Random(12)
    kinds = set()
    for name in ("A3", "B3", "G2", "D4"):
        system = rs(name)
        n = system.rank
        w0_words = list(weyl.reduced_words(system, weyl.longest_element(system)))
        for trial in range(150):
            word = list(rng.choice(w0_words))[: rng.randrange(1, 2 * n)]
            kind = trial % 3      # unreduced, out of range, or both
            if kind != 1:         # a repeated letter ends a non-reduced prefix
                pos = rng.randrange(len(word))
                word.insert(pos, word[pos])
            if kind != 0:
                word.insert(rng.randrange(len(word) + 1),
                            rng.choice((-1, -n, n, n + 2)))
            word = tuple(word)
            want = _raised(_validate_prefix_first, system, word)
            assert _raised(BsdhWord, system, word) == want, word
            kinds.add(want[0])
        # letters that are no index at all
        for word in ((0, 0, None), (None, 0, 0), (0, 1.5), (1, 0, 1, 0, "x")):
            assert _raised(BsdhWord, system, word) \
                == _raised(_validate_prefix_first, system, word)
    assert kinds == {ValueError, IndexError}


def _horner_suffix_sums(system, word):
    """T(t) for every suffix t of the word, by Horner's rule with no table."""
    sums = [Character.zero()]
    for i in reversed(word):
        sums.append(demazure_step(system, i, sums[-1]
                                  + Character.monomial(system.simple_roots[i])))
    return sums


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_shared_tangent_table_matches_the_per_level_sum(name):
    oracle = RootSystem.of(name)
    words = list(weyl.reduced_words(oracle, weyl.longest_element(oracle)))
    if name in ("A3", "B3", "C3", "G2"):
        words = sorted({w[:r] for w in words for r in range(len(w) + 1)})
    fresh, warm = RootSystem.of(name), RootSystem.of(name)
    # warm one table with another word list: a word of every element
    for w in weyl.all_elements(warm):
        BsdhWord(warm, weyl.canonical_word(warm, w)).tangent_sum
    suffix_sums = set()
    for word in words:
        expected = euler_char_sum(oracle, word)
        jp = tuple(l for l in range(len(word))
                   if all(oracle.cartan[word[k]][word[l]] == 0 for k in range(l)))
        for system in (fresh, warm):
            b = BsdhWord(system, word)
            assert b.tangent_sum == expected, (system, word)
            assert b.element == weyl.from_word(system, word)
            assert b.j_prime == jp
            assert b.J == tuple(sorted(word[l] for l in jp))
            assert b.supp == tuple(sorted(set(word)))
        suffix_sums.update(_horner_suffix_sums(oracle, word))
    # one state per distinct suffix sum met, and no other
    states = tangent._tangent_table(fresh).states
    assert len(set(states)) == len(states)
    assert set(states) == suffix_sums


# -- tangent characters -----------------------------------------------------

def test_tangent_a1_sl2(rs):
    a1 = rs("A1")
    rep = tangent_euler_char(BsdhWord(a1, (0,)))
    assert rep.total == Character({(2,): 1, (0,): 1, (-2,): 1})
    assert rep.dim() == 3


def test_tangent_a2_hirzebruch(rs):
    a2 = rs("A2")
    alpha1, alpha2 = a2.simple_roots
    rep = tangent_euler_char(BsdhWord(a2, (0, 1)))
    expect = (Character.monomial(alpha1) + Character({(0, 0): 2})
              + Character.monomial(-alpha1) + Character.monomial(-alpha2)
              + Character.monomial(-alpha1 - alpha2))
    assert rep.total == expect
    assert rep.dim() == 6


def test_tangent_a2_full_word_is_parabolic(rs):
    a2 = rs("A2")
    rep = tangent_h0_char(BsdhWord(a2, (0, 1, 0)))
    assert rep.total == reference_chars(a2, (0,)).char_p_J
    assert rep.dim() == 6


def test_tangent_modes(rs):
    a2, b2 = rs("A2"), rs("B2")
    assert tangent_h0_char(BsdhWord(a2, (0, 1))).mode == "H0_exact"
    assert tangent_euler_char(BsdhWord(b2, (0, 1))).mode == "Euler_only"
    with pytest.raises(ValueError) as err:
        tangent_h0_char(BsdhWord(b2, (0, 1)))
    assert "tangent_euler_char" in str(err.value)


def test_tangent_h0_equals_euler_value_in_simply_laced(rs):
    a3 = rs("A3")
    for word in [(0,), (0, 1), (0, 1, 0, 2, 1, 0)]:
        b = BsdhWord(a3, word)
        assert tangent_h0_char(b).total == tangent_euler_char(b).total


def test_horner_total_is_the_sum_of_the_per_prefix_strings(rs):
    # total is computed by Horner's rule, per_step one prefix at a time
    for name in ("A3", "B3", "G2"):
        system = rs(name)
        for w in weyl.all_elements(system)[::5]:
            rep = tangent_euler_char(BsdhWord(system, weyl.canonical_word(system, w)))
            levels = oracles.per_step(system, rep.word)
            assert len(levels) == len(rep.word)
            assert sum(levels, Character.zero()) == rep.total


def test_tangent_zero_mult_equals_d_simply_laced(rs):
    a2 = rs("A2")
    for w in weyl.all_elements(a2):
        for word in weyl.reduced_words(a2, w):
            rep = tangent_h0_char(BsdhWord(a2, word))
            assert rep.zero_mult == rep.d


def test_tangent_positive_support_is_J(rs):
    a3 = rs("A3")
    b = BsdhWord(a3, (0, 2, 1, 2, 0, 1))
    rep = tangent_h0_char(b)
    expect = sorted(tuple(a3.simple_roots[j]) for j in b.J)
    assert rep.positive_support == expect
    for w in rep.positive_support:
        assert rep.total.coeff(w) == 1


def test_tangent_report_json_schema(rs):
    rep = tangent_euler_char(BsdhWord(rs("A2"), (0, 1)))
    js = rep.to_json()
    assert set(js) == {"type", "word", "mode", "J", "supp", "d", "char",
                       "zero_mult", "positive_support", "dim"}
    assert js["type"] == "A2" and js["word"] == "1,2"
    assert js["J"] == [1] and js["supp"] == [1, 2] and js["d"] == 2
    assert js["dim"] == 6 and js["zero_mult"] == 2


# -- H^1 at the longest element ---------------------------------------------

def test_h1_requires_longest(rs):
    a2 = rs("A2")
    with pytest.raises(ValueError):
        h1_w0_char(BsdhWord(a2, (0, 1)))


def test_h1_reuses_the_tangent_sum(monkeypatch):
    from bsdh import characters
    steps = []
    real_step = characters.demazure_step

    def counting_step(*args):
        steps.append(args[1])
        return real_step(*args)

    monkeypatch.setattr(characters, "demazure_step", counting_step)
    monkeypatch.setattr(tangent, "demazure_step", counting_step)
    # fresh root systems: a shared one may hold the transitions already
    b2 = RootSystem.of("B2")
    b = BsdhWord(b2, (1, 0, 1, 0))
    chi = tangent_euler_char(b).total
    assert len(steps) == 4
    h1 = h1_w0_char(b)
    assert len(steps) == 4
    assert h1 == reference_chars(b.rs, b.J).char_p_J - chi
    # a suffix of a word already summed costs no step
    suffix = BsdhWord(b2, (0, 1, 0))
    suffix.tangent_sum
    assert len(steps) == 4

    # A second word pays only for transitions the table lacks.  These two
    # share the suffix 2,1,0; past it the second word needs letter 1 on
    # T(2,1,0) (new), letter 0 on T(1,2,1,0) and letter 1 on the result.
    # T(1,2,1,0) = T(1,0,2,1,0), a state of the first word that already
    # has its letter-0 transition, so two steps run, not three.
    a3 = RootSystem.of("A3")
    table = tangent._tangent_table(a3)
    first = BsdhWord(a3, (0, 1, 0, 2, 1, 0))
    first.tangent_sum
    assert len(steps) == 4 + 6 == 4 + len(table.step)
    second = BsdhWord(a3, (1, 0, 1, 2, 1, 0))
    second.tangent_sum
    assert len(steps) == 12 == 4 + len(table.step)
    # both are suffixes of words summed above, so no step runs here
    assert BsdhWord(a3, (1, 2, 1, 0)).tangent_sum \
        is BsdhWord(a3, (1, 0, 2, 1, 0)).tangent_sum
    assert len(steps) == 12

    monkeypatch.undo()
    for w in (suffix, first, second):
        assert w.tangent_sum == euler_char_sum(w.rs, w.word)


def test_h1_vanishes_simply_laced(rs):
    for name in ("A2", "A3"):
        system = rs(name)
        w0 = weyl.longest_element(system)
        for word in weyl.reduced_words(system, w0):
            assert h1_w0_char(BsdhWord(system, word)).is_zero()


def test_h1_nonnegative_all_types(rs):
    for name in ("B2", "G2"):
        system = rs(name)
        w0 = weyl.longest_element(system)
        for word in weyl.reduced_words(system, w0):
            assert h1_w0_char(BsdhWord(system, word)).nonnegative()


def test_h1_b2_word_dependence(rs):
    # The two B2 desingularizations of the full flag variety are different
    # varieties: one has rigid-at-zero sections (H^1 zero multiplicity 0),
    # the other picks up a one-dimensional zero-weight H^1 because the last
    # string operator contributes a full negated irreducible character
    # (its value on that word equals minus the 5-dimensional character).
    b2 = rs("B2")
    h1_a = h1_w0_char(BsdhWord(b2, (0, 1, 0, 1)))
    h1_b = h1_w0_char(BsdhWord(b2, (1, 0, 1, 0)))
    zero = (0, 0)
    assert h1_a.coeff(zero) == 0
    assert h1_b.coeff(zero) == 1
    assert h1_b.dim() == 5
    # consistency: zero weight of chi + zero weight of H^1 = n in both cases
    for word, h1 in (((0, 1, 0, 1), h1_a), ((1, 0, 1, 0), h1_b)):
        chi0 = tangent_euler_char(BsdhWord(b2, word)).zero_mult
        assert chi0 + h1.coeff(zero) == 2


# -- Schubert tangent restriction -------------------------------------------

def test_schubert_identity_element(rs):
    a2 = rs("A2")
    got = schubert_tangent_char(a2, weyl.identity(a2))
    expect = Character({tuple(r.weight): 1 for r in a2.positive_roots})
    assert got == expect


def test_schubert_w0_is_adjoint(rs):
    a2 = rs("A2")
    got = schubert_tangent_char(a2, weyl.longest_element(a2))
    assert got == reference_chars(a2).char_g
    assert got.dim() == 8


def test_schubert_s1_positive_part(rs):
    a2 = rs("A2")
    got = schubert_tangent_char(a2, weyl.simple_reflection(a2, 0))
    alpha1 = a2.simple_roots[0]
    assert got.coeff(tuple(alpha1)) == 1
    assert got.nonnegative()
    # the full adjoint character is not yet contained at s_1
    assert not reference_chars(a2).char_g.leq(got)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_schubert_chain_against_the_per_root_sum(rs, name):
    system = rs(name)
    for w in weyl.all_elements(system):
        assert schubert_tangent_char(system, w) \
            == oracles.schubert_tangent_char_by_roots(system, w)


def test_adjoint_containment_examples(rs):
    a2 = rs("A2")
    assert adjoint_containment(a2, weyl.longest_element(a2))
    assert not adjoint_containment(a2, weyl.identity(a2))
    assert adjoint_containment(a2, weyl.from_word(a2, (0, 1)))


def test_adjoint_containment_matches_criterion(rs):
    for name in ("A2", "B2", "G2"):
        system = rs(name)
        for w in weyl.all_elements(system):
            assert adjoint_containment(system, w) \
                == weyl.alpha0_criterion(system, w)


# -- kernel characters ------------------------------------------------------

def test_R_w_examples(rs):
    a2 = rs("A2")
    as_coords = lambda roots: {r.root_coords for r in roots}
    assert as_coords(root_subset_R_w(a2, ())) == {(1, 0), (0, 1), (1, 1)}
    assert as_coords(root_subset_R_w(a2, (0,))) == {(0, 1), (1, 1)}
    assert as_coords(root_subset_R_w(a2, (0, 1, 0))) == set()
    # s_2 s_3 s_1 and s_1 s_2 s_3 have the same letters but not the same R_w
    a3 = rs("A3")
    assert as_coords(root_subset_R_w(a3, (1, 2, 0))) == {(1, 1, 1)}
    assert as_coords(root_subset_R_w(a3, (0, 1, 2))) == set()
    with pytest.raises(ValueError, match=r"failing prefix \(0, 0\)"):
        root_subset_R_w(a2, (0, 0))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_R_w_recurrence_against_the_interval_oracle(rs, name):
    system = rs(name)
    for w in weyl.all_elements(system):
        word = weyl.canonical_word(system, w)
        assert root_subset_R_w(system, word) \
            == oracles.root_subset_R_w_by_interval(system, word), word


def test_kernel_a2_frozen_example(rs):
    a2 = rs("A2")
    alpha1, alpha2 = a2.simple_roots
    rep = kernel_char(BsdhWord(a2, (0,)), (0, 1, 0))
    expect = (mono(0, 0) + Character.monomial(-alpha2)
              + Character.monomial(-alpha1 - alpha2))
    assert rep.predicted == expect
    assert rep.observed == expect
    assert rep.equal
    assert rep.predicted.dim() == 3


def test_kernel_zero_cases(rs):
    a2 = rs("A2")
    rep = kernel_char(BsdhWord(a2, (0, 1)), (0, 1, 0))
    assert rep.predicted.is_zero() and rep.observed.is_zero()
    rep = kernel_char(BsdhWord(a2, (0, 1, 0)), (0, 1, 0))
    assert rep.predicted.is_zero() and rep.observed.is_zero()


def test_kernel_empty_word_gives_whole_parabolic(rs):
    a2 = rs("A2")
    rep = kernel_char(BsdhWord(a2, ()), (0, 1, 0))
    assert rep.predicted == reference_chars(a2, (0,)).char_p_J
    assert rep.equal


def test_kernel_validation(rs):
    a2, b2 = rs("A2"), rs("B2")
    with pytest.raises(ValueError):
        kernel_char(BsdhWord(a2, (0,)), (1, 0, 1))     # not an extension
    with pytest.raises(ValueError):
        kernel_char(BsdhWord(a2, (0,)), (0, 1))        # not the longest
    with pytest.raises(ValueError):
        kernel_char(BsdhWord(b2, (0,)), (0, 1, 0, 1))  # not simply laced


def test_kernel_agreement_a2_exhaustive(rs):
    a2 = rs("A2")
    w0 = weyl.longest_element(a2)
    for full in weyl.reduced_words(a2, w0):
        for r in range(len(full) + 1):
            rep = kernel_char(BsdhWord(a2, full[:r]), full)
            assert rep.equal



def test_tangent_table_interning_under_threads(monkeypatch):
    import sys
    import threading
    import time
    table = tangent._TangentTable(RootSystem.of("A2"))
    chars = [Character.monomial((a, b)) for a in range(-4, 5) for b in range(-4, 5)]
    got = []
    real_hash = Character.__hash__

    def yielding_hash(chi):
        # hashing is inside the interning step: let other threads run there
        time.sleep(1e-5)
        return real_hash(chi)

    def work(k):
        got.extend((chi, table._intern(chi)) for chi in chars[k:] + chars[:k])

    monkeypatch.setattr(Character, "__hash__", yielding_hash)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(0, 24, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    monkeypatch.undo()
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 * len(chars)
    assert all(table.states[s] == chi for chi, s in got)
    assert len(table.states) == len(set(table.states)) == len(chars) + 1
