import itertools

import pytest

from bsdh.roots import RootSystem, Weight
from bsdh.characters import Character, reference_chars
from bsdh.tangent import (BsdhWord, KernelReport, TangentReport,
                          adjoint_containment, h1_w0_char, kernel_char,
                          root_subset_R_w, schubert_tangent_char,
                          tangent_euler_char, tangent_h0_char)
from bsdh import weyl


def mono(*coords):
    return Character.monomial(tuple(coords))


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
    assert rep.total.is_zero() and rep.per_step == []


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
            assert len(rep.per_step) == len(rep.word)
            assert sum(rep.per_step, Character.zero()) == rep.total


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


def test_h1_reuses_the_tangent_sum(rs, monkeypatch):
    from bsdh import characters, tangent
    steps = []
    real_step = characters.demazure_step

    def counting_step(*args):
        steps.append(args[1])
        return real_step(*args)

    monkeypatch.setattr(characters, "demazure_step", counting_step)
    monkeypatch.setattr(tangent, "demazure_step", counting_step)
    b = BsdhWord(rs("B2"), (1, 0, 1, 0))
    chi = tangent_euler_char(b).total
    assert len(steps) == 4
    h1 = h1_w0_char(b)
    assert len(steps) == 4
    assert h1 == reference_chars(b.rs, b.J).char_p_J - chi


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
