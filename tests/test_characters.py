import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bsdh.roots import PACK_MAX_RANK, RootSystem, Weight
from bsdh.characters import (COORD_BOUND, Character, demazure_character,
                             demazure_step, euler_char, reference_chars)
from bsdh import weyl

from oracles import demazure_step_rational, weyl_dimension


def mono(*coords):
    return Character.monomial(tuple(coords))


# -- Character arithmetic ---------------------------------------------------

def test_character_basic_arithmetic():
    a = mono(1, 0) + mono(0, 1)
    b = mono(1, 0)
    assert (a - b) == mono(0, 1)
    assert (b - b).is_zero()
    assert (b - b) == Character.zero()
    assert (-a) + a == Character.zero()
    assert a.dim() == 2
    assert a.coeff((1, 0)) == 1 and a.coeff((5, 5)) == 0


def test_character_drops_zero_coefficients():
    c = mono(1, 1) - mono(1, 1)
    assert c.terms == {}
    assert not c.support()


def test_character_leq_and_nonnegative():
    a = mono(0, 0) + mono(1, 0)
    big = a + mono(0, 1)
    assert a.leq(big)
    assert not big.leq(a)
    assert a.nonnegative()
    assert not Character({(0, 0): -1, (1, 0): 2}).nonnegative()
    assert Character.zero().leq(a)


def test_character_sorted_items_lex():
    c = mono(1, -1) + mono(0, 2) + mono(-3, 5)
    assert [w for w, _ in c.sorted_items()] == [(-3, 5), (0, 2), (1, -1)]


# -- packed storage ---------------------------------------------------------

def _random_terms(rng, rank, spread=COORD_BOUND - 1, size=8):
    terms = {}
    for _ in range(size):
        w = tuple(rng.randint(-spread, spread) for _ in range(rank))
        terms[w] = rng.choice([-2, -1, 0, 1, 3])
    return terms


@pytest.mark.parametrize("rank", range(1, 9))
def test_packed_round_trip_and_lex_order(rank):
    rng = Random(f"pack/{rank}")
    for spread in (1, 5, COORD_BOUND - 1):
        terms = _random_terms(rng, rank, spread)
        chi = Character(terms)
        nonzero = {w: c for w, c in terms.items() if c}
        assert chi.terms == nonzero
        assert all(type(w) is tuple for w in chi.terms)
        assert chi.sorted_items() == sorted(nonzero.items())
        assert chi.support() == set(nonzero)
        for w, c in terms.items():
            assert chi.coeff(w) == c


def test_coordinate_at_the_bound_is_rejected():
    for bad in (COORD_BOUND, -COORD_BOUND, 1 << 40):
        with pytest.raises(ValueError):
            Character({(0, bad): 1})
        with pytest.raises(ValueError):
            Character.monomial((bad,))
    with pytest.raises(ValueError):
        Character.monomial((0,) * (PACK_MAX_RANK + 1))
    chi = Character.monomial((COORD_BOUND - 1, 1 - COORD_BOUND))
    assert chi.terms == {(COORD_BOUND - 1, 1 - COORD_BOUND): 1}
    # out-of-range weights are simply absent
    assert chi.coeff((COORD_BOUND, 0)) == 0
    assert chi.coeff((1 << 40, 0)) == 0
    assert chi.coeff((0,) * (PACK_MAX_RANK + 1)) == 0


def test_steps_reach_past_the_constructor_bound(rs):
    # outputs may leave +-COORD_BOUND; they stay exact and readable
    g2 = rs("G2")
    m = COORD_BOUND - 1
    chi = demazure_step(g2, 1, Character.monomial((m, 2)))
    assert chi.terms == {(m, 2): 1, (m + 3, 0): 1, (m + 6, -2): 1}
    assert chi.coeff((m + 6, -2)) == 1
    assert demazure_step(g2, 1, chi) == chi


def test_equality_and_hash_ignore_insertion_order():
    rng = Random(5)
    for rank in (1, 3, 8):
        items = list(_random_terms(rng, rank, 6).items())
        a = Character(dict(items))
        b = Character(dict(reversed(items)))
        assert a == b and hash(a) == hash(b)
        assert a - b == Character.zero()
        assert len({a, b}) == 1


def _tuple_step(rs, i, terms):
    """The string sum on tuple-keyed dicts, as the library computed it
    before weights were packed."""
    alpha = rs.simple_roots[i]
    out = {}
    for lam, c in terms.items():
        n = lam[i]
        if n >= 0:
            string = [tuple(x - k * a for x, a in zip(lam, alpha))
                      for k in range(n + 1)]
        else:
            string = [tuple(x + k * a for x, a in zip(lam, alpha))
                      for k in range(1, -n)]
            c = -c
        for w in string:
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


ALL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
             "D5", "E6", "E7", "E8", "F4", "G2")


@pytest.mark.parametrize("name", ALL_TYPES)
def test_step_agrees_with_oracles_in_every_type(rs, name):
    system = rs(name)
    rng = Random(f"step/{name}")
    for _ in range(40):
        chi = Character(_random_terms(rng, system.rank, 6, rng.randint(1, 5)))
        for i in range(system.rank):
            got = demazure_step(system, i, chi)
            assert got == demazure_step_rational(system, i, chi)
            assert got.terms == _tuple_step(system, i, chi.terms)


# -- demazure_step branch behavior -----------------------------------------

def test_step_fixes_zero_weight(rs):
    a2 = rs("A2")
    assert demazure_step(a2, 0, mono(0, 0)) == mono(0, 0)


def test_step_on_own_simple_root_gives_sl2(rs):
    a2 = rs("A2")
    alpha1 = a2.simple_roots[0]
    got = demazure_step(a2, 0, Character.monomial(alpha1))
    expect = Character.monomial(alpha1) + mono(0, 0) + Character.monomial(-alpha1)
    assert got == expect


def test_step_on_negative_simple_root(rs):
    a2 = rs("A2")
    alpha1 = a2.simple_roots[0]
    assert demazure_step(a2, 0, Character.monomial(-alpha1)) == -mono(0, 0)


def test_step_pairing_minus_one_kills(rs):
    a2 = rs("A2")
    # <alpha_2, alpha_1^vee> = -1
    assert demazure_step(a2, 0, Character.monomial(a2.simple_roots[1])).is_zero()


def test_step_long_string_g2(rs):
    g2 = rs("G2")
    alpha2 = g2.simple_roots[1]       # <alpha_2, alpha_1^vee> = -3
    got = demazure_step(g2, 0, Character.monomial(alpha2))
    # n = -3: -(e^{s_1.alpha_2} + e^{s_1.alpha_2 - alpha_1})
    # s_1.(alpha_2) = s_1(alpha_2 + rho) - rho = alpha_2 + 2 alpha_1 ... computed:
    alpha1 = g2.simple_roots[0]
    top = alpha2 + alpha1 + alpha1    # alpha_2 + 2 alpha_1
    expect = -(Character.monomial(top) + Character.monomial(top - alpha1))
    assert got == expect


# -- oracle agreement & operator relations ----------------------------------

SYSTEMS = ("A2", "B2", "G2")
_SYS_CACHE: dict = {}


def _system(name):
    if name not in _SYS_CACHE:
        _SYS_CACHE[name] = RootSystem.of(name)
    return _SYS_CACHE[name]


@st.composite
def character_and_index(draw):
    name = draw(st.sampled_from(SYSTEMS))
    system = _system(name)
    n_terms = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        w = tuple(draw(st.integers(-4, 4)) for _ in range(system.rank))
        c = draw(st.integers(-3, 3).filter(bool))
        terms[w] = c
    i = draw(st.integers(0, system.rank - 1))
    return name, Character(terms), i


@given(character_and_index())
@settings(max_examples=300, deadline=None)
def test_step_agrees_with_rational_oracle(data):
    name, chi, i = data
    system = _system(name)
    assert demazure_step(system, i, chi) == demazure_step_rational(system, i, chi)


@given(character_and_index())
@settings(max_examples=200, deadline=None)
def test_step_idempotence(data):
    name, chi, i = data
    system = _system(name)
    once = demazure_step(system, i, chi)
    assert demazure_step(system, i, once) == once


@given(character_and_index())
@settings(max_examples=150, deadline=None)
def test_braid_relations(data):
    name, chi, i = data
    system = _system(name)
    for j in range(system.rank):
        if j == i:
            continue
        m = {0: 2, 1: 3, 2: 4, 3: 6}[system.cartan[i][j] * system.cartan[j][i]]
        lhs, rhs = chi, chi
        a, b = i, j
        for _ in range(m):
            lhs = demazure_step(system, a, lhs)
            rhs = demazure_step(system, b, rhs)
            a, b = b, a
        assert lhs == rhs


# -- euler_char -------------------------------------------------------------

def test_euler_empty_word(rs):
    a2 = rs("A2")
    lam = Weight((2, -1))
    assert euler_char(a2, (), lam) == Character.monomial(lam)


def test_euler_a2_example(rs):
    a2 = rs("A2")
    alpha1, alpha2 = a2.simple_roots
    got = euler_char(a2, (0, 1), alpha2)
    expect = mono(0, 0) + Character.monomial(-alpha2) \
        + Character.monomial(-alpha1 - alpha2)
    assert got == expect


def test_euler_word_independence_exhaustive():
    rng = Random(7)
    for name in ("A2", "B2"):
        system = RootSystem.of(name)
        for w in weyl.all_elements(system):
            words = list(weyl.reduced_words(system, w))
            if len(words) < 2:
                continue
            for _ in range(20):
                lam = Weight(tuple(rng.randint(-4, 4) for _ in range(system.rank)))
                vals = {euler_char(system, word, lam) for word in words}
                assert len(vals) == 1


def test_euler_w_invariance_at_w0():
    rng = Random(11)
    for name in ("A2", "B2", "G2"):
        system = RootSystem.of(name)
        word = weyl.canonical_word(system, weyl.longest_element(system))
        for _ in range(10):
            lam = Weight(tuple(rng.randint(-3, 3) for _ in range(system.rank)))
            chi = euler_char(system, word, lam)
            for i in range(system.rank):
                s = weyl.simple_reflection(system, i)
                reflected = Character({tuple(s.apply(Weight(w))): c
                                       for w, c in chi.terms.items()})
                assert reflected == chi


# -- demazure_character -----------------------------------------------------

def test_demazure_character_rejects_non_dominant(rs):
    a2 = rs("A2")
    with pytest.raises(ValueError):
        demazure_character(a2, weyl.longest_element(a2), Weight((-1, 0)))


def test_demazure_character_trivial_cases(rs):
    a2 = rs("A2")
    for w in weyl.all_elements(a2):
        assert demazure_character(a2, w, Weight((0, 0))) == mono(0, 0)
    a1 = rs("A1")
    s1 = weyl.simple_reflection(a1, 0)
    for m in range(4):
        ch = demazure_character(a1, s1, Weight((m,)))
        assert len(ch.terms) == m + 1
        assert all(c == 1 for c in ch.terms.values())


def test_demazure_character_positivity_and_leading_term(rs):
    a3 = rs("A3")
    rng = Random(3)
    elements = weyl.all_elements(a3)
    for _ in range(15):
        lam = Weight(tuple(rng.randint(0, 2) for _ in range(3)))
        w = rng.choice(elements)
        ch = demazure_character(a3, w, lam)
        assert all(c >= 1 for c in ch.terms.values())
        assert ch.coeff(tuple(lam)) == 1


@pytest.mark.parametrize("name,lam,dim", [
    ("A2", (1, 1), 8),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
])
def test_demazure_character_at_w0_is_weyl_character(rs, name, lam, dim):
    system = rs(name)
    ch = demazure_character(system, weyl.longest_element(system), Weight(lam))
    assert ch.dim() == dim
    assert weyl_dimension(system, lam) == dim


def test_weyl_dimension_oracle_basics(rs):
    a2 = rs("A2")
    assert weyl_dimension(a2, (0, 0)) == 1
    assert weyl_dimension(a2, (1, 1)) == 8
    with pytest.raises(ValueError):
        weyl_dimension(a2, (-1, 0))


# -- reference characters ---------------------------------------------------

def test_reference_chars_dims():
    for name in ("A2", "A3", "B3", "G2"):
        system = RootSystem.of(name)
        n = system.rank
        N = len(system.positive_roots)
        refs = reference_chars(system)
        assert refs.char_b.dim() == n + N
        assert refs.char_g.dim() == n + 2 * N
        assert refs.char_g_mod_b.dim() == N
        assert refs.char_p_J.dim() == n + N          # J empty
        assert refs.char_nilrad.dim() == N


def test_reference_chars_a3_parabolic_dim(rs):
    refs = reference_chars(rs("A3"), (0,))
    assert refs.char_p_J.dim() == 10


def test_reference_chars_a2_frozen_example(rs):
    a2 = rs("A2")
    alpha1, alpha2 = a2.simple_roots
    refs = reference_chars(a2, (0,))
    expect = (Character({(0, 0): 2}) + Character.monomial(alpha1)
              + Character.monomial(-alpha1) + Character.monomial(-alpha2)
              + Character.monomial(-alpha1 - alpha2))
    assert refs.char_p_J == expect


def test_reference_chars_nonorthogonal_J_uses_subsystem(rs):
    a2 = rs("A2")
    refs = reference_chars(a2, (0, 1))
    assert refs.char_p_J == refs.char_g
    assert refs.char_nilrad == Character.zero()


def test_reference_chars_bad_index(rs):
    with pytest.raises(IndexError):
        reference_chars(rs("A2"), (2,))
