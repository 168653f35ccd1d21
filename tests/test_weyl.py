import gc
import itertools
import time
import weakref

import pytest

from bsdh.roots import (PACK_MAX_RANK, RootSystem, Weight, pack_weight,
                        unpack_weight)
from bsdh import autgroup, weyl

import oracles
from oracles import (bruhat_leq_subword, count_reduced_words,
                     reduced_words_by_filter)


def test_from_word_identity_and_braid(rs):
    a2 = rs("A2")
    assert weyl.from_word(a2, ()) == weyl.identity(a2)
    assert weyl.from_word(a2, (0, 1, 0)) == weyl.from_word(a2, (1, 0, 1))


def test_a2_longest_flips_diagram(rs):
    a2 = rs("A2")
    w0 = weyl.from_word(a2, (0, 1, 0))
    assert w0 == weyl.longest_element(a2)
    # w0 acts as minus the diagram flip: omega1 <-> -omega2
    assert w0.apply(Weight((1, 0))) == Weight((0, -1))
    assert w0.apply(Weight((0, 1))) == Weight((-1, 0))


def test_inversions_examples(rs):
    a2 = rs("A2")
    assert weyl.inversions(a2, weyl.identity(a2)) == set()
    s1 = weyl.simple_reflection(a2, 0)
    assert {r.root_coords for r in weyl.inversions(a2, s1)} == {(1, 0)}
    s2s1 = weyl.from_word(a2, (1, 0))
    assert {r.root_coords for r in weyl.inversions(a2, s2s1)} \
        == {(1, 0), (1, 1)}


def test_length_matches_inversions_everywhere():
    for name in ("A3", "B2", "G2"):
        system = RootSystem.of(name)
        for w in weyl.all_elements(system):
            assert weyl.length(system, w) == len(weyl.inversions(system, w))


def test_length_of_product_bounds(rs):
    b2 = rs("B2")
    elements = weyl.all_elements(b2)
    for v, w in itertools.product(elements, repeat=2):
        lv, lw = weyl.length(b2, v), weyl.length(b2, w)
        assert weyl.length(b2, v @ w) <= lv + lw
    for w in elements:
        for i in range(b2.rank):
            diff = weyl.length(b2, w @ weyl.simple_reflection(b2, i)) - weyl.length(b2, w)
            assert diff in (-1, 1)


def test_is_reduced(rs):
    a2, a3 = rs("A2"), rs("A3")
    assert not weyl.is_reduced(a2, (0, 0))
    assert weyl.unreduced_prefix(a2, (0, 0)) == (0, 0)
    assert weyl.is_reduced(a3, (0, 1, 0, 2, 1, 0))
    assert not weyl.is_reduced(a2, (0, 1, 0, 1))
    assert weyl.unreduced_prefix(a2, (0, 1, 0, 1)) == (0, 1, 0, 1)
    assert weyl.unreduced_prefix(a2, (0, 1)) is None


def test_longest_element(rs):
    for name, n_inv in (("A1", 1), ("A2", 3), ("A3", 6), ("B3", 9), ("G2", 6)):
        system = rs(name)
        w0 = weyl.longest_element(system)
        assert weyl.length(system, w0) == n_inv
        for beta in system.positive_roots:
            assert oracles.is_negative_root(system, w0.apply(beta.weight))


def test_reduced_words_a2(rs):
    a2 = rs("A2")
    words = set(weyl.reduced_words(a2, weyl.longest_element(a2)))
    assert words == {(0, 1, 0), (1, 0, 1)}


@pytest.mark.parametrize("name,count", [("A2", 2), ("A3", 16), ("B3", 42), ("A4", 768)])
def test_reduced_word_counts(rs, name, count):
    system = rs(name)
    w0 = weyl.longest_element(system)
    words = list(weyl.reduced_words(system, w0))
    assert len(words) == count
    assert weyl.count_words(system, w0) == count
    assert count_reduced_words(system, w0) == count


def test_count_words_leaves_no_cycle_holding_the_root_system():
    # with the cycle collector off, only reference counting can free the
    # system, so any cycle through it left by count_words keeps it alive
    gc.collect()
    gc.disable()
    try:
        system = RootSystem.of("B3")
        assert weyl.count_words(system, weyl.longest_element(system)) == 42
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_reduced_words_properties(rs):
    a3 = rs("A3")
    w0 = weyl.longest_element(a3)
    words = list(weyl.reduced_words(a3, w0))
    assert len(set(words)) == len(words)
    assert words == sorted(words)
    for word in words:
        assert weyl.is_reduced(a3, word)
        assert weyl.from_word(a3, word) == w0


@pytest.mark.parametrize("name", ["A3", "B2", "G2"])
def test_reduced_words_equal_filter_oracle_on_every_element(rs, name):
    system = rs(name)
    for w in weyl.all_elements(system):
        expected = reduced_words_by_filter(system, w)
        assert list(weyl.reduced_words(system, w)) == expected
        assert weyl.count_words(system, w) == len(expected)


def test_reduced_words_limit_is_a_prefix_of_the_oracle(rs):
    b3 = rs("B3")
    w0 = weyl.longest_element(b3)
    expected = reduced_words_by_filter(b3, w0)
    assert list(weyl.reduced_words(b3, w0)) == expected
    for k in (0, 1, 5, 41, 42, 100):
        assert list(weyl.reduced_words(b3, w0, limit=k)) == expected[:k]


def test_word_cap(rs):
    a3 = rs("A3")
    w0 = weyl.longest_element(a3)
    with pytest.raises(weyl.WordCapExceeded):
        list(weyl.reduced_words(a3, w0, cap=5))
    assert len(list(weyl.reduced_words(a3, w0, cap=None))) == 16


def test_no_cap_never_counts(rs, monkeypatch):
    a3 = rs("A3")
    w0 = weyl.longest_element(a3)
    expected = list(weyl.reduced_words(a3, w0))

    def refuse(*args, **kwargs):
        raise AssertionError("counted with no cap")

    monkeypatch.setattr(weyl, "_count", refuse)
    assert list(weyl.reduced_words(a3, w0, cap=None)) == expected


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_count_sweep_equals_the_oracle_and_saturates_at_the_cap(rs, name):
    system = rs(name)
    for w in weyl.all_elements(system):
        c = count_reduced_words(system, w)
        assert weyl._count(system, w.x) == c
        for cap in {0, 1, c - 1, c}:
            assert (weyl._count(system, w.x, cap) > cap) == (c > cap), (w, cap)
    assert "count" not in system._caches


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "B4", "F4"])
def test_packed_sweep_equals_the_tuple_sweep(rs, name):
    # the word-count edge of _count and the J-table edge of classify_all_w0,
    # from w_0 down to e: every level, keys in order
    system = rs(name)
    top = tuple(-c for c in system.rho)
    for seed, edge in ((1, lambda acc, i, c: c + (acc or 0)),
                       ({0: 1}, autgroup._bucket_edge(system))):
        packed = list(weyl._levels(system, top, seed, edge))
        tuples = list(oracles.levels_by_tuples(system, top, seed, edge))
        assert len(packed) == len(tuples) == len(system.positive_roots) + 1
        for got, want in zip(packed, tuples):
            assert [(unpack_weight(y), state) for y, state in got.items()] \
                == list(want.items())


def test_sweep_packs_as_pack_weight_and_runs_above_the_pack_rank(rs):
    for name in ("A3", "G2", "E8"):
        system = rs(name)
        for v in (system.rho, tuple(-c for c in system.rho),
                  system.highest_root.weight):
            assert weyl._pack(system, v) == pack_weight(v)
    # pack_weight refuses rank 65 and above; the sweep still runs there
    a70 = rs("A70")
    assert a70.rank > PACK_MAX_RANK
    assert weyl.count_words(a70, weyl.longest_element(a70), cap=1000) > 1000
    assert weyl.count_words(a70, weyl.from_word(a70, (0, 2))) == 2


def test_tableau_oracle_known_values(rs):
    assert [oracles.w0_word_count_by_tableaux(rs(name))
            for name in ("A3", "A6", "B4", "B5")] \
        == [16, 1_100_742_656, 24_024, 701_149_020]


@pytest.mark.parametrize("name", [*(f"A{n}" for n in range(1, 8)),
                                  *(f"B{n}" for n in range(2, 7)),
                                  *(f"C{n}" for n in range(3, 7))])
def test_w0_count_equals_the_tableau_count(rs, name):
    system = rs(name)
    assert weyl.count_words(system, weyl.longest_element(system)) \
        == oracles.w0_word_count_by_tableaux(system)


def test_word_cap_message_states_a_lower_bound(rs):
    b3 = rs("B3")
    with pytest.raises(weyl.WordCapExceeded) as info:
        next(weyl.reduced_words(b3, weyl.longest_element(b3), cap=41))
    assert str(info.value) == (
        "element has more than 41 reduced words; pass cap=None "
        "(CLI: --allow-large) to enumerate anyway")
    assert info.value.cap == 41


def test_bruhat_examples(rs):
    a2 = rs("A2")
    e = weyl.identity(a2)
    s2 = weyl.simple_reflection(a2, 1)
    s2s1 = weyl.from_word(a2, (1, 0))
    assert weyl.bruhat_leq(a2, e, (0, 1))
    assert weyl.bruhat_leq(a2, s2, (0, 1))
    assert not weyl.bruhat_leq(a2, s2s1, (0, 1))
    assert sum(weyl.bruhat_leq(a2, v, (0, 1, 0))
               for v in weyl.all_elements(a2)) == 6
    with pytest.raises(ValueError, match=r"failing prefix \(0, 0\)"):
        weyl.bruhat_leq(a2, e, (0, 0))


def test_bruhat_against_subword_oracle():
    for name in ("A2", "B2", "A3"):
        system = RootSystem.of(name)
        elements = weyl.all_elements(system)
        for w in elements:
            word = weyl.canonical_word(system, w)
            for v in elements:
                expected = bruhat_leq_subword(system, v, word)
                assert weyl.bruhat_leq(system, v, word) == expected


def test_alpha0_criterion(rs):
    a2 = rs("A2")
    assert weyl.alpha0_criterion(a2, weyl.longest_element(a2))
    assert not weyl.alpha0_criterion(a2, weyl.identity(a2))
    assert weyl.alpha0_criterion(a2, weyl.from_word(a2, (0, 1)))
    assert not weyl.alpha0_criterion(a2, weyl.simple_reflection(a2, 0))


def test_alpha0_criterion_equals_direct_inverse_check():
    # w^{-1}(alpha_0) < 0 iff alpha_0 = w(-beta) for some positive beta,
    # i.e. some positive root is sent to -alpha_0 by w.
    for name in ("A2", "A3", "B2", "G2"):
        system = RootSystem.of(name)
        top = system.highest_root.weight
        for w in weyl.all_elements(system):
            direct = any(w.apply(beta.weight) == -top
                         for beta in system.positive_roots)
            assert weyl.alpha0_criterion(system, w) == direct


def test_all_elements_and_order(rs):
    for name, order in (("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("B3", 48)):
        system = rs(name)
        assert weyl.weyl_order(system) == order
        elements = weyl.all_elements(system)
        assert len(elements) == order
        assert len(set(elements)) == order


def test_all_elements_of_e6_within_budget():
    """A regression guard: sorting each level by action matrices took
    about 25 s on a 2-CPU box; the level sweep lists E6 in about 0.5 s."""
    e6 = RootSystem.of("E6")
    start = time.monotonic()
    elements = weyl.all_elements(e6)
    elapsed = time.monotonic() - start
    assert len(set(elements)) == len(elements) == 51_840
    assert elapsed < 5.0, f"all_elements(E6) took {elapsed:.1f} s"


def test_parse_and_format_word():
    assert weyl.parse_word("1,2,1,3,2,1", 3) == (0, 1, 0, 2, 1, 0)
    assert weyl.parse_word("", 3) == ()
    assert weyl.format_word((0, 1, 0)) == "1,2,1"
    with pytest.raises(ValueError):
        weyl.parse_word("1,4", 3)
    with pytest.raises(ValueError):
        weyl.parse_word("1,x", 3)
    with pytest.raises(ValueError):
        weyl.parse_word("0,1", 3)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_elements_against_the_matrix_oracle(rs, name):
    """Every element, as a vector w(rho), against its action matrix."""
    system = rs(name)
    n = system.rank
    basis = [tuple(int(j == k) for k in range(n)) for j in range(n)]
    top = system.highest_root.weight
    by_matrix = oracles.group_words(system)
    elements = {m: weyl.from_word(system, word) for m, word in by_matrix.items()}
    assert len(set(elements.values())) == len(elements) == weyl.weyl_order(system)

    # listed by length (the breadth-first word's), then by the reversed
    # canonical word: the least reduced word of the inverse
    ordered = sorted(by_matrix, key=lambda m: (
        len(by_matrix[m]), oracles.mat_canonical_word(system, m)[::-1]))
    assert weyl.all_elements(system) == [elements[m] for m in ordered]
    assert weyl.identity(system) == elements[oracles.mat_identity(n)]
    for i, s in enumerate(oracles.reflection_matrices(system)):
        assert weyl.simple_reflection(system, i) == elements[s]
    assert weyl.longest_element(system) == elements[ordered[-1]]

    # left factors for @: all of W up to 48 elements, every 4th one in D4
    factors = list(elements.items())[:: max(1, len(elements) // 48)]
    for m, word in by_matrix.items():
        w = elements[m]
        for lam in (*basis, system.rho):
            assert w.apply(lam) == oracles.mat_apply(m, lam)
        assert weyl.inversions(system, w) == oracles.mat_inversions(system, m)
        assert weyl.length(system, w) == len(word)
        assert weyl.canonical_word(system, w) == oracles.mat_canonical_word(system, m)
        assert weyl.alpha0_criterion(system, w) == any(
            oracles.mat_apply(m, beta.weight) == tuple(-c for c in top)
            for beta in system.positive_roots)
        for i in range(n):
            longer = (*word, i, *word)
            assert weyl.unreduced_prefix(system, longer) \
                == oracles.mat_unreduced_prefix(system, longer)
        below = {elements[v] for v in oracles.subword_products(system, word)}
        assert {v for v in elements.values()
                if weyl.bruhat_leq(system, v, word)} == below
        for v, u in factors:
            assert u @ w == elements[oracles.matmul(v, m)]
