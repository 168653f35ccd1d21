import importlib
from random import Random

import pytest

from bsdh.roots import (PACK_MAX_RANK, CartanType, RootSystem, Weight,
                        build_root_system, dominance_leq, dot_action,
                        pack_weight, pairing, reflect, unpack_weight)
from bsdh import roots, weyl

from oracles import root_coords_rational

CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}


def test_cartan_type_bounds():
    with pytest.raises(ValueError):
        CartanType("A", 0)
    with pytest.raises(ValueError):
        CartanType("D", 3)
    with pytest.raises(ValueError):
        CartanType("E", 9)
    with pytest.raises(ValueError):
        CartanType("F", 5)
    with pytest.raises(ValueError):
        CartanType("G", 3)
    with pytest.raises(ValueError):
        CartanType("H", 3)


def test_c2_canonicalizes_to_b2():
    with pytest.warns(UserWarning):
        t = CartanType.parse("C2")
    assert (t.family, t.rank) == ("B", 2)
    with pytest.raises(ValueError):
        CartanType("C", 2)


def test_simply_laced_flag():
    assert CartanType("A", 3).simply_laced()
    assert CartanType("D", 4).simply_laced()
    assert CartanType("E", 6).simply_laced()
    assert not CartanType("B", 2).simply_laced()
    assert not CartanType("C", 3).simply_laced()
    assert not CartanType("F", 4).simply_laced()
    assert not CartanType("G", 2).simply_laced()


@pytest.mark.parametrize("name,count", sorted(CLASSICAL_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert len(RootSystem.of(name).positive_roots) == count


@pytest.mark.parametrize("name", [*(f"A{n}" for n in range(1, 9)),
                                  *(f"B{n}" for n in range(2, 9)),
                                  *(f"C{n}" for n in range(3, 9)),
                                  *(f"D{n}" for n in range(4, 9)),
                                  "E6", "E7", "E8", "F4", "G2"])
def test_root_weights_are_the_cartan_matrix_on_root_coords(name):
    # the closure carries each weight; this is the product it replaces
    system = RootSystem.of(name)
    n, cartan = system.rank, system.cartan
    for beta in system.positive_roots:
        rc = beta.root_coords
        assert type(beta.weight) is Weight
        assert beta.weight == tuple(sum(cartan[i][j] * rc[j] for j in range(n))
                                    for i in range(n))
    t = system.cartan_type
    assert len(system.positive_roots) \
        == roots._POSITIVE_ROOT_COUNTS[t.family](t.rank)


def test_a2_cartan_matrix(rs):
    assert rs("A2").cartan == ((2, -1), (-1, 2))


def test_cartan_matrix_shape_invariants():
    for name in CLASSICAL_COUNTS:
        system = RootSystem.of(name)
        n = system.rank
        for i in range(n):
            assert system.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert system.cartan[i][j] <= 0
                    assert (system.cartan[i][j] == 0) == (system.cartan[j][i] == 0)


def test_cartan_reconstruction_from_pairings():
    for name in ("A3", "B3", "F4", "G2"):
        system = RootSystem.of(name)
        for j in range(system.rank):
            for i in range(system.rank):
                assert pairing(system, system.simple_roots[j], i) \
                    == system.cartan[i][j]


def test_highest_roots(rs):
    assert rs("A2").highest_root.root_coords == (1, 1)
    assert rs("G2").highest_root.root_coords == (3, 2)
    assert tuple(rs("G2").highest_root.weight) == (0, 1)
    assert tuple(rs("B2").highest_root.weight) == (0, 2)
    assert rs("A1").highest_root.weight == rs("A1").simple_roots[0]


def test_highest_root_dominates_and_is_dominant():
    for name in CLASSICAL_COUNTS:
        system = RootSystem.of(name)
        top = system.highest_root
        assert all(c >= 0 for c in top.weight)
        for beta in system.positive_roots:
            assert dominance_leq(system, beta.weight, top.weight)


def test_root_heights_and_ordering():
    for name in ("A3", "B3", "G2", "F4"):
        system = RootSystem.of(name)
        heights = [r.height for r in system.positive_roots]
        assert heights == sorted(heights)
        for r in system.positive_roots:
            assert r.height == sum(r.root_coords)
            assert all(c >= 0 for c in r.root_coords)


def test_root_length_split():
    b3 = RootSystem.of("B3")
    lengths = [b3.root_length(r) for r in b3.positive_roots]
    assert lengths.count("long") == 6 and lengths.count("short") == 3
    g2 = RootSystem.of("G2")
    lengths = [g2.root_length(r) for r in g2.positive_roots]
    assert lengths.count("long") == 3 and lengths.count("short") == 3
    a3 = RootSystem.of("A3")
    assert {a3.root_length(r) for r in a3.positive_roots} == {"long"}


def test_g2_highest_root_pairings(rs):
    g2 = rs("G2")
    coords = [pairing(g2, g2.highest_root.weight, i) for i in range(2)]
    assert sorted(coords) == [0, 1]


def test_pairing_rho(rs):
    a2 = rs("A2")
    assert pairing(a2, a2.rho, 0) == 1 and pairing(a2, a2.rho, 1) == 1
    with pytest.raises(IndexError):
        pairing(a2, a2.rho, 2)


def test_reflect_examples(rs):
    a2 = rs("A2")
    zero = Weight((0, 0))
    assert reflect(a2, 0, zero) == zero
    a1w, a2w = a2.simple_roots
    assert reflect(a2, 0, a1w) == -a1w
    assert reflect(a2, 0, a2w) == a1w + a2w


def test_reflect_is_involution_and_permutes_roots():
    for name in ("A3", "B3", "G2"):
        system = RootSystem.of(name)
        all_root_weights = {tuple(r.weight) for r in system.positive_roots}
        all_root_weights |= {tuple(-r.weight) for r in system.positive_roots}
        for i in range(system.rank):
            for r in system.positive_roots:
                image = reflect(system, i, r.weight)
                assert tuple(image) in all_root_weights
                assert reflect(system, i, image) == r.weight


def test_dot_action(rs):
    a2 = rs("A2")
    ident = weyl.identity(a2)
    lam = Weight((2, 5))
    assert dot_action(a2, ident, lam) == lam
    s1 = weyl.simple_reflection(a2, 0)
    zero = Weight((0, 0))
    assert dot_action(a2, s1, zero) == -a2.simple_roots[0]
    assert dot_action(a2, s1, -a2.simple_roots[0]) == zero


def test_dominance(rs):
    a2 = rs("A2")
    zero = Weight((0, 0))
    top = a2.highest_root.weight
    assert dominance_leq(a2, zero, zero)
    assert dominance_leq(a2, zero, top)
    omega1, omega2 = Weight((1, 0)), Weight((0, 1))
    assert not dominance_leq(a2, omega1, omega2)
    assert not dominance_leq(a2, omega2, omega1)


@pytest.mark.parametrize("name", sorted(CLASSICAL_COUNTS))
def test_root_coords_agree_with_rational_solve(name):
    system = RootSystem.of(name)
    n = system.rank
    for beta in system.positive_roots:
        for w in (beta.weight, -beta.weight):
            assert system.root_coords_of(w) == root_coords_rational(system, w)
        assert system.root_coords_of(beta.weight) == beta.root_coords
    rng = Random(f"root-coords/{name}")
    integral = 0
    for _ in range(300):
        w = tuple(rng.randint(-9, 9) for _ in range(n))
        got = system.root_coords_of(w)
        assert got == root_coords_rational(system, w), w
        integral += got is not None
    # a sublattice of index det(C): E8, F4 and G2 have every weight integral
    assert integral == 300 if name in ("E8", "F4", "G2") else 0 < integral < 300


def test_packed_weights_round_trip_in_lex_order():
    rng = Random(17)
    top = (1 << 31) - 1
    for rank in (1, 2, 5, 8, PACK_MAX_RANK):
        weights = [tuple(rng.randint(-top - 1, top) for _ in range(rank))
                   for _ in range(50)]
        weights += [(-top - 1,) * rank, (top,) * rank, (0,) * rank]
        keys = [pack_weight(w) for w in weights]
        assert [unpack_weight(k) for k in keys] == weights
        assert sorted(weights) == [unpack_weight(k) for k in sorted(keys)]
    for bad in [(1 << 31,), (0, -(1 << 31) - 1), (0,) * (PACK_MAX_RANK + 1)]:
        with pytest.raises(ValueError):
            pack_weight(bad)


@pytest.mark.parametrize("name", ("A3", "B4", "E8", "G2"))
def test_packed_alphas_add_simple_roots(name):
    system = RootSystem.of(name)
    rng = Random(name)
    for _ in range(20):
        lam = Weight(rng.randint(-50, 50) for _ in range(system.rank))
        for i, (shift, delta) in enumerate(system.packed_alphas):
            alpha = system.simple_roots[i]
            assert pack_weight(lam) + delta == pack_weight(lam + alpha)
            assert (pack_weight(lam) >> shift & 0xFFFFFFFF) - (1 << 31) == lam[i]


def test_coroot_pairing_agrees_with_weight_coords():
    for name in ("B3", "G2"):
        system = RootSystem.of(name)
        for beta in system.positive_roots:
            for i in range(system.rank):
                assert beta.weight[i] == pairing(system, beta.weight, i)


@pytest.mark.parametrize("layer",
                         ["roots", "weyl", "characters", "tangent", "autgroup"])
def test_every_exported_name_resolves(layer):
    # tracing tools look up each name of __all__ on its module
    module = importlib.import_module(f"bsdh.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
