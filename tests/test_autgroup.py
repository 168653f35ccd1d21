import json
import time

import pytest

from bsdh.roots import RootSystem
from bsdh.autgroup import (W0Classes, _completion_classes, classify,
                           classify_all_w0, verify)
from bsdh.tangent import BsdhWord, _bits
from bsdh import weyl

from oracles import (completion_classes_by_enumeration, count_reduced_words,
                     independent_sets, w0_classes_by_enumeration)


# -- classify ---------------------------------------------------------------

def test_classify_a1(rs):
    rep = classify(BsdhWord(rs("A1"), (0,)))
    assert rep.status == "ExactParabolic"
    assert rep.J == (0,)
    assert rep.parabolic_dim == 3      # 1 + 1 + 1


def test_classify_psl4_words(rs):
    a3 = rs("A3")
    cases = {
        (0, 1, 0, 2, 1, 0): ((0,), 10),
        (1, 0, 1, 2, 1, 0): ((1,), 10),
        (2, 1, 2, 0, 1, 2): ((2,), 10),
        (0, 2, 1, 2, 0, 1): ((0, 2), 11),
    }
    for word, (J, dim) in cases.items():
        rep = classify(BsdhWord(a3, word))
        assert rep.status == "ExactParabolic"
        assert rep.J == J
        assert rep.parabolic_dim == dim
        assert rep.criterion and rep.semistable_equiv
        assert rep.rank_bound == 3


def test_classify_word_sensitivity_regression(rs):
    a3 = rs("A3")
    first = classify(BsdhWord(a3, (0, 1, 0, 2, 1, 0)))
    second = classify(BsdhWord(a3, (0, 2, 1, 2, 0, 1)))
    assert first.J != second.J


def test_classify_euler_only(rs):
    a2 = rs("A2")
    rep = classify(BsdhWord(a2, (0,)))
    assert rep.status == "EulerOnly"
    assert not rep.criterion and not rep.semistable_equiv
    assert rep.tangent.mode == "H0_exact"


def test_classify_sl_criterion_true_checks_completions(rs):
    a2 = rs("A2")
    rep = classify(BsdhWord(a2, (0, 1)))
    assert rep.status == "ExactParabolic"
    assert rep.J == (0,)
    assert rep.completions_checked == 1


def test_classify_contains_parabolic_branch(rs):
    b2 = rs("B2")
    hits = 0
    w0 = weyl.longest_element(b2)
    for w in weyl.all_elements(b2):
        if w == w0 or not weyl.alpha0_criterion(b2, w):
            continue
        word = weyl.canonical_word(b2, w)
        rep = classify(BsdhWord(b2, word))
        assert rep.status == "ContainsParabolic"
        assert rep.tangent.mode == "Euler_only"
        hits += 1
    assert hits > 0


def test_classify_w0_any_type_is_exact(rs):
    g2 = rs("G2")
    rep = classify(BsdhWord(g2, (0, 1, 0, 1, 0, 1)))
    assert rep.status == "ExactParabolic"
    assert rep.J == (0,)
    assert rep.parabolic_dim == 2 + 6 + 1


def test_classify_rank_bound_invariant(rs):
    for name in ("A2", "B2"):
        system = rs(name)
        for w in weyl.all_elements(system):
            for word in weyl.reduced_words(system, w):
                rep = classify(BsdhWord(system, word))
                assert rep.rank_bound <= system.rank
                assert rep.semistable_equiv == rep.criterion


def test_classify_json_schema(rs):
    js = classify(BsdhWord(rs("A2"), (0, 1))).to_json()
    assert set(js) == {"type", "word", "status", "J", "parabolic_dim",
                       "criterion", "semistable_equiv", "rank_bound",
                       "completions_checked", "tangent"}
    assert js["J"] == [1]
    json.dumps(js)   # must be serializable


# -- classify_all_w0 --------------------------------------------------------

def test_classify_all_w0_a2(rs):
    classes = classify_all_w0(rs("A2"))
    assert {k: v for k, v in classes.buckets.items()} == {(0,): 1, (1,): 1}


def test_classify_all_w0_a3(rs):
    classes = classify_all_w0(rs("A3"))
    assert set(classes.buckets) == {(0,), (1,), (2,), (0, 2)}
    assert sum(classes.buckets.values()) == 16


def test_classify_all_w0_keys_are_orthogonal(rs):
    b3 = rs("B3")
    classes = classify_all_w0(b3)
    assert sum(classes.buckets.values()) == 42
    for key in classes.buckets:
        for x in key:
            for y in key:
                if x != y:
                    assert b3.cartan[x][y] == 0


def test_classify_all_w0_cap(rs):
    a3 = rs("A3")
    with pytest.raises(weyl.WordCapExceeded):
        classify_all_w0(a3, cap=4)
    classes = classify_all_w0(a3, cap=None)
    assert sum(classes.buckets.values()) == 16


def test_classify_all_w0_e6_within_budget():
    """The sweep over the 51,840 elements of W(E6) takes about 0.2 s on a
    2-CPU box; the total is the w_0 word count of E6."""
    e6 = RootSystem.of("E6")
    start = time.monotonic()
    classes = classify_all_w0(e6, cap=None)
    elapsed = time.monotonic() - start
    assert classes.total_words == sum(classes.buckets.values()) \
        == 1_266_633_313_578_528
    assert len(classes.buckets) == 21
    assert elapsed < 3.0, f"classify_all_w0(E6) took {elapsed:.1f} s"


def test_classify_all_w0_with_no_cap_never_counts(rs, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counted with no cap")

    monkeypatch.setattr(weyl, "_count", refuse)
    assert classify_all_w0(rs("B3"), cap=None).total_words == 42


def test_classify_all_w0_cap_boundary(rs):
    b3 = rs("B3")
    with pytest.raises(weyl.WordCapExceeded):
        classify_all_w0(b3, cap=41)
    assert classify_all_w0(b3, cap=42).total_words == 42
    assert "count" not in b3._caches


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4", "C3",
                                  "C4", "D4", "G2"])
def test_classify_all_w0_matches_enumeration(rs, name):
    system = rs(name)
    classes = classify_all_w0(system)
    assert classes.buckets == w0_classes_by_enumeration(system)
    assert classes.total_words == sum(classes.buckets.values())


def test_classify_all_w0_f4(rs):
    f4 = rs("F4")
    classes = classify_all_w0(f4, cap=None)
    assert classes.total_words == count_reduced_words(
        f4, weyl.longest_element(f4)) == 2_144_892
    assert sum(classes.buckets.values()) == classes.total_words
    assert len(classes.buckets) == 7
    for key in classes.buckets:
        for x in key:
            for y in key:
                if x != y:
                    assert f4.cartan[x][y] == 0


# -- verify suites ----------------------------------------------------------

def test_verify_unknown_suite(rs):
    with pytest.raises(ValueError):
        verify("no-such-suite", rs("A2"))


@pytest.mark.parametrize("suite,name,options", [
    ("operators", "A2", {"cases": 60}),
    ("operators", "B2", {"cases": 60}),
    ("operators", "G2", {"cases": 40}),
    ("euler", "A2", {"weights": 8}),
    ("simply-laced-theorems", "A2", {}),
    ("kernel", "A2", {}),
    ("w0-all-types", "A2", {}),
    ("w0-all-types", "A3", {}),
    ("schubert-adjoint", "A2", {}),
    ("schubert-adjoint", "B2", {}),
])
def test_verify_passing_suites(rs, suite, name, options):
    report = verify(suite, rs(name), **options)
    assert report.ok, report.failures[:3]
    assert report.cases > 0


@pytest.mark.parametrize("suite,option", [
    ("operators", "weights"),
    ("operators", "cap"),
    ("euler", "cases"),
    ("simply-laced-theorems", "weights"),
    ("kernel", "cases"),
    ("kernel", "seed"),
    ("w0-all-types", "sample"),
    ("schubert-adjoint", "seed"),
    ("operators", "allow_large"),
])
def test_verify_rejects_options_the_suite_does_not_take(rs, suite, option):
    with pytest.raises(ValueError) as err:
        verify(suite, rs("A2"), **{option: 1})
    assert repr(suite) in str(err.value)
    assert repr(option) in str(err.value)


def test_verify_kernel_leaves_no_interval_memo():
    a3 = RootSystem.of("A3")
    assert verify("kernel", a3).ok
    assert not [key for key in a3._caches if "interval" in key]


def test_verify_kernel_requires_simply_laced(rs):
    with pytest.raises(ValueError):
        verify("kernel", rs("B2"))


def test_verify_w0_suite_counts_all_words(rs):
    report = verify("w0-all-types", rs("G2"))
    assert report.cases == 2
    for record in report.failures:
        assert {"check", "word"} <= set(record)


def test_verify_w0_suite_multiply_laced_zero_weight(rs):
    # The zero-weight checks are word-dependent outside the simply-laced
    # types: one of the two B2 long-word factorizations picks up a
    # one-dimensional zero-weight obstruction, and both G2 ones do.
    b2 = verify("w0-all-types", rs("B2"))
    assert not b2.ok
    assert {(f["check"], f["word"]) for f in b2.failures} == {
        ("h1-zero-weight-free", "2,1,2,1"),
        ("euler-zero-mult-is-rank", "2,1,2,1"),
    }
    g2 = verify("w0-all-types", rs("G2"))
    bad_words = {f["word"] for f in g2.failures
                 if f["check"] == "h1-zero-weight-free"}
    assert bad_words == {"1,2,1,2,1,2", "2,1,2,1,2,1"}
    # the positivity check itself never fails: obstructions are honest
    # character coefficients, all nonnegative
    assert all(f["check"] != "h1-nonnegative" for f in g2.failures)


def test_verify_report_json_schema(rs):
    report = verify("schubert-adjoint", rs("A2"))
    js = report.to_json()
    assert set(js) == {"suite", "type", "cases", "failures", "elapsed_ms"}
    assert js["suite"] == "schubert-adjoint"
    assert js["type"] == "A2"
    assert js["cases"] == 6
    assert js["failures"] == []
    js2 = report.to_json(timing=False)
    assert js2["elapsed_ms"] == 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "B2",
                                  "B3", "B4", "B5", "C3", "C4", "C5", "D4",
                                  "D5", "D6", "G2", "F4", "E6"])
def test_w0_classes_are_the_independent_sets(rs, name):
    # the J sets that occur for w_0 are exactly the nonempty sets of
    # pairwise orthogonal simple roots
    system = rs(name)
    classes = classify_all_w0(system, cap=None)
    assert set(classes.buckets) == independent_sets(system)


def test_classify_all_w0_e6(rs):
    classes = classify_all_w0(rs("E6"), cap=None)
    assert len(classes.buckets) == 21
    assert classes.total_words == 1_266_633_313_578_528
    assert sum(classes.buckets.values()) == classes.total_words


# -- the completion check of classify --------------------------------------

@pytest.mark.parametrize("name", ["A3", "A4", "D4", "B3", "G2"])
def test_completion_classes_equal_the_oracle(rs, name):
    # from w_0 u, on every prefix u of every w_0 word; in type A, w_0 is
    # not -1, so starting at u w_0 (vector -u(rho)) would not do
    system = rs(name)
    w0 = weyl.longest_element(system)
    for prefix, want in completion_classes_by_enumeration(system).items():
        x = w0.apply(weyl.from_word(system, prefix).x)
        got = _completion_classes(system, x, None)
        assert {_bits(J): c for J, c in got.items()} == want, prefix


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_classify_checks_every_completion(rs, name):
    system = rs(name)
    hits = 0
    for prefix, want in completion_classes_by_enumeration(system).items():
        b = BsdhWord(system, prefix)
        if not b._criterion or b._is_w0:
            continue
        hits += 1
        n = sum(want.values())
        assert classify(b, cap=None).completions_checked == n, prefix
        for cap in (n - 1, n):
            assert classify(b, cap=cap).completions_checked \
                == (n if n <= cap else 0), (prefix, cap)
    assert hits


def test_classify_without_cap_checks_e6_completions_within_budget():
    """The E6 word below has 1,937,618,128 completions; they are checked
    class by class in about 0.01 s on a 2-CPU box."""
    e6 = RootSystem.of("E6")
    b = BsdhWord(e6, weyl.parse_word("2,4,5,6,3,4,5,2,4,3,1", 6))
    start = time.monotonic()
    rep = classify(b, cap=None)
    elapsed = time.monotonic() - start
    assert rep.completions_checked == 1_937_618_128
    assert classify(b).completions_checked == 0   # past the default cap
    assert elapsed < 3.0, f"classify took {elapsed:.1f} s"


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "B4", "F4"])
def test_criterion_true_elements_have_full_support(rs, name):
    # alpha_0 has full support, and w^{-1} permutes the positive roots
    # outside the span of supp w, so no root orthogonal to all of supp w
    # is left for the completion check to catch
    system = rs(name)
    full = tuple(range(system.rank))
    hits = 0
    for w in weyl.all_elements(system):
        if weyl.alpha0_criterion(system, w):
            hits += 1
            word = weyl.canonical_word(system, w)
            assert BsdhWord(system, word).supp == full, word
    assert hits


def test_classify_completion_check_names_the_failing_class(rs):
    # with supp(w) emptied, the letters of J(c) are no longer masked; the
    # one completion of 2,1,3,2,3 in A3 is c = 1, with J(c) = {1}
    b = BsdhWord(rs("A3"), (1, 0, 2, 1, 2))
    assert classify(b).completions_checked == 1
    b.supp = ()
    with pytest.raises(AssertionError) as info:
        classify(b)
    assert str(info.value) == (
        "word 2,1,3,2,3 has J = {2}, but its 1 completions c with "
        "J(c) = {1} give J = {1,2}")
