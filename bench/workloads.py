"""The four benchmark workloads: inputs, items and correctness checks.

Every workload is a closed loop with one client: an item starts only when
the previous one has finished.  ``setup`` makes the inputs from the seed
(the library only ever sees the generated inputs); ``items(mode)`` yields
one pass of work as ``Item`` records.  An item's ``run`` is the timed
call into the library; its ``check`` runs outside the timed region with
tracing paused, and returns an error message or None.

The library is reached through module attributes (``lib.autgroup.classify``
and so on) at call time, so that the tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Tail percentile candidates.  Each workload reports the highest one that
# leaves at least ten items beyond it within a single pass, so the
# percentile is fixed by the workload definition and does not move with
# the run length or with the speed of the program under test.
TAIL_LADDER = (50, 90, 95, 98, 99, 99.5, 99.9, 99.95, 99.99)


def tail_percentile(pass_items: int) -> float:
    return max(p for p in TAIL_LADDER
               if round(pass_items * (100 - p) / 100, 9) >= 10)


def percentile(values, pct: float) -> tuple:
    """Nearest-rank percentile of values, and how many values rank beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BSDH_CACHE_DIR", None)
    return env


@dataclass
class Item:
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    weight: int = 1      # items this call completes (words, for w0-classes)
    label: str = ""


class Workload:
    name = ""
    params: dict = {}

    def setup(self, lib, seed: int) -> None:
        raise NotImplementedError

    def items(self, mode: str, tracer=None, pass_index: int = 0) -> list:
        """One pass of work.  Only fuzz-ops varies it with pass_index."""
        raise NotImplementedError

    @classmethod
    def latency(cls, samples) -> dict:
        """item_p50_ms and item_tail_ms of one pass from its (seconds, weight)
        samples, with a note on what each figure is."""
        pct = tail_percentile(len(samples))
        p50, _ = percentile([s for s, _ in samples], 50)
        tail, beyond = percentile([s for s, _ in samples], pct)
        return {"item_p50_ms": p50 * 1e3, "item_tail_ms": tail * 1e3,
                "p50_is": "median item",
                "tail_is": f"p{pct:g} item, {beyond} items beyond it per pass"}


def _oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles
    return oracles


# -- w0-tangent -----------------------------------------------------------


class W0Tangent(Workload):
    """classify() on every D4 longest-element word, plus classify() and
    h1_w0_char() on a seeded sample of B4 longest-element words."""

    name = "w0-tangent"
    params = {"D4_words": "all 2316", "B4_sample": 200, "oracle_sample": 6}

    def setup(self, lib, seed):
        self.lib = lib
        rng = Random(seed)
        weyl = lib.weyl
        self.d4 = lib.roots.RootSystem.of("D4")
        self.b4 = lib.roots.RootSystem.of("B4")
        d4_words = list(weyl.reduced_words(self.d4, weyl.longest_element(self.d4)))
        b4_words = list(weyl.reduced_words(self.b4, weyl.longest_element(self.b4)))
        work = [(self.d4, w) for w in d4_words]
        work += [(self.b4, w) for w in rng.sample(b4_words, self.params["B4_sample"])]
        rng.shuffle(work)
        self.work = work
        self.oracle_at = set(rng.sample(range(len(work)), self.params["oracle_sample"]))
        self.p_J = {}

    def _run(self, rs, word):
        lib = self.lib
        b = lib.tangent.BsdhWord(rs, word)
        rep = lib.autgroup.classify(b)
        h1 = None if rs.cartan_type.simply_laced() else lib.tangent.h1_w0_char(b)
        return rep, h1

    def _check(self, rs, word, out, oracle: bool):
        rep, h1 = out
        if rep.status != "ExactParabolic":
            return f"status {rep.status}"
        if rs.cartan_type.simply_laced():
            key = (id(rs), rep.J)
            if key not in self.p_J:
                self.p_J[key] = self.lib.characters.reference_chars(rs, rep.J).char_p_J
            if rep.tangent.total != self.p_J[key]:
                return "tangent character differs from char p_J"
            if rep.tangent.zero_mult != rs.rank:
                return f"zero multiplicity {rep.tangent.zero_mult} != rank"
        elif not h1.nonnegative():
            # only non-negativity: the zero-weight clause is unsettled
            return "h1_w0_char has a negative coefficient"
        if oracle:
            step = _oracles().demazure_step_rational
            Character = self.lib.characters.Character
            total = Character()
            for j in range(len(word)):
                chi = Character.monomial(rs.simple_roots[word[j]])
                for i in reversed(word[: j + 1]):
                    chi = step(rs, i, chi)
                total = total + chi
            if total != rep.tangent.total:
                return "tangent character differs from the rational oracle"
        return None

    def items(self, mode, tracer=None, pass_index=0):
        return [Item(run=lambda rs=rs, w=w: self._run(rs, w),
                     check=lambda out, rs=rs, w=w, k=k:
                         self._check(rs, w, out, k in self.oracle_at),
                     label=f"{rs.cartan_type}:{w}")
                for k, (rs, w) in enumerate(self.work)]


# -- fuzz-ops -------------------------------------------------------------


class FuzzOps(Workload):
    """verify("operators") one fuzz case at a time on seeded characters.

    The cost of a case depends strongly on its random character, so each
    measured pass draws fresh cases (pass k from the seed and k): a run
    then averages over thousands of cases, not over one draw repeated.
    Traced passes all use the cases of pass 0, so their counts repeat.
    """

    name = "fuzz-ops"
    params = {"cases": {"G2": 150, "B2": 300, "A3": 300}, "oracle_every": 25}

    def setup(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.systems = {t: lib.roots.RootSystem.of(t) for t in self.params["cases"]}
        self.work = self._draw(0)

    def _draw(self, pass_index):
        rng = Random(f"fuzz-ops/{self.seed}/{pass_index}")
        work = [(t, rng.getrandbits(48))
                for t, n in self.params["cases"].items() for _ in range(n)]
        rng.shuffle(work)
        return work

    def _check(self, rs, case_seed, report, oracle: bool):
        n = rs.rank
        if not report.ok:
            return f"{len(report.failures)} operator-suite failures"
        if report.cases != n + n * (n - 1) // 2:
            return f"{report.cases} checks, expected {n + n * (n - 1) // 2}"
        if oracle:
            # the case's own character: the draws of autgroup._random_character
            rng = Random(case_seed)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randint(-5, 5) for _ in range(n))
                terms[w] = terms.get(w, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
            chi = self.lib.characters.Character(terms)
            rational = _oracles().demazure_step_rational
            for i in range(n):
                if self.lib.characters.demazure_step(rs, i, chi) != rational(rs, i, chi):
                    return f"demazure_step differs from the rational oracle at i={i}"
        return None

    def items(self, mode, tracer=None, pass_index=0):
        work = self.work if mode == "trace" or pass_index == 0 else self._draw(pass_index)
        every = self.params["oracle_every"]
        out = []
        for k, (t, s) in enumerate(work):
            rs = self.systems[t]
            out.append(Item(
                run=lambda rs=rs, s=s: self.lib.autgroup.verify(
                    "operators", rs, cases=1, seed=s),
                check=lambda rep, rs=rs, s=s, k=k: self._check(rs, s, rep, k % every == 0),
                label=f"{t}:{s}"))
        return out


# -- w0-classes -----------------------------------------------------------


class W0Classes(Workload):
    """classify_all_w0 on A5 and B4, each call on a freshly built root
    system, so no word list or count memo survives from an earlier call."""

    name = "w0-classes"
    params = {"types": ["A5", "B4"]}

    def setup(self, lib, seed):
        self.lib = lib
        with open(Path(__file__).with_name("w0_classes_expected.json")) as fh:
            self.expected = json.load(fh)
        for t in self.params["types"]:
            lib.roots.RootSystem.of(t)
        self.oracle_counts = {}

    def _run(self, t):
        lib = self.lib
        return lib.autgroup.classify_all_w0(lib.roots.RootSystem.of(t))

    def _check(self, t, result):
        if sum(result.buckets.values()) != result.total_words:
            return "buckets do not sum to total_words"
        if t not in self.oracle_counts:
            rs = self.lib.roots.RootSystem.of(t)
            self.oracle_counts[t] = _oracles().count_reduced_words(
                rs, self.lib.weyl.longest_element(rs))
        if result.total_words != self.oracle_counts[t]:
            return f"total_words {result.total_words} != oracle {self.oracle_counts[t]}"
        if result.to_json() != self.expected[t]:
            return "bucket table differs from the recorded one"
        return None

    @classmethod
    def latency(cls, samples):
        # A pass is one call per type, so there is no latency distribution
        # to take percentiles of: latency is reported per type, as the
        # call's time per word.  A5 holds 92 % of the words.
        a5, b4 = (s / w for s, w in samples)
        return {"item_p50_ms": a5 * 1e3, "item_tail_ms": b4 * 1e3,
                "p50_is": "A5 call time per word", "tail_is": "B4 call time per word"}

    def items(self, mode, tracer=None, pass_index=0):
        return [Item(run=lambda t=t: self._run(t),
                     check=lambda res, t=t: self._check(t, res),
                     weight=self.expected[t]["total_words"], label=t)
                for t in self.params["types"]]


# -- cli-queries ----------------------------------------------------------


class CliQueries(Workload):
    """A seeded, fixed-length sequence of ``python -m bsdh`` queries.

    In measure mode each query is its own interpreter; in trace mode the
    same queries are replayed in-process through the click entry point.
    """

    name = "cli-queries"
    # how many queries of each kind one pass holds (100 in all)
    params = {"mix": {"roots": 10, "aut-w0": 10, "aut-prefix": 10,
                      "tangent-D4": 10, "tangent-B3": 10, "kernel": 20,
                      "words-B4": 8, "words-A5": 4, "classify-w0": 8,
                      "verify": 10}}

    def setup(self, lib, seed):
        self.lib = lib
        rng = Random(seed)
        weyl = lib.weyl

        def w0_words(t):
            rs = lib.roots.RootSystem.of(t)
            return list(weyl.reduced_words(rs, weyl.longest_element(rs)))

        d4, b3 = w0_words("D4"), w0_words("B3")
        fmt = weyl.format_word
        make = {
            "roots": lambda: ["roots", "-t", "E8"],
            "aut-w0": lambda: ["aut", "-t", "D4", "-w", fmt(rng.choice(d4))],
            "aut-prefix": lambda: ["aut", "-t", "D4", "-w", fmt(rng.choice(d4)[:8])],
            "tangent-D4": lambda: ["tangent-char", "-t", "D4", "-w", fmt(rng.choice(d4))],
            "tangent-B3": lambda: ["tangent-char", "-t", "B3", "-w", fmt(rng.choice(b3))],
            "words-B4": lambda: ["words", "-t", "B4", "--limit", "5"],
            "words-A5": lambda: ["words", "-t", "A5", "--limit", "5"],
            "classify-w0": lambda: ["classify-w0", "-t", "D4"],
            "verify": lambda: ["verify", "--suite", "operators", "-t", "B2",
                               "--cases", "20", "--seed", str(rng.randrange(10**6))],
        }

        def kernel():
            j = rng.choice(d4)
            return ["kernel", "-t", "D4", "-w", fmt(j[: rng.randint(2, 10)]),
                    "-c", fmt(j)]
        make["kernel"] = kernel
        queries = [make[kind]() for kind, n in self.params["mix"].items()
                   for _ in range(n)]
        rng.shuffle(queries)
        self.queries = queries
        self.expected = {}
        self.env = child_env()

    # -- running a query -----------------------------------------------

    def _subprocess(self, args):
        proc = subprocess.run([sys.executable, "-m", "bsdh", *args],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _in_process(self, args, tracer):
        from bsdh.cli import main
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                tracer.span("cli.main", main.main, args=list(args),
                            standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        return code, buf.getvalue()

    # -- expected output, computed in-process ----------------------------

    def _expected(self, args) -> str:
        key = tuple(args)
        if key not in self.expected:
            self.expected[key] = json.dumps(self._payload(args), indent=2,
                                            sort_keys=True) + "\n"
        return self.expected[key]

    def _payload(self, args) -> dict:
        lib = self.lib
        weyl, tangent, autgroup = lib.weyl, lib.tangent, lib.autgroup
        opts = dict(zip(args[1::2], args[2::2]))
        rs = lib.roots.RootSystem.of(opts["-t"])
        word = weyl.parse_word(opts.get("-w", ""), rs.rank)
        cmd = args[0]
        if cmd == "roots":
            def root_json(r):
                return {"root_coords": list(r.root_coords), "weight": list(r.weight),
                        "height": r.height, "length": rs.root_length(r)}
            return {"type": str(rs.cartan_type), "rank": rs.rank,
                    "simply_laced": rs.cartan_type.simply_laced(),
                    "cartan": [list(row) for row in rs.cartan],
                    "simple_root_lengths": list(rs.simple_root_lengths),
                    "positive_root_count": len(rs.positive_roots),
                    "positive_roots": [root_json(r) for r in rs.positive_roots],
                    "highest_root": root_json(rs.highest_root),
                    "rho": list(rs.rho)}
        if cmd == "words":
            w0 = weyl.longest_element(rs)
            limit = int(opts["--limit"])
            total = weyl.count_words(rs, w0)
            stream = list(weyl.reduced_words(rs, w0, limit=limit))
            return {"type": str(rs.cartan_type),
                    "element": weyl.format_word(weyl.canonical_word(rs, w0)),
                    "count": total, "emitted": len(stream),
                    "truncated": len(stream) < total,
                    "words": [weyl.format_word(w) for w in stream]}
        if cmd == "aut":
            return autgroup.classify(tangent.BsdhWord(rs, word)).to_json()
        if cmd == "tangent-char":
            b = tangent.BsdhWord(rs, word)
            if rs.cartan_type.simply_laced():
                return tangent.tangent_h0_char(b).to_json()
            return tangent.tangent_euler_char(b).to_json()
        if cmd == "kernel":
            completion = weyl.parse_word(opts["-c"], rs.rank)
            return tangent.kernel_char(tangent.BsdhWord(rs, word), completion).to_json()
        if cmd == "classify-w0":
            return autgroup.classify_all_w0(rs).to_json()
        if cmd == "verify":
            return autgroup.verify(opts["--suite"], rs, cases=int(opts["--cases"]),
                                   seed=int(opts["--seed"])).to_json(timing=False)
        raise ValueError(f"no expected output for {args}")

    def _check(self, args, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if stdout != self._expected(args):
            return "stdout differs from the in-process report"
        return None

    def items(self, mode, tracer=None, pass_index=0):
        if mode == "trace":
            run = lambda args: self._in_process(args, tracer)  # noqa: E731
        else:
            run = self._subprocess
        return [Item(run=lambda a=a: run(a), check=lambda out, a=a: self._check(a, out),
                     label=" ".join(a))
                for a in self.queries]


WORKLOADS = {w.name: w for w in (W0Tangent, FuzzOps, W0Classes, CliQueries)}
