import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bsdh
from bsdh import cli, weyl
from bsdh.cli import main

import cli_golden


@pytest.fixture()
def run():
    runner = CliRunner()

    def _run(*args):
        return runner.invoke(main, list(args))

    return _run


# -- roots ------------------------------------------------------------------

def test_roots_json(run):
    res = run("roots", "-t", "A2")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["type"] == "A2"
    assert js["rank"] == 2
    assert js["simply_laced"] is True
    assert js["cartan"] == [[2, -1], [-1, 2]]
    assert js["positive_root_count"] == 3
    assert js["highest_root"]["root_coords"] == [1, 1]
    assert js["rho"] == [1, 1]


def test_roots_tsv(run):
    res = run("roots", "-t", "B2", "--format", "tsv")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "c1\tc2\tw1\tw2\theight\tlength"
    assert len(lines) == 1 + 4


def test_roots_bad_type(run):
    res = run("roots", "-t", "Q7")
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.filterwarnings("ignore:C2 is the same root system")
def test_roots_c2_canonicalized(run):
    res = run("roots", "-t", "C2")
    assert res.exit_code == 0
    assert json.loads(res.output)["type"] == "B2"


def test_roots_deterministic(run):
    a = run("roots", "-t", "G2")
    b = run("roots", "-t", "G2")
    assert a.output == b.output


# -- words ------------------------------------------------------------------

def test_words_default_longest(run):
    res = run("words", "-t", "A2")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["count"] == 2
    assert js["words"] == ["1,2,1", "2,1,2"]
    assert js["truncated"] is False


def test_words_limit(run):
    res = run("words", "-t", "A3", "--limit", "3")
    js = json.loads(res.output)
    assert js["count"] == 16
    assert js["emitted"] == 3
    assert js["truncated"] is True
    assert js["words"] == sorted(js["words"])


def test_words_limit_negative_is_an_input_error(run):
    res = run("words", "-t", "A3", "--limit", "-1")
    assert res.exit_code == 2


def test_words_limit_zero(run):
    res = run("words", "-t", "A3", "--limit", "0")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["emitted"] == 0
    assert js["words"] == []
    assert js["truncated"] is True


def _bsdh_limited(*args, address_space, timeout):
    """Run python -m bsdh in a subprocess under an address-space limit in
    bytes; a run past the timeout in seconds raises TimeoutExpired."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(bsdh.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "bsdh", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=cap_address_space)


def test_words_limit_streams_in_bounded_memory():
    # D5's w_0 has over 13 million reduced words; the first three must not
    # need them all in memory
    proc = _bsdh_limited("words", "-t", "D5", "--limit", "3", "--allow-large",
                         address_space=2 << 30, timeout=120)
    assert proc.returncode == 0, proc.stderr
    js = json.loads(proc.stdout)
    assert js["emitted"] == 3
    assert js["words"] == sorted(js["words"])


@pytest.mark.parametrize("args", [("words", "-t", "E8", "--limit", "5"),
                                  ("words", "-t", "E7", "--limit", "1"),
                                  ("classify-w0", "-t", "E8")])
def test_cap_refuses_huge_counts_quickly(args):
    # E7 and E8 have about 1.2e30 and far more w_0 words; the cap check
    # must refuse them without counting the whole group
    proc = _bsdh_limited(*args, address_space=1 << 30, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "more than 1000000 reduced words" in proc.stderr


def test_words_tsv_allow_large_needs_no_count():
    proc = _bsdh_limited("words", "-t", "E7", "--limit", "1", "--allow-large",
                         "--format", "tsv", address_space=1 << 30, timeout=10)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert len(line.split(",")) == 63


def test_words_counts_each_element_once(run, monkeypatch):
    # a saturating count within the cap is exact, so json reuses it
    calls = []
    real_count = weyl._count

    def counting(rs, x, cap=None):
        calls.append(cap)
        return real_count(rs, x, cap)

    monkeypatch.setattr(weyl, "_count", counting)
    for args, expected in [((), [weyl.DEFAULT_WORD_CAP]),
                           (("--allow-large",), [None]),
                           (("--format", "tsv"), [weyl.DEFAULT_WORD_CAP]),
                           (("--format", "tsv", "--allow-large"), [])]:
        calls.clear()
        res = run("words", "-t", "A3", *args)
        assert res.exit_code == 0
        assert calls == expected, args
        if "tsv" not in args:
            assert json.loads(res.output)["count"] == 16


def test_classify_w0_out_of_memory_exits_two():
    # W(E8) has 696 million elements, so under 96 MB the sweep runs out
    # of memory within seconds; the CLI must exit 2 and name the run
    proc = _bsdh_limited("classify-w0", "-t", "E8", "--allow-large",
                         address_space=96 << 20, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "out of memory" in proc.stderr
    assert "classify-w0 --type E8 --allow-large" in proc.stderr


def test_out_of_memory_message_gives_the_command_line(run, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.autgroup, "verify", exhausted)
    res = run("verify", "--suite", "kernel", "-t", "A3", "--seed", "5",
              "--all-words")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        f"error: out of memory (bsdh {bsdh.__version__}): main verify "
        "--suite kernel --type A3 --seed 5 --all-words\n")


def test_words_explicit_element(run):
    res = run("words", "-t", "A2", "--word", "1,2")
    js = json.loads(res.output)
    assert js["count"] == 1
    assert js["words"] == ["1,2"]


def test_words_cap(run):
    res = run("words", "-t", "A3", "--cap", "5")
    assert res.exit_code == 2
    assert "error:" in res.stderr
    ok = run("words", "-t", "A3", "--cap", "5", "--allow-large")
    assert ok.exit_code == 0
    assert json.loads(ok.output)["count"] == 16


def test_words_tsv(run):
    res = run("words", "-t", "A2", "--format", "tsv")
    assert res.output == "1,2,1\n2,1,2\n"


def test_words_tsv_has_the_json_words(run):
    words = json.loads(run("words", "-t", "B3").output)["words"]
    res = run("words", "-t", "B3", "--format", "tsv")
    assert res.output == "".join(w + "\n" for w in words)


def test_words_tsv_is_written_as_it_streams(run, monkeypatch, tmp_path):
    # a stream that fails after three words must already have written them
    class StreamBroke(Exception):
        pass

    real_stream = weyl.reduced_words

    def failing_stream(rs, w, **_):
        yield from real_stream(rs, w, limit=3)
        raise StreamBroke

    monkeypatch.setattr(cli.weyl, "reduced_words", failing_stream)
    expected = "1,2,1,3,2,1\n1,2,3,1,2,1\n1,2,3,2,1,2\n"
    res = run("words", "-t", "A3", "--format", "tsv")
    assert isinstance(res.exception, StreamBroke)
    assert res.stdout == expected
    out = tmp_path / "words.tsv"
    res = run("words", "-t", "A3", "--format", "tsv", "-o", str(out))
    assert isinstance(res.exception, StreamBroke)
    assert out.read_text() == expected


# -- aut --------------------------------------------------------------------

def test_aut_exact_parabolic(run):
    res = run("aut", "-t", "A3", "-w", "1,2,1,3,2,1")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["status"] == "ExactParabolic"
    assert js["J"] == [1]
    assert js["parabolic_dim"] == 10


def test_aut_rejects_unreduced_word(run):
    res = run("aut", "-t", "A3", "-w", "1,2,1,1")
    assert res.exit_code == 2
    assert "shortest failing prefix: 1,2,1,1" in res.stderr


def test_aut_rejects_out_of_range_letter(run):
    res = run("aut", "-t", "A2", "-w", "1,3")
    assert res.exit_code == 2
    assert "error:" in res.stderr


# -- tangent-char -----------------------------------------------------------

def test_tangent_char_simply_laced(run):
    res = run("tangent-char", "-t", "A2", "-w", "1,2")
    js = json.loads(res.output)
    assert js["mode"] == "H0_exact"
    assert js["dim"] == 6
    assert js["J"] == [1]
    assert js["supp"] == [1, 2]
    assert js["d"] == 2


def test_tangent_char_multiply_laced_auto_euler(run):
    res = run("tangent-char", "-t", "B2", "-w", "1,2,1,2")
    js = json.loads(res.output)
    assert js["mode"] == "Euler_only"


def test_tangent_char_euler_flag(run):
    res = run("tangent-char", "-t", "A2", "-w", "1,2", "--euler-only")
    js = json.loads(res.output)
    assert js["mode"] == "Euler_only"
    assert js["dim"] == 6


def test_tangent_char_tsv(run):
    res = run("tangent-char", "-t", "A1", "-w", "1", "--format", "tsv")
    lines = res.output.splitlines()
    assert lines[0] == "w1\tcoeff"
    assert lines[1:] == ["-2\t1", "0\t1", "2\t1"]


# -- kernel -----------------------------------------------------------------

def test_kernel_match(run):
    res = run("kernel", "-t", "A2", "-w", "1", "-c", "1,2,1")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["equal"] is True
    assert js["predicted"] == js["observed"]


def test_kernel_empty_word(run):
    res = run("kernel", "-t", "A2", "-w", "", "-c", "2,1,2")
    assert res.exit_code == 0
    assert json.loads(res.output)["equal"] is True


def test_kernel_requires_simply_laced(run):
    res = run("kernel", "-t", "B2", "-w", "1", "-c", "1,2,1,2")
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_kernel_completion_must_extend(run):
    res = run("kernel", "-t", "A2", "-w", "1", "-c", "2,1,2")
    assert res.exit_code == 2
    assert "error:" in res.stderr


# -- ranks past the packed weights ------------------------------------------

@pytest.mark.parametrize("rank", [65, 70])
@pytest.mark.parametrize("args", [("aut", "-w", "1"),
                                  ("tangent-char", "-w", "1"),
                                  ("kernel", "-w", "", "-c", "1")])
def test_character_commands_refuse_ranks_past_the_pack(run, rank, args):
    res = run(args[0], "-t", f"A{rank}", *args[1:])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (f"error: A{rank} has rank {rank}; characters are "
                          "computed only up to rank 64\n")


@pytest.mark.parametrize("rank", [65, 70])
def test_word_commands_run_past_the_pack_rank(run, rank):
    assert json.loads(run("roots", "-t", f"A{rank}").stdout)["rank"] == rank
    res = run("words", "-t", f"A{rank}", "-w", "1,3")
    assert json.loads(res.stdout)["words"] == ["1,3", "3,1"]
    res = run("classify-w0", "-t", f"A{rank}", "--cap", "1000")
    assert res.exit_code == 2
    assert res.stderr == f"error: {weyl.WordCapExceeded(1000)}\n"


# -- classify-w0 ------------------------------------------------------------

def test_classify_w0_a3(run):
    res = run("classify-w0", "-t", "A3")
    js = json.loads(res.output)
    assert js["total_words"] == 16
    got = {tuple(c["J"]): c["count"] for c in js["classes"]}
    assert set(got) == {(1,), (2,), (3,), (1, 3)}
    assert sum(got.values()) == 16


def test_classify_w0_cap(run):
    res = run("classify-w0", "-t", "B3", "--cap", "10")
    assert res.exit_code == 2
    assert "error:" in res.stderr


# -- verify -----------------------------------------------------------------

def test_verify_clean_suite_exits_zero(run):
    res = run("verify", "--suite", "operators", "-t", "A2", "--cases", "40")
    assert res.exit_code == 0
    js = json.loads(res.output)
    assert js["failures"] == []
    assert js["elapsed_ms"] == 0


def test_verify_failing_suite_exits_one(run):
    res = run("verify", "--suite", "w0-all-types", "-t", "G2")
    assert res.exit_code == 1
    js = json.loads(res.stdout)
    assert js["failures"] != []
    assert all("check" in f for f in js["failures"])


def test_verify_allow_large_lifts_the_cap(run):
    capped = run("verify", "--suite", "w0-all-types", "-t", "A3", "--cap", "4")
    assert capped.exit_code == 2
    assert "error:" in capped.stderr
    lifted = run("verify", "--suite", "w0-all-types", "-t", "A3", "--cap", "4",
                 "--allow-large")
    assert lifted.exit_code == 0
    assert json.loads(lifted.output)["cases"] == 16


def test_verify_failure_names_version_and_command_on_stderr(run):
    golden = json.loads(cli_golden.DATA.read_text())["texts"]
    key = "verify --suite w0-all-types -t B2"
    res = run(*key.split())
    assert res.exit_code == 1
    assert res.stdout == golden[key]
    assert res.stderr.startswith(f"bsdh {bsdh.__version__}: ")
    assert "verify --suite w0-all-types --type B2" in res.stderr
    assert res.stderr.count("\n") == 1


def test_verify_failure_command_line_reruns(run):
    res = run("verify", "--suite", "w0-all-types", "-t", "B2")
    assert res.exit_code == 1
    line = res.stderr.split(": ", 1)[1]
    prog, *args = shlex.split(line)
    assert prog == "main"
    again = run(*args)
    assert again.exit_code == 1, again.stderr
    assert again.stdout == res.stdout
    assert again.stderr == res.stderr


def test_verify_success_writes_nothing_on_stderr(run):
    res = run("verify", "--suite", "w0-all-types", "-t", "A2")
    assert res.exit_code == 0
    assert res.stderr == ""


@pytest.mark.parametrize("args,option", [
    (("--suite", "kernel", "-t", "A3", "--cases", "5"), "cases"),
    (("--suite", "operators", "-t", "A2", "--weights", "3"), "weights"),
    (("--suite", "schubert-adjoint", "-t", "A2", "--seed", "1"), "seed"),
    (("--suite", "euler", "-t", "A2", "--all-words"), "w0_only"),
    (("--suite", "operators", "-t", "A2", "--allow-large"), "cap"),
])
def test_verify_rejects_options_the_suite_ignores(run, args, option):
    res = run("verify", *args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"suite {args[1]!r} takes no option {option!r}" in res.stderr


def test_verify_passes_only_the_options_given(run, monkeypatch):
    seen = []

    def record(suite, rs, **options):
        seen.append(options)
        return cli.autgroup.VerifyReport(suite=suite, rs=rs, cases=0)

    monkeypatch.setattr(cli.autgroup, "verify", record)
    for args in [(), ("--seed", "0"), ("--cap", "7"), ("--allow-large",),
                 ("--cases", "3", "--w0-only")]:
        assert run("verify", "--suite", "kernel", "-t", "A2",
                   *args).exit_code == 0
    assert seen == [{}, {"seed": 0}, {"cap": 7}, {"cap": None},
                    {"cases": 3, "w0_only": True}]


@pytest.mark.parametrize("flag,value", [("--cases", "-5"), ("--weights", "-3"),
                                        ("--sample", "-1"), ("--cap", "-1")])
def test_verify_negative_counts_are_input_errors(run, flag, value):
    res = run("verify", "--suite", "operators", "-t", "A2", flag, value)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "not in the range" in res.stderr


@pytest.mark.parametrize("args", [("words", "-t", "A2"),
                                  ("aut", "-t", "A2", "-w", "1"),
                                  ("classify-w0", "-t", "A2")])
def test_negative_cap_is_an_input_error(run, args):
    res = run(*args, "--cap", "-1")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "not in the range" in res.stderr


def test_verify_unknown_suite_rejected_by_click(run):
    res = run("verify", "--suite", "bogus", "-t", "A2")
    assert res.exit_code == 2


def test_verify_timing_flag(run):
    quiet = run("verify", "--suite", "schubert-adjoint", "-t", "A2")
    timed = run("verify", "--suite", "schubert-adjoint", "-t", "A2",
                "--timing")
    assert json.loads(quiet.output)["elapsed_ms"] == 0
    assert json.loads(timed.output)["elapsed_ms"] >= 0


def test_verify_deterministic_output(run):
    a = run("verify", "--suite", "euler", "-t", "B2", "--weights", "6")
    b = run("verify", "--suite", "euler", "-t", "B2", "--weights", "6")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


# -- output files -----------------------------------------------------------

def test_output_file(run, tmp_path):
    target = tmp_path / "roots.json"
    res = run("roots", "-t", "A2", "-o", str(target))
    assert res.exit_code == 0
    assert res.output == ""
    assert json.loads(target.read_text())["type"] == "A2"


def test_missing_required_option(run):
    res = run("aut", "-t", "A2")
    assert res.exit_code == 2
