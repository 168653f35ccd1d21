"""
Golden CLI transcript: a fixed list of in-process ``bsdh`` commands and,
for each, its exit code and the sha256 of its stdout, kept in
``tests/data/cli_golden.json`` together with the full stdout of a few
small commands, so that a change shows up as a readable diff.

test_cli_golden.py replays the list against the file.  Rewrite the file
only when a change of output is intended and documented:

    PYTHONPATH=src python tests/cli_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shlex
from pathlib import Path

from click.testing import CliRunner

from bsdh import weyl
from bsdh.cli import main
from bsdh.roots import RootSystem

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4")

# commands whose whole stdout is stored, not only its hash
TEXT_KEPT = {f"classify-w0 -t {t}" for t in TYPES} | {
    f"words -t {t} --format tsv" for t in ("A1", "A2", "A3", "B2", "G2")} | {
    f"roots -t {t} --format tsv" for t in ("A2", "B2", "G2")} | {
    "verify --suite w0-all-types -t B2",
    "verify --suite schubert-adjoint -t A2",
    "verify --suite operators -t G2 --cases 10",
}

ERRORS = (
    ("roots", "-t", "Q7"),
    ("aut", "-t", "A2", "-w", "1,1"),
    ("classify-w0", "-t", "B3", "--cap", "5"),
)

# larger systems, run once each: the root closure of the exceptional
# types and the word sweep past the default cap
LARGE = (
    ("roots", "-t", "E8"),
    ("roots", "-t", "F4"),
    ("classify-w0", "-t", "E6", "--allow-large"),
    ("words", "-t", "E6", "--limit", "3", "--allow-large"),
)


def commands() -> list:
    """Every command of the transcript, as argument tuples, in a fixed
    order and each once.  The words come from the lexicographic word
    stream of w_0."""
    out = []
    for t in TYPES:
        rs = RootSystem.of(t)
        simply = rs.cartan_type.simply_laced()
        w0_words = list(weyl.reduced_words(rs, weyl.longest_element(rs)))
        first, last = w0_words[0], w0_words[-1]
        N = len(first)
        fmt = weyl.format_word
        out += [("roots", "-t", t), ("roots", "-t", t, "--format", "tsv"),
                ("words", "-t", t), ("words", "-t", t, "--format", "tsv"),
                ("words", "-t", t, "-w", fmt(first[:3]), "--limit", "2"),
                ("classify-w0", "-t", t)]
        out += [("aut", "-t", t, "-w", fmt(first[:k])) for k in range(1, N + 1)]
        out.append(("aut", "-t", t, "-w", fmt(last)))
        for word in (first[:(N + 1) // 2], first, last):
            out += [("tangent-char", "-t", t, "-w", fmt(word)),
                    ("tangent-char", "-t", t, "-w", fmt(word),
                     "--format", "tsv")]
        if simply:
            out.append(("tangent-char", "-t", t, "-w", fmt(first),
                        "--euler-only"))
            out += [("kernel", "-t", t, "-w", fmt(first[:k]), "-c", fmt(first))
                    for k in (0, N // 2, N)]
            out.append(("kernel", "-t", t, "-w", fmt(last[:1]),
                        "-c", fmt(last)))
        out += [("verify", "--suite", "operators", "-t", t, "--cases", "10"),
                ("verify", "--suite", "schubert-adjoint", "-t", t),
                ("verify", "--suite", "w0-all-types", "-t", t)]
        if rs.rank <= 3:
            out.append(("verify", "--suite", "euler", "-t", t,
                        "--weights", "2"))
    return list(dict.fromkeys(out + list(ERRORS) + list(LARGE)))


def run(args: tuple) -> tuple:
    """(exit code, stdout) of one in-process invocation."""
    res = CliRunner().invoke(main, list(args))
    return res.exit_code, res.stdout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    outcomes, texts = {}, {}
    for args in commands():
        key = shlex.join(args)
        code, stdout = run(args)
        outcomes[key] = [code, digest(stdout)]
        if key in TEXT_KEPT:
            texts[key] = stdout
    missing = TEXT_KEPT - texts.keys()
    if missing:
        raise SystemExit(f"TEXT_KEPT names commands not run: {sorted(missing)}")
    return {"outcomes": outcomes, "texts": texts}


def dump(golden: dict) -> str:
    """JSON with one command per line, so a changed output is a one-line
    diff."""
    sections = []
    for name in sorted(golden):
        rows = [f"  {json.dumps(k)}: {json.dumps(v)}"
                for k, v in sorted(golden[name].items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(dump(record()))
