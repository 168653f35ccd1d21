"""
Command-line front end.

Subcommands::

    roots        print the root-system data for a type
    words        enumerate reduced words of an element (default: w_0)
    aut          classify Aut^0(Z(w, i)) for a reduced word
    tangent-char tangent-bundle character report for a reduced word
    kernel       predicted vs observed restriction-kernel characters
    classify-w0  count the reduced words of w_0 in each J-set class
    verify       run one of the named invariant suites

Conventions: simple-root indices are 1-based on the command line (words
look like ``--word 1,2,1,3,2,1``); all output is deterministic (sorted
keys, fixed orderings, no timestamps unless ``--timing``), so identical
invocations produce byte-identical bytes.  Exit codes: 0 success, 1
verification failures (verify names the version and the command line on
stderr), 2 input errors (a non-reduced word reports its shortest failing
prefix) and runs that exhaust memory (the message gives the command line
to rerun).
"""

from __future__ import annotations

import json
import shlex
import sys
from contextlib import nullcontext
from typing import Optional

import click
from click.core import ParameterSource

from . import __version__, autgroup, tangent, weyl
from .characters import Character
from .roots import RootSystem

EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


def _root_system(type_name: str) -> RootSystem:
    try:
        return RootSystem.of(type_name)
    except ValueError as exc:
        _fail(str(exc))


def _parse_word(rs: RootSystem, text: str) -> tuple:
    try:
        return weyl.parse_word(text, rs.rank)
    except ValueError as exc:
        _fail(str(exc))


def _reduced_word(rs: RootSystem, text: str) -> tuple:
    word = _parse_word(rs, text)
    bad = weyl.unreduced_prefix(rs, word)
    if bad is not None:
        _fail(f"word {weyl.format_word(word)} is not reduced; "
              f"shortest failing prefix: {weyl.format_word(bad)}")
    return word


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_json(payload: dict, output: Optional[str]) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _char_tsv(char: Character, rank: int) -> str:
    head = "\t".join(f"w{i + 1}" for i in range(rank)) + "\tcoeff\n"
    rows = ["\t".join(str(c) for c in w) + f"\t{coeff}\n"
            for w, coeff in char.sorted_items()]
    return head + "".join(rows)


format_option = click.option("--format", "fmt", default="json",
                             type=click.Choice(["json", "tsv"]),
                             help="Output format (default json).")
output_option = click.option("--output", "-o", default=None,
                             type=click.Path(dir_okay=False, writable=True),
                             help="Write to a file instead of stdout.")
type_option = click.option("--type", "-t", "type_name", required=True,
                           help="Cartan type, e.g. A3, B2, G2, D4.")


def _command_line(ctx: click.Context) -> str:
    """The invocation, rebuilt from the options it was given: an option
    left at its default is left out, so the line reruns as it was run."""
    args = []
    for param in ctx.command.params:
        value = ctx.params.get(param.name)
        if (value is None
                or ctx.get_parameter_source(param.name) == ParameterSource.DEFAULT):
            continue
        if getattr(param, "is_flag", False):
            args += (param.opts if value else param.secondary_opts)[:1]
        else:
            args += [param.opts[0], str(value)]
    return f"{ctx.command_path} {shlex.join(args)}"


class _Command(click.Command):
    """A subcommand that exits 2 with its command line, not a traceback,
    when memory runs out."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except MemoryError:
            pass   # leaving the handler frees what the run was holding
        _fail(f"out of memory (bsdh {__version__}): {_command_line(ctx)}")


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Character-level BSDH-variety computations."""


@main.command("roots")
@type_option
@format_option
@output_option
def cmd_roots(type_name: str, fmt: str, output: Optional[str]) -> None:
    """Cartan matrix and positive roots of a type."""
    rs = _root_system(type_name)

    def root_json(r):
        return {"root_coords": list(r.root_coords),
                "weight": list(r.weight),
                "height": r.height,
                "length": rs.root_length(r)}

    if fmt == "tsv":
        n = rs.rank
        head = ("\t".join(f"c{i + 1}" for i in range(n)) + "\t"
                + "\t".join(f"w{i + 1}" for i in range(n))
                + "\theight\tlength\n")
        rows = []
        for r in rs.positive_roots:
            rows.append("\t".join(str(c) for c in r.root_coords) + "\t"
                        + "\t".join(str(c) for c in r.weight)
                        + f"\t{r.height}\t{rs.root_length(r)}\n")
        _emit(head + "".join(rows), output)
        return
    payload = {
        "type": str(rs.cartan_type),
        "rank": rs.rank,
        "simply_laced": rs.cartan_type.simply_laced(),
        "cartan": [list(row) for row in rs.cartan],
        "simple_root_lengths": list(rs.simple_root_lengths),
        "positive_root_count": len(rs.positive_roots),
        "positive_roots": [root_json(r) for r in rs.positive_roots],
        "highest_root": root_json(rs.highest_root),
        "rho": list(rs.rho),
    }
    _emit_json(payload, output)


@main.command("words")
@type_option
@click.option("--word", "-w", "word_text", default=None,
              help="Element, as any word for it (default: the longest element).")
@click.option("--cap", default=weyl.DEFAULT_WORD_CAP, show_default=True,
              type=click.IntRange(min=0),
              help="Refuse enumeration beyond this many words.")
@click.option("--allow-large", is_flag=True,
              help="Enumerate even past the cap.")
@click.option("--limit", default=None, type=click.IntRange(min=0),
              help="Emit at most this many words (marks output truncated).")
@format_option
@output_option
def cmd_words(type_name: str, word_text: Optional[str], cap: int,
              allow_large: bool, limit: Optional[int], fmt: str,
              output: Optional[str]) -> None:
    """Enumerate all reduced words of an element, lexicographically."""
    rs = _root_system(type_name)
    if word_text is None:
        element = weyl.longest_element(rs)
    else:
        element = weyl.from_word(rs, _parse_word(rs, word_text))
    cap = None if allow_large else cap
    total = None
    if cap is not None:
        # the cap check, before any output; a count within the cap is exact
        total = weyl.count_words(rs, element, cap=cap)
        if total > cap:
            _fail(str(weyl.WordCapExceeded(cap)))
    words = weyl.reduced_words(rs, element, limit=limit, cap=None)
    if fmt == "tsv":
        # written as the words stream, so no list of them is ever held
        with open(output, "w") if output else nullcontext(sys.stdout) as fh:
            for w in words:
                fh.write(weyl.format_word(w) + "\n")
        return
    stream = list(words)
    if total is None:
        total = weyl.count_words(rs, element)
    payload = {
        "type": str(rs.cartan_type),
        "element": weyl.format_word(weyl.canonical_word(rs, element)),
        "count": total,
        "emitted": len(stream),
        "truncated": len(stream) < total,
        "words": [weyl.format_word(w) for w in stream],
    }
    _emit_json(payload, output)


@main.command("aut")
@type_option
@click.option("--word", "-w", "word_text", required=True,
              help="Reduced word, 1-based letters, e.g. 1,2,1,3,2,1.")
@click.option("--cap", default=weyl.DEFAULT_WORD_CAP, show_default=True,
              type=click.IntRange(min=0),
              help="Cap for the completion cross-check enumeration.")
@output_option
def cmd_aut(type_name: str, word_text: str, cap: int,
            output: Optional[str]) -> None:
    """Classify the connected automorphism group of Z(w, i)."""
    rs = _root_system(type_name)
    word = _reduced_word(rs, word_text)
    report = autgroup.classify(tangent.BsdhWord(rs, word), cap=cap)
    _emit_json(report.to_json(), output)


@main.command("tangent-char")
@type_option
@click.option("--word", "-w", "word_text", required=True,
              help="Reduced word, 1-based letters.")
@click.option("--euler-only", is_flag=True,
              help="Report the Euler characteristic even in simply-laced types.")
@format_option
@output_option
def cmd_tangent_char(type_name: str, word_text: str, euler_only: bool,
                     fmt: str, output: Optional[str]) -> None:
    """Tangent-bundle character report for Z(w, i)."""
    rs = _root_system(type_name)
    word = _reduced_word(rs, word_text)
    b = tangent.BsdhWord(rs, word)
    if euler_only or not rs.cartan_type.simply_laced():
        report = tangent.tangent_euler_char(b)
    else:
        report = tangent.tangent_h0_char(b)
    if fmt == "tsv":
        _emit(_char_tsv(report.total, rs.rank), output)
        return
    _emit_json(report.to_json(), output)


@main.command("kernel")
@type_option
@click.option("--word", "-w", "word_text", required=True,
              help="Reduced word for w, 1-based letters (may be empty: '').")
@click.option("--completion", "-c", "completion_text", required=True,
              help="Reduced word of the longest element extending --word.")
@output_option
def cmd_kernel(type_name: str, word_text: str, completion_text: str,
               output: Optional[str]) -> None:
    """Predicted vs observed kernel of restriction (simply-laced)."""
    rs = _root_system(type_name)
    word = _reduced_word(rs, word_text)
    completion = _reduced_word(rs, completion_text)
    try:
        report = tangent.kernel_char(tangent.BsdhWord(rs, word), completion)
    except ValueError as exc:
        _fail(str(exc))
    _emit_json(report.to_json(), output)
    if not report.equal:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command("classify-w0")
@type_option
@click.option("--cap", default=weyl.DEFAULT_WORD_CAP, show_default=True,
              type=click.IntRange(min=0),
              help="Refuse runs with more w_0 words than this.")
@click.option("--allow-large", is_flag=True)
@output_option
def cmd_classify_w0(type_name: str, cap: int, allow_large: bool,
                    output: Optional[str]) -> None:
    """Count the reduced words of w_0 in each J-set class."""
    rs = _root_system(type_name)
    try:
        result = autgroup.classify_all_w0(rs, cap=None if allow_large else cap)
    except weyl.WordCapExceeded as exc:
        _fail(str(exc))
    _emit_json(result.to_json(), output)


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(sorted(autgroup.SUITES)),
              help="Which invariant battery to run.")
@type_option
@click.option("--cases", default=1000, type=click.IntRange(min=0),
              show_default=True, help="Fuzz cases for the operators suite.")
@click.option("--weights", default=50, type=click.IntRange(min=0),
              show_default=True,
              help="Random weights per element for the euler suite.")
@click.option("--seed", default=0, show_default=True)
@click.option("--sample", default=None, type=click.IntRange(min=0),
              help="Sample at most this many words per element.")
@click.option("--w0-only/--all-words", "w0_only", default=None,
              help="Restrict simply-laced-theorems to longest-element words.")
@click.option("--cap", default=weyl.DEFAULT_WORD_CAP, show_default=True,
              type=click.IntRange(min=0))
@click.option("--allow-large", is_flag=True)
@click.option("--timing", is_flag=True,
              help="Include real elapsed milliseconds in the report.")
@output_option
@click.pass_context
def cmd_verify(ctx: click.Context, suite: str, type_name: str,
               allow_large: bool, timing: bool, output: Optional[str],
               **options) -> None:
    """Run a named verification suite; exit 0 iff it is clean."""
    rs = _root_system(type_name)
    # only options given on the command line reach the suite, which
    # refuses any it does not take; the defaults above are the suites' own
    given = {name: value for name, value in options.items()
             if ctx.get_parameter_source(name) != ParameterSource.DEFAULT}
    if allow_large:
        given["cap"] = None
    try:
        report = autgroup.verify(suite, rs, **given)
    except (ValueError, weyl.WordCapExceeded) as exc:
        _fail(str(exc))
    _emit_json(report.to_json(timing=timing), output)
    if not report.ok:
        click.echo(f"bsdh {__version__}: {_command_line(ctx)}", err=True)
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
