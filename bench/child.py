"""One workload in one fresh process; started by run.py, one at a time.

Modes:
  setup    import bsdh and make the inputs, then exit (a set-up sample)
  measure  set up, then run whole passes untraced for about --seconds
  trace    set up traced, then alternate untraced and traced passes

The last line of stdout is one JSON object for run.py.  Every time is
``time.perf_counter`` except ``ready``, which is ``time.monotonic`` so that
run.py can subtract its own clock reading taken before the process start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import LAYERS, MATMUL, STEP, Tracer
from workloads import ROOT, WORKLOADS, child_env

MAX_ERRORS = 20


def import_library():
    """Import bsdh from the checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "bsdh" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'bsdh'} is missing; run from a bsdh checkout")
    sys.path.insert(0, str(src))
    import bsdh
    from bsdh import autgroup, characters, roots, tangent, weyl  # noqa: F401
    if not bsdh.__file__.startswith(str(src)):
        sys.exit(f"error: bsdh was imported from {bsdh.__file__}, not {src}")
    return bsdh


def cache_entries(systems) -> int:
    """Memo entries held in RootSystem._caches (a dict value counts its keys)."""
    return sum(len(v) if isinstance(v, dict) else 1
               for rs in systems for v in rs._caches.values())


class Pass:
    """Outcome of one pass over a workload's items."""

    def __init__(self):
        self.samples = []      # (seconds, weight) per item
        self.attempted = 0
        self.failed = 0
        self.cache_entries = 0

    @property
    def busy_s(self) -> float:
        return sum(s for s, _ in self.samples)


def run_pass(items, tracer, traced, errors) -> Pass:
    out = Pass()
    for item in items:
        if traced:
            tracer.begin_item()
        tracer.active = traced
        error = None
        t0 = time.perf_counter()
        try:
            result = item.run()
        except Exception:
            result = None
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        tracer.active = False
        if error is None:
            try:
                error = item.check(result)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3)
        if traced:
            out.cache_entries += cache_entries(tracer.systems)
            tracer.systems.clear()
        del result
        out.samples.append((dt, item.weight))
        out.attempted += item.weight
        if error is not None:
            out.failed += item.weight
            if len(errors) < MAX_ERRORS:
                errors.append(f"{item.label}: {error}")
    return out


def fits(start: float, last: float, seconds: float) -> bool:
    """Start another pass only if it should end within the time budget."""
    return time.monotonic() - start + last <= seconds


def peak_rss_kb(workload) -> int:
    """Peak RSS so far: of this process, or of the largest query process."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-queries" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def measure(workload, tracer, seconds, result) -> None:
    errors, passes = [], []
    start = time.monotonic()
    while True:
        p0 = time.monotonic()
        passes.append(run_pass(workload.items("measure", pass_index=len(passes)),
                               tracer, False, errors))
        if len(passes) == 1:
            # Taken after the first pass, so that it does not depend on how
            # many passes fit into the run (see "Peak RSS" in NOTES.md).
            result["peak_rss_kb"] = peak_rss_kb(workload)
        if not fits(start, time.monotonic() - p0, seconds):
            break
    result.update(
        samples=[p.samples for p in passes],
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        errors=errors,
        peak_rss_kb_all_passes=peak_rss_kb(workload))


def _median_subprocess(args, runs=5, reported=False) -> float:
    """Median wall time of a fresh interpreter, or of the time it reports."""
    values = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True, timeout=60)
        wall = time.perf_counter() - t0
        values.append(float(proc.stdout) if reported else wall)
    return statistics.median(values)


def trace(workload, tracer, setup_spans, seconds, seed, result) -> None:
    setup_totals = tracer.layer_totals(0, setup_spans)
    setup_counts = dict(tracer.counts)
    setup_systems = list(tracer.systems)
    tracer.systems.clear()
    items = workload.items("trace", tracer)
    errors, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        p0 = time.monotonic()
        plain.append(run_pass(items, tracer, False, errors))
        tracer.reset_counts()
        lo = tracer.mark()
        tracer.install(workload.lib)
        try:
            p = run_pass(items, tracer, True, errors)
        finally:
            tracer.uninstall()
        p.cache_entries += cache_entries(setup_systems)
        p.totals = tracer.layer_totals(lo, tracer.mark())
        p.counts = dict(tracer.counts)
        traced.append(p)
        if not fits(start, time.monotonic() - p0, seconds):
            break

    def exact(p):
        return (p.counts, p.cache_entries, p.totals["by_name"],
                {layer: v["calls"] for layer, v in p.totals["layers"].items()})
    first = traced[0]
    repeat = all(exact(p) == exact(first) for p in traced[1:])

    def self_s(layer):
        return (setup_totals["layers"][layer]["self_s"]
                + statistics.median(p.totals["layers"][layer]["self_s"] for p in traced))

    def calls(layer):
        return setup_totals["layers"][layer]["calls"] + first.totals["layers"][layer]["calls"]

    def named(name):
        return setup_totals["by_name"].get(name, 0) + first.totals["by_name"].get(name, 0)

    def count(key):
        if key == "max_support":
            return max(setup_counts[key], first.counts[key])
        return setup_counts[key] + first.counts[key]

    traced_s = statistics.median(p.busy_s for p in traced)
    plain_s = statistics.median(p.busy_s for p in plain)
    cli = workload.name == "cli-queries"
    metrics = {
        "characters.steps": named(STEP),
        "characters.string_terms": count("string_terms"),
        "characters.terms_out": count("terms_out"),
        "characters.max_support": count("max_support"),
        "characters.self_s": self_s("characters"),
        "weyl.matmuls": named(MATMUL),
        "weyl.words_streamed": count("words_streamed"),
        "weyl.cache_entries": first.cache_entries,
        "weyl.self_s": self_s("weyl"),
        "tangent.calls": calls("tangent"),
        "tangent.self_s": self_s("tangent"),
        "autgroup.calls": calls("autgroup"),
        "autgroup.words_bucketed": count("words_bucketed"),
        "autgroup.completions_checked": count("completions_checked"),
        "autgroup.self_s": self_s("autgroup"),
        "roots.calls": calls("roots"),
        "roots.busy_s": self_s("roots"),
        "cli.interp_s": _median_subprocess(["-c", "pass"]) if cli else 0.0,
        "cli.import_s": _median_subprocess(
            ["-c", "import time; t = time.perf_counter(); import bsdh.cli; "
                   "print(time.perf_counter() - t)"], reported=True) if cli else 0.0,
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": traced_s - plain_s,
    }
    share = {layer: statistics.median(p.totals["layers"][layer]["self_s"]
                                      for p in traced) / traced_s
             for layer in LAYERS}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write_tsv(spans_path)
    result.update(
        metrics=metrics, counts_repeat=repeat, traced_passes=len(traced),
        traced_pass_s=traced_s, untraced_pass_s=plain_s, layer_share=share,
        spans=len(tracer.name), spans_file=str(spans_path.relative_to(ROOT)),
        attempted=sum(p.attempted for p in plain + traced),
        failed=sum(p.failed for p in plain + traced), errors=errors)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    args = parser.parse_args()

    lib = import_library()
    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    if args.mode == "trace":
        if args.workload == "cli-queries":
            import bsdh.cli  # noqa: F401  (bound before the patches go in)
        tracer.install(lib)
        tracer.active = True
    workload.setup(lib, args.seed)
    tracer.active = False
    tracer.uninstall()
    result = {"ready": time.monotonic(), "params": workload.params}
    if args.mode == "measure":
        measure(workload, tracer, args.seconds, result)
    elif args.mode == "trace":
        trace(workload, tracer, tracer.mark(), args.seconds, args.seed, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
