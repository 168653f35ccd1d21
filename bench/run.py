#!/usr/bin/env python3
"""The bsdh benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a bsdh checkout:

    python3 bench/run.py --workload w0-tangent --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

This process runs the benchmark: one process, one thread.  It starts one child
at a time (bench/child.py), so that peak RSS and RootSystem._caches never
leak from one workload into the next.  With ``--trace 0`` it starts four
set-up-only children and then the measuring child, and reports the
end-to-end metrics; with ``--trace 1`` it starts one traced child and
reports the per-layer metrics.  It prints one table per workload, one
JSON record with provenance, and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5          # set-up time is the median of this many starts
RUN_LIMIT_S = 170          # every child of one workload is stopped by then

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, child_env  # noqa: E402

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("failed_frac", "1"))


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str,
              deadline: float) -> dict:
    """Start one child, wait for it, and return its result and its start time."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} child exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["started"] = t0
    return out


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    setups = [run_child(workload, seed, seconds, "setup", deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(workload, seed, seconds, "measure", deadline)
    setup_s = statistics.median(r["ready"] - r["started"] for r in setups + [main])
    # A sample is (seconds, items completed); a w0-classes call completes
    # many words.  Each figure is taken per pass and the median over passes
    # reported, so a stall of the machine during one pass does not set it.
    latency = WORKLOADS[workload].latency
    per_pass = []
    for samples in main["samples"]:
        per_pass.append({"items_per_s": sum(w for _, w in samples) / sum(s for s, _ in samples),
                         **latency(samples)})
    metrics = {"setup_s": setup_s}
    for m in ("items_per_s", "item_p50_ms", "item_tail_ms"):
        metrics[m] = statistics.median(p[m] for p in per_pass)
    metrics["peak_rss_mb"] = main["peak_rss_kb"] / 1024
    metrics["failed_frac"] = main["failed"] / main["attempted"]
    detail = {"items": main["attempted"], "passes": len(per_pass),
              "item_p50_ms_is": per_pass[0]["p50_is"],
              "item_tail_ms_is": per_pass[0]["tail_is"],
              "per_pass": [{m: p[m] for m in ("items_per_s", "item_p50_ms", "item_tail_ms")}
                           for p in per_pass],
              "peak_rss_mb_all_passes": main["peak_rss_kb_all_passes"] / 1024,
              "setup_samples_s": [r["ready"] - r["started"] for r in setups + [main]]}
    return main, metrics, detail


def provenance(workload: str, seed: int, seconds: float, trace: bool, params) -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "params": params, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "PYTHONHASHSEED": child_env()["PYTHONHASHSEED"]}


def show(workload: str, rows, verdict: str) -> None:
    print(f"== {workload}: {verdict}")
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:<30} {text:>14} {unit:<6} {note}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        main = run_child(workload, seed, seconds, "trace", deadline)
        metrics = main["metrics"]
        detail = {k: main[k] for k in ("counts_repeat", "traced_passes", "traced_pass_s",
                                       "untraced_pass_s", "layer_share", "spans",
                                       "spans_file")}
        units = {m: "s" if m.endswith("_s") else "count" for m in metrics}
        rows = [(m, v, units[m], "") for m, v in metrics.items()]
    else:
        main, metrics, detail = end_to_end(workload, seed, seconds, deadline)
        units = dict(END_TO_END)
        n = detail["passes"]
        passes = f"median of {n} pass" + ("es" if n != 1 else "")
        notes = {"setup_s": f"median of {SETUP_SAMPLES} starts",
                 "items_per_s": passes,
                 "item_p50_ms": f"{detail['item_p50_ms_is']}; {passes}",
                 "item_tail_ms": f"{detail['item_tail_ms_is']}; {passes}"}
        rows = [(m, metrics[m], u, notes.get(m, "")) for m, u in END_TO_END]
    correct = main["failed"] == 0
    verdict = (f"correct ({main['attempted']} items checked)" if correct else
               f"INCORRECT ({main['failed']} of {main['attempted']} items failed)")
    show(workload, rows, verdict)
    for err in main["errors"]:
        print(f"   ! {err.strip()}", file=sys.stderr)
    record = {"provenance": provenance(workload, seed, seconds, trace, main["params"]),
              "detail": detail,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    print(json.dumps({"record": record}, sort_keys=True))
    if not trace:
        metrics.pop("failed_frac")   # 0 on a correct run; "failed" carries it
    return {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "bsdh" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from the root of a bsdh checkout",
                  file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
