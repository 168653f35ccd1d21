#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

Runs every workload traced twice with seed 7 and asserts that
  * every count metric repeats exactly, across the two runs and across the
    traced passes inside each run;
  * the predicted zeros hold: no Demazure step on w0-classes, no word
    streamed and no Weyl product on fuzz-ops;
  * each run checked its outputs and found them correct.

Usage, from the root of a bsdh checkout (takes about three minutes):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

SEED = 7

ZEROS = {
    "w0-classes": ("characters.steps", "characters.string_terms",
                   "characters.terms_out", "characters.self_s"),
    "fuzz-ops": ("weyl.words_streamed", "weyl.matmuls", "weyl.self_s"),
}


def traced_run(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    return json.loads(lines[-1]), record


def main() -> int:
    problems = []
    for name in WORKLOADS:
        (a, rec_a), (b, _) = traced_run(name), traced_run(name)
        counts = sorted(m for m, v in a["metrics"].items() if v["unit"] == "count")
        for run in (a, b):
            if not run["correct"]:
                problems.append(f"{name}: {run['failed']} failed items")
        if not rec_a["detail"]["counts_repeat"]:
            problems.append(f"{name}: counts differ between traced passes")
        for m in counts:
            if a["metrics"][m]["value"] != b["metrics"][m]["value"]:
                problems.append(f"{name}: {m} {a['metrics'][m]['value']} "
                                f"!= {b['metrics'][m]['value']}")
        for m in ZEROS.get(name, ()):
            if a["metrics"][m]["value"] != 0:
                problems.append(f"{name}: {m} = {a['metrics'][m]['value']}, expected 0")
        print(f"{name}: {len(counts)} counts compared, "
              f"{len(ZEROS.get(name, ()))} predicted zeros checked")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
