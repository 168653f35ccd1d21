#!/usr/bin/env python3
"""Exhaustive census of restriction-kernel characters in simply-laced
types: for every reduced word of the longest element and every prefix
cut, compare the closed-form predicted kernel character against the one
observed as a difference of section characters.

Example:
    python3 scripts/kernel_census.py --types A2,A3 --verbose
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field

from bsdh.roots import RootSystem
from bsdh.tangent import BsdhWord, kernel_char
from bsdh import weyl


@dataclass
class CensusConfig:
    types: list = field(default_factory=lambda: ["A2", "A3"])
    verbose: bool = False


def run(cfg: CensusConfig) -> int:
    mismatches = 0
    for name in cfg.types:
        rs = RootSystem.of(name)
        w0 = weyl.longest_element(rs)
        t0 = time.monotonic()
        pairs = 0
        by_dim: dict = {}
        for full in weyl.reduced_words(rs, w0, cap=None):
            for cut in range(len(full) + 1):
                report = kernel_char(BsdhWord(rs, full[:cut]), full)
                pairs += 1
                dim = report.predicted.dim()
                by_dim[dim] = by_dim.get(dim, 0) + 1
                if not report.equal:
                    mismatches += 1
                    print(f"   MISMATCH {name} word="
                          f"{weyl.format_word(full[:cut])} completion="
                          f"{weyl.format_word(full)}")
                elif cfg.verbose:
                    print(f"   {name} {weyl.format_word(full[:cut]) or '-':<18}"
                          f" in {weyl.format_word(full):<18} "
                          f"kernel dim {dim}")
        elapsed = time.monotonic() - t0
        hist = ", ".join(f"dim {d}: {c}" for d, c in sorted(by_dim.items()))
        print(f"== {name}: {pairs} (word, completion) pairs, "
              f"{mismatches} mismatches ({elapsed:.2f}s)")
        print(f"   kernel dimension histogram: {hist}\n")
    return mismatches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", default="A2,A3",
                        help="comma-separated simply-laced Cartan types")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    cfg = CensusConfig(types=[t.strip() for t in args.types.split(",") if t],
                       verbose=args.verbose)
    raise SystemExit(1 if run(cfg) else 0)


if __name__ == "__main__":
    main()
