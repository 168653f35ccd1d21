#!/usr/bin/env python3
"""Scan longest-element words for zero-weight behaviour of the tangent
section character.

For every reduced word i of w_0 in each requested type this prints the
zero-weight coefficient of the tangent Euler characteristic, the
zero-weight coefficient and total dimension of the degree-one obstruction
character, and whether that character is coefficientwise nonnegative.

In the single-length (simply-laced) types every row shows chi_0 = rank
and a vanishing obstruction.  In the multiply-laced types the obstruction
is word-dependent: some words acquire a strictly positive zero-weight
obstruction, and for those rows chi_0 drops below the rank by exactly
that amount.  This scan is how the word-dependence was first isolated.

Example:
    python3 scripts/zero_weight_scan.py --types B2,G2,B3
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field

from bsdh.roots import RootSystem
from bsdh.tangent import BsdhWord, h1_w0_char, tangent_euler_char
from bsdh import weyl


@dataclass
class ScanConfig:
    types: list = field(default_factory=lambda: ["B2", "G2", "B3"])
    only_violations: bool = False


def run(cfg: ScanConfig) -> int:
    total_violations = 0
    for name in cfg.types:
        rs = RootSystem.of(name)
        n = rs.rank
        zero = (0,) * n
        w0 = weyl.longest_element(rs)
        words = list(weyl.reduced_words(rs, w0, cap=None))
        t0 = time.monotonic()
        print(f"== {name} (rank {n}, {len(words)} longest-element words)")
        violations = 0
        for word in words:
            b = BsdhWord(rs, word)
            chi0 = tangent_euler_char(b).total.coeff(zero)
            h1 = h1_w0_char(b)
            h1_zero = h1.coeff(zero)
            flag = "" if chi0 == n and h1_zero == 0 else "  <-- obstructed"
            if flag:
                violations += 1
            if flag or not cfg.only_violations:
                print(f"   {weyl.format_word(word):<24} chi_0={chi0}  "
                      f"h1_0={h1_zero}  dim h1={h1.dim()}  "
                      f"nonneg={h1.nonnegative()}{flag}")
        elapsed = time.monotonic() - t0
        print(f"   -> {violations}/{len(words)} words with a zero-weight "
              f"obstruction ({elapsed:.2f}s)\n")
        total_violations += violations
    return total_violations


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", default="B2,G2,B3",
                        help="comma-separated Cartan types")
    parser.add_argument("--only-violations", action="store_true",
                        help="print only the obstructed words")
    args = parser.parse_args()
    cfg = ScanConfig(types=[t.strip() for t in args.types.split(",") if t],
                     only_violations=args.only_violations)
    total = run(cfg)
    print(f"total obstructed words: {total}")


if __name__ == "__main__":
    main()
