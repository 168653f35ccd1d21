#!/usr/bin/env python3
"""Sweep root-system types and count the reduced words of the longest
element in each class of the commuting letter set J that controls its
automorphism group.  Prints one deterministic table per type; optionally
dumps JSON.  No word cap applies: the classes are counted, not listed.

Example:
    python3 scripts/scan_w0_classes.py --types A2,A3,B3,D4,F4,E6 --json out.json
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field

from bsdh.autgroup import classify_all_w0
from bsdh.roots import RootSystem


@dataclass
class ScanConfig:
    types: list = field(default_factory=lambda: ["A2", "A3", "B3", "D4", "F4", "E6"])
    json_path: str | None = None


def run(cfg: ScanConfig) -> dict:
    results = {}
    for name in cfg.types:
        rs = RootSystem.of(name)
        t0 = time.monotonic()
        classes = classify_all_w0(rs, cap=None)
        elapsed = time.monotonic() - t0
        results[name] = classes
        print(f"== {name}: {classes.total_words} words of the longest "
              f"element ({elapsed:.2f}s)")
        width = max((len(str([j + 1 for j in J])) for J in classes.buckets),
                    default=2)
        for J, count in sorted(classes.buckets.items()):
            dim = rs.rank + len(rs.positive_roots) + len(J)
            print(f"   J={str([j + 1 for j in J]):<{width}}  "
                  f"words={count:>6}  aut-dim={dim}")
        print()
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", default=",".join(ScanConfig().types),
                        help="comma-separated Cartan types")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the full result map to this file")
    args = parser.parse_args()
    cfg = ScanConfig(types=[t.strip() for t in args.types.split(",") if t],
                     json_path=args.json_path)
    results = run(cfg)
    if cfg.json_path:
        payload = {name: classes.to_json()
                   for name, classes in results.items()}
        with open(cfg.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {cfg.json_path}")


if __name__ == "__main__":
    main()
