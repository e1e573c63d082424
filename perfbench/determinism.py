"""Determinism check: two traced rounds with the same seed must agree.

Usage: python3 perfbench/determinism.py [--workload NAME] [--seed N]

Runs one traced round of each named workload (default: all) twice, with
PYTHONHASHSEED set to 1 and to 2, and compares the solution texts, the
solver's per-problem statistics and every count the tracer takes (span
calls per function, pattern checks, solver outcomes). Exits 1 and names
what differs when the two rounds disagree.
"""

from __future__ import annotations

import argparse
import os
import sys

from run import OUT, ROOT, counts_of, run_round
from workloads import WORKLOADS, make_workload


def compare(workload: str, seed: int) -> list[str]:
    texts = [p["text"] for p in make_workload(workload, seed)]
    OUT.mkdir(exist_ok=True)
    rounds = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        rounds.append(run_round(texts, "traced",
                                OUT / f"det-{hashseed}.txt", env))
    a, b = (counts_of(r) for r in rounds)
    labels = ("span calls", "counters", "outcomes", "per-problem results")
    diffs = []
    for label, x, y in zip(labels, a, b):
        for u, v in zip(x, y):
            if u != v:
                diffs.append(f"{label}: {u} != {v}")
        if len(x) != len(y):
            diffs.append(f"{label}: {len(x)} entries != {len(y)}")
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    os.chdir(ROOT)
    bad = False
    for name in [args.workload] if args.workload else list(WORKLOADS):
        diffs = compare(name, args.seed)
        print(f"{name} seed {args.seed}: "
              f"{'identical' if not diffs else f'{len(diffs)} differences'}")
        for d in diffs[:20]:
            print(f"  {d}")
        bad = bad or bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
