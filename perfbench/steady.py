"""Steadiness check: spread of every metric over runs with other seeds.

Usage: python3 perfbench/steady.py [--workload NAME ...] [--seeds 1 2 ...]
                                   [--seconds S]

Runs run.py once per seed on each workload (default: all workloads,
seeds 1 to 10, the run length of BENCHMARK.json) and prints, for every
metric, the median and quartiles of its values (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json. Also prints the share of failed problems of each run,
which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="*", type=int,
                    default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    ok = True
    for name in args.workload:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            t0 = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            took = time.monotonic() - t0
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}")
                return 1
            res = json.loads(done.stdout.splitlines()[-1])
            shares.add((res["failed"], res["attempted"]))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                flush=True)
        fails = {f / a for f, a in shares}
        print(f"{name}: failed share per run {sorted(fails)}")
        ok = ok and len(fails) == 1
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            verdict = "" if bound is None else (
                f"bound {bound:.3f} " + ("ok" if spread < bound / 3
                                         else "WIDE"))
            print(f"  {k:42s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
