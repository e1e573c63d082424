"""Command-line entry point.

Reads one problem file, solves it, and prints either the define-fun
forms or a ``(fail reason)`` line. Exit codes: 0 solved, 1 gave up,
2 input error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .driver import MODES, SolverConfig, Success, solve
from .problem import GrammarError
from .sygus import ParseError, parse_problem, print_solution
from .terms import SortError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="synthlia",
        description="Syntax-guided synthesis for linear integer arithmetic.")
    ap.add_argument("file", help="problem file (SyGuS-style s-expressions)")
    ap.add_argument("--mode", choices=MODES,
                    default=SolverConfig.mode)
    ap.add_argument("--max-size", type=int, default=SolverConfig.max_size,
                    metavar="N",
                    help="enumeration size cap (default %(default)s)")
    ap.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                    metavar="N",
                    help="instantiation iteration cap (default %(default)s)")
    ap.add_argument("--recon-budget", type=int,
                    default=SolverConfig.recon_budget, metavar="N",
                    help="reconstruction term-size budget "
                    "(default %(default)s)")
    ap.add_argument("--timeout", type=float, default=SolverConfig.timeout,
                    metavar="SECONDS", help="global time budget")
    ap.add_argument("--verify", action="store_true",
                    help="independently verify the solution before printing")
    ap.add_argument("--stats", action="store_true",
                    help="print key=value statistics on stderr")
    ap.add_argument("--trace", action="store_true",
                    help="print search trace on stderr")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.max_size <= 0 or args.max_iters <= 0 or args.recon_budget <= 0:
        print("error: caps must be positive", file=sys.stderr)
        return 2
    if args.timeout is not None and not args.timeout > 0:
        print("error: timeout must be positive", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
    except (ParseError, GrammarError, SortError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    cfg = SolverConfig(
        mode=args.mode,
        max_size=args.max_size,
        max_iters=args.max_iters,
        recon_budget=args.recon_budget,
        timeout=args.timeout,
        verify=args.verify,
        trace=(lambda m: print(f"trace: {m}", file=sys.stderr))
        if args.trace else None,
    )
    out = solve(problem, cfg)
    if args.stats:
        print(f"strategy={out.strategy if isinstance(out, Success) else '-'}",
              file=sys.stderr)
        for key in sorted(out.stats):
            val = out.stats[key]
            if isinstance(val, float):
                val = f"{val:.3f}"
            print(f"{key}={val}", file=sys.stderr)
    if isinstance(out, Success):
        print(print_solution(out.solution, problem))
        return 0
    print(f"(fail {out.reason})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
