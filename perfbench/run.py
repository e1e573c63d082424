"""Synthesis benchmark: solve latency, solution size and per-module costs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload si-cegqi --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py          # every workload, one after another

A run generates the workload's problems from the seed, then makes a
fixed number of rounds (ROUNDS, scaled by ``--seconds``), the same for
every commit however fast it solves. A
round is one fresh child process (child.py) that imports synthlia from
./src, parses every problem and solves them one after another with
``SolverConfig()``. Every solution is checked by the independent
checker (check.py). ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json.

With ``--trace 0`` every round is untraced and the end-to-end metrics
are printed. With ``--trace 1`` untraced and traced rounds alternate;
the traced ones give the per-layer metrics, and the pair gives the
tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 when a solution fails the checker, 2 when the program cannot
be run, and 3 when no round finished within its wall limit (the
metrics then have no value).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from check import Spec, check, count_nodes, read_solution, \
    selftest  # noqa: E402
from tracing import PARSE  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

# The metric names and units, and the default run length, live in
# BENCHMARK.json only.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_METRICS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# A round that runs past this is stopped and its unfinished problems
# count as failed. SolverConfig.timeout stays unset: see README.md.
ROUND_WALL_S = 60.0
# No further round is started once a run has lasted this long, so that
# a run ends within three minutes even when the solver has slowed down
# several times over; the rounds it skips are not attempted.
RUN_WALL_S = 90.0
# Untraced rounds per run at BENCHMARK.json's run_seconds; another
# --seconds scales them (half as many untraced/traced pairs with
# --trace 1). The count, and with it every median taken over the
# rounds, does not depend on the speed being measured. A round takes
# about 3.5 s on si-cegqi, 13 s on si-portfolio, 9 s on nonsi-enum and
# 6 s on io-enum; si-cegqi gets the most rounds because its run-to-run
# spread was the widest.
ROUNDS = {"si-cegqi": 7, "si-portfolio": 2, "nonsi-enum": 2, "io-enum": 3}
# Set-up-only child processes per run, on top of the rounds' set-ups:
# set-up takes 0.1-0.3 s, so one sample is mostly noise.
SETUPS = 8


class Broken(Exception):
    """The program under test could not be run."""


def run_round(texts: list[str], mode: str, spans_path: Path,
              env: dict | None = None) -> dict:
    """One child process over all ``texts`` in ``mode`` (see child.py);
    ``env`` replaces its environment when given."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), mode,
           str(spans_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    timed_out = False
    try:
        out, err = proc.communicate(json.dumps(texts), timeout=ROUND_WALL_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    rnd = {"traced": mode == "traced", "timed_out": timed_out,
           "results": {},
           "setup_s": None, "end": None}
    for line in out.splitlines():
        rec = json.loads(line)
        if "setup_s" in rec:
            rnd["setup_s"] = rec["setup_s"]
        elif "end" in rec:
            rnd["end"] = rec["end"]
        else:
            rnd["results"][rec["id"]] = rec
    finished = rnd["end"] is not None or mode == "setup"
    if not timed_out and (proc.returncode != 0 or not finished):
        raise Broken(f"child exited with {proc.returncode}:\n{err[-2000:]}")
    if rnd["setup_s"] is None:
        raise Broken(f"child did not finish its set-up:\n{err[-2000:]}")
    return rnd


def round_modes(workload: str, seconds: float, trace: bool) -> list[str]:
    n = ROUNDS[workload] * seconds / BENCHMARK["run_seconds"]
    if trace:
        return ["plain", "traced"] * max(1, round(n / 2))
    return ["plain"] * max(1, round(n))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    problems = make_workload(workload, seed)
    texts = [p["text"] for p in problems]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.txt"
    t0 = time.monotonic()
    # The first set-up compiles synthlia's bytecode and fills the file
    # cache; it is not counted.
    run_round(texts, "setup", spans_path)
    setups = [run_round(texts, "setup", spans_path)["setup_s"]
              for _ in range(SETUPS)]
    modes = round_modes(workload, seconds, trace)
    rounds: list[dict] = []
    for mode in modes:
        rounds.append(run_round(texts, mode, spans_path))
        r = rounds[-1]
        print(f"# round {len(rounds)} {mode}: set-up {r['setup_s']:.4f} s, "
              f"loop {r['end']['suite_s'] if r['end'] else float('nan'):.4f}"
              " s", file=sys.stderr)
        if r["timed_out"]:
            print(f"# round {len(rounds)} ran past its wall limit of "
                  f"{ROUND_WALL_S:.0f} s", file=sys.stderr)
            break
        if len(rounds) < len(modes) and time.monotonic() - t0 > RUN_WALL_S:
            print(f"# run past {RUN_WALL_S:.0f} s: stopped after "
                  f"{len(rounds)} of {len(modes)} rounds", file=sys.stderr)
            break
    return judge(problems, rounds, trace, setups)


def judge(problems: list[dict], rounds: list[dict], trace: bool,
          setups: list[float]) -> dict:
    failed = 0
    wrong: list[str] = []
    verdicts: dict = {}
    nodes: dict[int, int] = {}
    for rnd in rounds:
        for p in problems:
            rec = rnd["results"].get(p["id"])
            if rec is None or "fail" in rec:
                failed += 1
                continue
            key = (p["id"], rec["solution"])
            if key not in verdicts:
                verdicts[key] = check(p, rec["solution"])
                if verdicts[key]:
                    wrong.append(f"problem {p['id']} ({p['family']}): "
                                 f"{verdicts[key]}\n{p['text']}"
                                 f"{rec['solution']}")
                else:
                    body = read_solution(Spec(p["text"]), rec["solution"])
                    nodes.setdefault(p["id"], count_nodes(body))
    plain = [r for r in rounds if not r["traced"] and r["end"] is not None]
    traced = [r for r in rounds if r["traced"] and r["end"] is not None]
    res = {"correct": not wrong, "attempted": len(problems) * len(rounds),
           "failed": failed, "wrong": wrong, "rounds": len(rounds),
           "finished": bool(plain and (traced or not trace))}
    if not res["finished"]:
        names = LAYER_METRICS if trace else END_TO_END
        res["metrics"] = {n: (None, u) for n, u in names.items()}
    elif trace:
        res["metrics"] = layer_metrics(plain, traced)
    else:
        res["metrics"] = end_to_end(plain, nodes, setups)
    return res


def end_to_end(plain, nodes, setups) -> dict:
    """suite_s is the median over the run's fixed number of finished
    untraced rounds of the solve loop's wall time. p50 and p90 are taken
    over every solve of those rounds, so a garbage collection that lands
    on a different problem in each round counts at its share. Set-up is
    the median of every set-up the run made."""
    solves = [rec["ms"] for r in plain for rec in r["results"].values()]
    p90 = statistics.quantiles(solves, n=10)[-1] if len(solves) > 1 \
        else None
    if p90 is not None:
        above = sum(1 for t in solves if t > p90)
        print(f"# {len(solves)} solves timed, {above} above the p90",
              file=sys.stderr)
    m = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
        "suite_s": statistics.median(r["end"]["suite_s"] for r in plain),
        "solve_ms_p50": statistics.median(solves),
        "solve_ms_p90": p90,
        "solution_nodes_mean": statistics.mean(nodes.values())
        if nodes else None,
        "peak_rss_mb": statistics.median(r["end"]["rss_mb"] for r in plain),
    }
    return {n: (m[n], u) for n, u in END_TO_END.items()}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(plain, traced) -> dict:
    """Per-layer metrics from the traced rounds; times are medians over
    them, counts come from the first and must repeat in the others."""
    first = traced[0]
    for other in traced[1:]:
        if counts_of(other) != counts_of(first):
            print("# traced rounds disagree on their counts",
                  file=sys.stderr)

    def ms(pick):
        return statistics.median(pick(r["end"]["totals"]) for r in traced) \
            * 1000.0

    def incl(*names):
        return lambda t: sum(t[n]["s"] for n in names if n in t)

    def own(prefix):
        return lambda t: sum(v["self_s"] for n, v in t.items()
                             if n.startswith(prefix))

    def prefixed(prefix):
        return lambda t: sum(v["s"] for n, v in t.items()
                             if n.startswith(prefix))

    tot = first["end"]["totals"]
    outc = first["end"]["outcomes"]

    def calls(*names):
        return sum(tot[n]["calls"] for n in names if n in tot)

    def calls_prefixed(prefix):
        return sum(v["calls"] for n, v in tot.items() if n.startswith(prefix))

    def outcomes(pred):
        return sum(v for k, v in outc.items() if pred(k))

    def loop_s(rounds):
        return statistics.median(r["end"]["suite_s"] for r in rounds)

    stats = {}
    for rec in first["results"].values():
        for k, v in rec["stats"].items():
            stats[k] = stats.get(k, 0) + v
    enumerated = stats.get("enumerated", 0)
    recon = "cegqi.reconstruct@driver"
    recon_calls = calls(recon)
    recon_failed = outcomes(lambda k: k.startswith(recon + "!"))
    qf_calls = calls_prefixed("qfsolver.")
    qf_self_ms = ms(own("qfsolver."))
    enum_s = statistics.median(
        r["end"]["totals"].get("enumsearch.solve_enum@driver",
                               {"s": 0.0})["s"] for r in traced)
    memo = first["end"]["memo"]
    pattern_checks = first["end"]["counts"].get("enumsearch.pattern_matches",
                                                0)
    m = {
        "sygus.parse_ms": ms(incl(PARSE)),
        "classify.calls": calls_prefixed("classify."),
        "classify.ms": ms(prefixed("classify.")),
        "cegqi.instances": stats.get("cegqi_iterations", 0),
        "cegqi.loop_self_ms": ms(own("cegqi.solve_cegqi@")),
        "cegqi.select_ms": ms(incl("cegqi.select_terms@cegqi")),
        "cegqi.extract_ms": ms(incl("cegqi.extract_solution@driver")),
        "cegqi.recon_ms": ms(incl(recon)),
        "cegqi.recon_attempts": recon_calls,
        "cegqi.recon_success_ratio":
            _ratio(recon_calls - recon_failed, recon_calls),
        "problem.terms_upto_ms": ms(incl("problem.terms_upto@cegqi")),
        "enumsearch.compile_ms": ms(incl(
            "enumsearch.default_grammar@driver",
            "enumsearch.grammar_to_datatypes@driver")),
        "enumsearch.enumerated": enumerated,
        "enumsearch.retained_ratio":
            _ratio(stats.get("retained", 0), enumerated),
        "enumsearch.pruned_rewriter": stats.get("pruned_rewriter", 0),
        "enumsearch.pruned_signature": stats.get("pruned_signature", 0),
        "enumsearch.blocked_exact": stats.get("blocked_exact", 0),
        "enumsearch.cex_points": stats.get("counterexample_points", 0),
        "enumsearch.process_ms": ms(incl("enumsearch.process@enumsearch")),
        "enumsearch.pattern_checks": pattern_checks,
        "enumsearch.pattern_checks_per_candidate":
            _ratio(pattern_checks, enumerated),
        "enumsearch.generalize_ms": ms(incl(
            "enumsearch.generalize_pattern@enumsearch")),
        "enumsearch.candidates_per_s": _ratio(enumerated, enum_s),
        "enumsearch.signature_ms": ms(incl(
            "enumsearch.signature_of@enumsearch")),
        "enumsearch.smt_check_ratio": _ratio(
            calls("qfsolver.check_sat@enumsearch"),
            calls("problem.apply_solution@enumsearch")),
        "qfsolver.calls": qf_calls,
        "qfsolver.self_ms": qf_self_ms,
        "qfsolver.us_per_call": _ratio(qf_self_ms * 1000.0, qf_calls),
        "qfsolver.unsat_ratio": _ratio(outcomes(
            lambda k: k.startswith("qfsolver.") and k.endswith("!unsat")),
            qf_calls),
        "qfsolver.resource_limits": outcomes(
            lambda k: k.startswith("qfsolver.")
            and k.endswith("!ResourceLimit")),
        "qfsolver.equiv_checks": calls("qfsolver.are_equivalent@cegqi"),
        "rewrite.normalize_calls": calls_prefixed("rewrite.normalize@"),
        "rewrite.normalize_ms": ms(prefixed("rewrite.normalize@")),
        "rewrite.canonical_key_calls":
            calls_prefixed("rewrite.canonical_key@"),
        "rewrite.canonical_key_ms": ms(prefixed("rewrite.canonical_key@")),
        "rewrite.memo_hit_ratio":
            _ratio(memo["hits"], memo["hits"] + memo["misses"]),
        "rewrite.memo_entries": memo["entries"],
        "terms.evaluate_calls": calls_prefixed("terms.evaluate@"),
        "terms.evaluate_ms": ms(prefixed("terms.evaluate@")),
        "trace.overhead_ratio": _ratio(loop_s(traced), loop_s(plain)),
    }
    print(f"# {first['end']['spans']} spans per traced round",
          file=sys.stderr)
    return {n: (m[n], u) for n, u in LAYER_METRICS.items()}


def counts_of(rnd) -> tuple:
    """Everything a traced round counts, for the determinism check."""
    end = rnd["end"]
    return (sorted((n, v["calls"]) for n, v in end["totals"].items()),
            sorted(end["counts"].items()), sorted(end["outcomes"].items()),
            sorted((i, json.dumps(r["stats"], sort_keys=True),
                    r.get("solution", r.get("fail")))
                   for i, r in rnd["results"].items()))


def report(workload: str, res: dict) -> dict:
    print(f"workload {workload}: {res['rounds']} rounds, "
          f"{res['attempted']} problems attempted, {res['failed']} failed, "
          f"{'all solutions pass' if res['correct'] else 'WRONG SOLUTIONS'}")
    if not res["finished"]:
        print(f"  no round finished within its wall limit of "
              f"{ROUND_WALL_S:.0f} s: the metrics have no value")
    for name, (value, unit) in res["metrics"].items():
        shown = "-" if value is None else f"{value:.6f}"
        print(f"  {name:42s} {shown:>14s} {unit}")
    for w in res["wrong"]:
        print(f"# wrong: {w}", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "synthlia" / "__init__.py").is_file():
        print(f"no synthlia sources under {SRC}", file=sys.stderr)
        return 2
    selftest()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wrong = unfinished = False
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
        except Broken as e:
            print(f"workload {name}: {e}", file=sys.stderr)
            return 2
        line = report(name, res)
        wrong = wrong or not res["correct"]
        unfinished = unfinished or not res["finished"]
        print(json.dumps(line))
    return 1 if wrong else 3 if unfinished else 0


if __name__ == "__main__":
    sys.exit(main())
