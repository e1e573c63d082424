"""One round of one workload, in a fresh process.

Usage: python3 child.py SRC_DIR MODE SPANS_PATH < problems.json

Reads the problem texts as a JSON list on stdin, then imports synthlia
from SRC_DIR and parses every text (the set-up), then solves the
problems one after another through the public library call (a closed
loop: problem i+1 is sent only after problem i returns). Each result
is written to stdout as one JSON line as soon as it is known, so a
parent that stops a round at its wall limit still sees what finished.

MODE is "plain", "traced" or "setup". In "traced" the calls into each
module are traced (see tracing.py) and the spans are written to
SPANS_PATH at the end; "setup" stops after the set-up.
"""

import json
import resource
import sys
import time


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    src, mode, spans_path = sys.argv[1:4]
    traced = mode == "traced"
    texts = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import synthlia
    if not synthlia.__file__.startswith(src):
        raise ImportError(f"synthlia imported from {synthlia.__file__}")
    tracer = None
    if traced:
        import synthlia.cegqi
        import synthlia.driver
        import synthlia.enumsearch
        import synthlia.problem
        from tracing import PARSE, ROOT, Tracer
        tracer = Tracer()
        tracer.install({"driver": synthlia.driver, "cegqi": synthlia.cegqi,
                        "enumsearch": synthlia.enumsearch,
                        "problem": synthlia.problem})
    if tracer is None:
        problems = [synthlia.parse_problem(t) for t in texts]
    else:
        problems = []
        for i, t in enumerate(texts):
            tracer.problem_id = i
            problems.append(tracer.span(PARSE, synthlia.parse_problem, t))
    t_setup = time.perf_counter()
    emit({"setup_s": t_setup - t0})
    if mode == "setup":
        return 0

    cfg = synthlia.SolverConfig()
    t_loop = time.perf_counter()
    for i, p in enumerate(problems):
        t = time.perf_counter()
        if tracer is None:
            out = synthlia.solve(p, cfg)
        else:
            tracer.problem_id = i
            out = tracer.span(ROOT, synthlia.solve, p, cfg)
        ms = (time.perf_counter() - t) * 1000.0
        rec = {"id": i, "ms": ms, "stats": {
            k: v for k, v in out.stats.items() if k != "wall_time"}}
        if isinstance(out, synthlia.Success):
            rec["strategy"] = out.strategy
            rec["solution"] = synthlia.print_solution(out.solution, p)
        else:
            rec["fail"] = out.reason
        emit(rec)
    suite_s = time.perf_counter() - t_loop

    info = synthlia.rewrite.normalize.cache_info()
    end = {"suite_s": suite_s,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "memo": {"hits": info.hits, "misses": info.misses,
                    "entries": info.currsize}}
    if tracer is not None:
        end["spans"] = len(tracer.start)
        end["totals"] = tracer.totals()
        end["counts"] = tracer.counts
        end["outcomes"] = tracer.outcomes
        tracer.write(spans_path)
    emit({"end": end})
    return 0


if __name__ == "__main__":
    sys.exit(main())
