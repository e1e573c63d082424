"""Strategy dispatch: route each conjecture class to its solver.

Input-output example conjectures with a grammar go to enumeration with
example-based pruning, and are decided by evaluating each candidate at
their points, with no solver call; every blocking pattern the
enumeration uses is learned from a candidate it pruned.
Single-invocation conjectures without syntactic restrictions go to
quantifier instantiation; restricted single-invocation conjectures get
the portfolio (instantiate, then reconstruct the solution against the
grammar, falling back to enumeration); everything else is enumerated,
over the default grammar when none is given. Non-single-invocation
problems are first offered to the single-invocation normalizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .cegqi import (
    GaveUp as CegqiGaveUp,
    ReconstructionFailure,
    extract_solution,
    reconstruct,
    solve_cegqi,
)
from .classify import (
    IOExamples,
    NonSingleInvocation,
    NotTransformable,
    classify,
    to_first_order,
    to_single_invocation,
)
from .enumsearch import (
    EnumStats,
    Exhausted,
    TimedOut,
    default_grammar,
    grammar_to_datatypes,
    solve_enum,
)
from .problem import Solution, SynthProblem, apply_solution
from .qfsolver import ResourceLimit, check_valid


MODES = ("auto", "cegqi", "enum", "portfolio")


@dataclass
class SolverConfig:
    mode: str = "auto"  # one of MODES
    max_size: int = 6
    max_iters: int = 64
    recon_budget: int = 3
    sb_rewriter: bool = True
    sb_examples: bool = True
    timeout: Optional[float] = None  # seconds
    verify: bool = False
    trace: Optional[Callable[[str], None]] = None


@dataclass
class Success:
    solution: Solution
    strategy: str
    stats: dict


@dataclass
class GaveUp:
    reason: str
    stats: dict


SolveOutput = Union[Success, GaveUp]


def verify_solution(p: SynthProblem, s: Solution) -> bool:
    """T-validity of the instantiated conjecture, plus grammar
    conformance for every function that carries one."""
    if not check_valid(apply_solution(p, s)):
        return False
    for f in p.functions:
        if f.grammar is not None:
            if not f.grammar.generates(s[f.name].body):
                return False
    return True


def _trace(cfg: SolverConfig, msg: str) -> None:
    if cfg.trace:
        cfg.trace(msg)


def solve(p: SynthProblem, cfg: Optional[SolverConfig] = None) -> SolveOutput:
    cfg = cfg or SolverConfig()
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}; expected one of "
                         f"{', '.join(MODES)}")
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout if cfg.timeout is not None else None
    stats: dict = {
        "enumerated": 0, "pruned_rewriter": 0, "pruned_signature": 0,
        "blocked_exact": 0, "retained": 0,
        "cegqi_iterations": 0, "counterexample_points": 0,
        "recon_keyed": 0, "recon_scanned": 0,
        "cegqi_conflicts": 0, "cegqi_pruned": 0,
    }

    def finish(out: SolveOutput) -> SolveOutput:
        out.stats["wall_time"] = time.monotonic() - t0
        return out

    q = p
    cls = classify(q)
    if isinstance(cls, NonSingleInvocation):
        try:
            q = to_single_invocation(p)
            cls = classify(q)
            _trace(cfg, f"normalized to {type(cls).__name__}")
        except NotTransformable:
            pass

    has_grammar = any(f.grammar is not None for f in q.functions)

    if cfg.mode != "auto":
        route = cfg.mode
    elif isinstance(cls, NonSingleInvocation):
        route = "enum"
    elif isinstance(cls, IOExamples) and has_grammar:
        route = "enum"
    elif has_grammar:
        route = "portfolio"
    else:
        route = "cegqi"
    _trace(cfg, f"route {route} ({type(cls).__name__}, "
                f"grammar={'yes' if has_grammar else 'no'})")

    try:
        if route in ("cegqi", "portfolio"):
            # Reconstruction gets a fixed 20% slice of the time budget;
            # past that the portfolio falls through to enumeration.
            recon_deadline = (t0 + 0.2 * cfg.timeout
                              if cfg.timeout is not None else None)
            out = _run_cegqi(p, q, cls, cfg, stats, has_grammar,
                             deadline, recon_deadline)
            if isinstance(out, Success):
                return finish(out)
            if route == "cegqi":
                return finish(GaveUp(f"cegqi-failed({out})", stats))
            _trace(cfg, "portfolio: falling back to enumeration")
        return finish(_run_enum(p, q, cfg, stats, deadline))
    except Exhausted as e:
        _enum_counts(stats, e.stats)
        return finish(GaveUp(f"exhausted(size={e.size_cap})", stats))
    except TimedOut as e:
        if e.stats is not None:  # None when the CEGQI loop timed out
            _enum_counts(stats, e.stats)
        return finish(GaveUp(f"timeout({cfg.timeout:g}s)", stats))
    except ResourceLimit:
        return finish(GaveUp("resource-limit", stats))


def _run_cegqi(orig: SynthProblem, q: SynthProblem, cls,
               cfg: SolverConfig, stats: dict, reconstruct_after: bool,
               deadline: Optional[float],
               recon_deadline: Optional[float]) -> Union[Success, str]:
    """The CEGQI route, or the reason to fall back. A timeout of the
    instantiation loop propagates; one of reconstruction falls back."""
    if isinstance(cls, NonSingleInvocation):
        return "not-single-invocation"
    fo = to_first_order(q)
    res = solve_cegqi(fo, max_iters=cfg.max_iters, deadline=deadline,
                      stats=stats)
    stats["cegqi_iterations"] = len(res.trace.instances)
    if isinstance(res, CegqiGaveUp):
        _trace(cfg, f"cegqi gave up: {res.reason}")
        return res.reason
    sol = extract_solution(res.trace, q, fo)
    strategy = "cegqi"
    if reconstruct_after:
        try:
            fixed: Solution = {}
            for f in q.functions:
                if f.grammar is None:
                    fixed[f.name] = sol[f.name]
                else:
                    one = reconstruct({f.name: sol[f.name]}, f.grammar,
                                      budget=cfg.recon_budget,
                                      deadline=recon_deadline,
                                      stats=stats)
                    fixed[f.name] = one[f.name]
            sol = fixed
            strategy = "cegqi+reconstruction"
        except (ReconstructionFailure, ResourceLimit, TimedOut):
            _trace(cfg, "reconstruction failed within budget")
            return "reconstruction-failed"
    failed = _verify_failure(orig, sol) if cfg.verify else None
    if failed is not None:
        _trace(cfg, f"cegqi solution failed verification: {failed}")
        return failed
    return Success(sol, strategy, stats)


def _run_enum(orig: SynthProblem, q: SynthProblem, cfg: SolverConfig,
              stats: dict, deadline: Optional[float]) -> SolveOutput:
    if len(q.functions) != 1:
        return GaveUp("enumeration handles a single function", stats)
    f = q.functions[0]
    grammar = f.grammar or default_grammar(f.fsort, f.param_names)
    family = grammar_to_datatypes(grammar)
    sol, estats = solve_enum(q, family, max_size=cfg.max_size,
                             sb_rewriter=cfg.sb_rewriter,
                             sb_examples=cfg.sb_examples,
                             trace=cfg.trace, deadline=deadline)
    _enum_counts(stats, estats)
    failed = _verify_failure(orig, sol) if cfg.verify else None
    if failed is not None:
        return GaveUp(failed, stats)
    return Success(sol, "enum", stats)


def _verify_failure(orig: SynthProblem, sol: Solution) -> Optional[str]:
    """None when ``sol`` verifies, else the reason it does not: a
    verification that runs out of its solver budget is a give-up of
    the route, not of the whole solve."""
    try:
        ok = verify_solution(orig, sol)
    except ResourceLimit:
        return "verification-resource-limit"
    return None if ok else "verification-failed"


def _enum_counts(stats: dict, estats: EnumStats) -> None:
    stats.update(enumerated=estats.enumerated,
                 retained=estats.retained,
                 pruned_rewriter=estats.pruned_rewriter,
                 pruned_signature=estats.pruned_signature,
                 blocked_exact=estats.blocked_exact,
                 counterexample_points=estats.counterexample_points)
