"""Strategy dispatch: route each conjecture class to its solver.

Input-output example conjectures with a grammar go to enumeration with
example-based pruning, and are decided by evaluating each candidate at
their points, with no solver call; the enumeration admits a candidate
by its canonical key and example signature alone.
Single-invocation conjectures without syntactic restrictions go to
quantifier instantiation; restricted single-invocation conjectures get
the portfolio (instantiate, then reconstruct the solution against the
grammar, falling back to enumeration); everything else is enumerated,
over the default grammar when none is given. Non-single-invocation
problems are first offered to the single-invocation normalizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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
    Context,
    Exhausted,
    default_grammar,
    grammar_to_datatypes,
    solve_enum,
)
from .problem import Solution, SynthProblem, apply_solution
from .qfsolver import ResourceLimit, TimedOut, check_valid
from .terms import Lambda


MODES = ("auto", "cegqi", "enum", "portfolio")


@dataclass
class SolverConfig:
    mode: str = "auto"  # one of MODES
    max_size: int = 6
    max_iters: int = 64
    recon_budget: int = 3
    timeout: Optional[float] = None  # seconds, positive
    verify: bool = False
    trace: Optional[Callable[[str], None]] = None


@dataclass
class Success:
    solution: Solution
    strategy: str
    stats: dict = field(default_factory=dict)


@dataclass
class GaveUp:
    reason: str
    stats: dict = field(default_factory=dict)


SolveOutput = Union[Success, GaveUp]


def verify_solution(p: SynthProblem, s: Solution,
                    deadline: Optional[float] = None) -> bool:
    """T-validity of the instantiated conjecture, plus grammar
    conformance for every function that carries one. Raises TimedOut
    once ``deadline`` (a time.monotonic() value) passes."""
    if not check_valid(apply_solution(p, s), deadline=deadline):
        return False
    for f in p.functions:
        if f.grammar is not None:
            if not f.grammar.generates(s[f.name].body):
                return False
    return True


def _trace(ctx: Context, msg: str) -> None:
    if ctx.trace:
        ctx.trace(msg)


def solve(p: SynthProblem, cfg: Optional[SolverConfig] = None) -> SolveOutput:
    cfg = cfg or SolverConfig()
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}; expected one of "
                         f"{', '.join(MODES)}")
    if cfg.timeout is not None and not cfg.timeout > 0:
        raise ValueError(f"timeout must be positive, got {cfg.timeout!r}")
    t0 = time.monotonic()
    ctx = Context(t0 + cfg.timeout if cfg.timeout is not None else None,
                  cfg.trace)

    def finish(out: SolveOutput) -> SolveOutput:
        out.stats = dict(vars(ctx.stats), wall_time=time.monotonic() - t0)
        return out

    q = p
    cls = classify(q)
    if isinstance(cls, NonSingleInvocation):
        try:
            q = to_single_invocation(p)
            cls = classify(q)
            _trace(ctx, f"normalized to {type(cls).__name__}")
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
    _trace(ctx, f"route {route} ({type(cls).__name__}, "
                f"grammar={'yes' if has_grammar else 'no'})")

    try:
        if route in ("cegqi", "portfolio"):
            out = _run_cegqi(p, q, cls, cfg, ctx)
            if isinstance(out, Success):
                return finish(out)
            if route == "cegqi":
                return finish(GaveUp(f"cegqi-failed({out})"))
            _trace(ctx, "portfolio: falling back to enumeration")
        return finish(_run_enum(p, q, cfg, ctx))
    except Exhausted as e:
        return finish(GaveUp(f"exhausted(size={e.size_cap})"))
    except TimedOut:
        return finish(GaveUp(f"timeout({cfg.timeout:g}s)"))
    except ResourceLimit:
        return finish(GaveUp("resource-limit"))


def _run_cegqi(orig: SynthProblem, q: SynthProblem, cls,
               cfg: SolverConfig, ctx: Context) -> Union[Success, str]:
    """The CEGQI route, or the reason to fall back. A timeout
    propagates, except one of reconstruction, which falls back."""
    if isinstance(cls, NonSingleInvocation):
        return "not-single-invocation"
    fo = to_first_order(q)
    res = solve_cegqi(fo, cfg.max_iters, ctx)
    if isinstance(res, CegqiGaveUp):
        _trace(ctx, f"cegqi gave up: {res.reason}")
        return res.reason
    sol = extract_solution(res, q, fo)
    strategy = "cegqi"
    if any(f.grammar is not None for f in q.functions):
        # Reconstruction gets a fixed 20% slice of the time budget;
        # past that the portfolio falls through to enumeration.
        recon = ctx if cfg.timeout is None else replace(
            ctx, deadline=ctx.deadline - 0.8 * cfg.timeout)
        try:
            for f in q.functions:
                if f.grammar is not None:
                    lam = sol[f.name]
                    sol[f.name] = Lambda(lam.params, reconstruct(
                        lam.body, f.grammar, cfg.recon_budget, recon))
            strategy = "cegqi+reconstruction"
        except (ReconstructionFailure, ResourceLimit, TimedOut):
            _trace(ctx, "reconstruction failed within budget")
            return "reconstruction-failed"
    failed = _verify_failure(orig, sol, ctx) if cfg.verify else None
    if failed is not None:
        _trace(ctx, f"cegqi solution failed verification: {failed}")
        return failed
    return Success(sol, strategy)


def _run_enum(orig: SynthProblem, q: SynthProblem, cfg: SolverConfig,
              ctx: Context) -> SolveOutput:
    if len(q.functions) != 1:
        return GaveUp("enumeration handles a single function")
    f = q.functions[0]
    grammar = f.grammar or default_grammar(f.fsort, f.param_names)
    family = grammar_to_datatypes(grammar)
    sol, _ = solve_enum(q, family, ctx, max_size=cfg.max_size)
    failed = _verify_failure(orig, sol, ctx) if cfg.verify else None
    if failed is not None:
        return GaveUp(failed)
    return Success(sol, "enum")


def _verify_failure(orig: SynthProblem, sol: Solution,
                    ctx: Context) -> Optional[str]:
    """None when ``sol`` verifies, else the reason it does not: a
    verification that runs out of its solver budget is a give-up of
    the route, not of the whole solve; one that runs out of time is."""
    try:
        ok = verify_solution(orig, sol, ctx.deadline)
    except ResourceLimit:
        return "verification-resource-limit"
    return None if ok else "verification-failed"
