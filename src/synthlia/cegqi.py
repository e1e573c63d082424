"""Counterexample-guided quantifier instantiation.

Solves single-invocation conjectures by refutation: the negated
first-order form ``exists x. forall z. not P[z, x]`` is attacked by
accumulating instances ``not P[t_i, x]`` until their conjunction is
unsatisfiable, at which point the instantiation terms assemble into a
conditional solution. A model-based selection function picks each
instance from the bounds the body places on the instantiation variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .classify import FirstOrderForm, shared_invocation_tuple
from .enumsearch import TimedOut
from .problem import Grammar, SynthProblem, Solution
from .rewrite import canonical_key, normalize, unit_bound
from .qfsolver import ResourceLimit, Sat, Unsat, are_equivalent, check_sat
from .terms import (
    App,
    BoolConst,
    EvalError,
    IntConst,
    Lambda,
    Term,
    Value,
    Var,
    and_,
    evaluate,
    free_vars,
    ite,
    substitute,
    subterms,
)

Assignment = Mapping[str, Value]


@dataclass(frozen=True)
class InstanceTrace:
    """Ordered instantiation tuples and the formulas they induce."""

    instances: tuple[tuple[Term, ...], ...]
    gamma: tuple[Term, ...]


@dataclass(frozen=True)
class Solved:
    trace: InstanceTrace
    solution: Solution


@dataclass(frozen=True)
class GaveUp:
    reason: str
    trace: InstanceTrace


CegqiResult = Union[Solved, GaveUp]


class ReconstructionFailure(Exception):
    """The reconstruction budget ran out before a generable form was found."""


def _subst_k(body: Term, kvars: tuple[Var, ...],
             terms: tuple[Term, ...]) -> Term:
    return substitute(body, {k.name: t for k, t in zip(kvars, terms)})


def select_terms(model: Assignment, kvars: tuple[Var, ...],
                 gamma: tuple[Term, ...], body: Term) -> tuple[Term, ...]:
    """Instantiation tuple for ``kvars``, chosen from the model.

    ``body`` is the un-negated first-order body P[k, x]. Preference per
    variable: a satisfied equality bound, then the maximal satisfied
    lower bound, then the minimal satisfied upper bound, each kept only
    if the body stays true under the model after the substitution; the
    model value of k itself is the total fallback.
    """
    nbody = normalize(body)
    kset = set(kvars)
    chosen: dict[str, Term] = {}

    def body_holds(cand: dict[str, Term]) -> bool:
        env = dict(model)
        inst = substitute(nbody, cand)
        try:
            return bool(evaluate(inst, env))
        except EvalError:
            return False

    picked: list[Term] = []
    for j, k in enumerate(kvars):
        candidates: list[tuple[int, tuple, Term]] = []
        for atom in subterms(nbody):
            bound = unit_bound(atom, k)
            if bound is None:
                continue
            kind, t = bound
            if free_vars(t) & kset:
                continue
            try:
                sat_here = bool(evaluate(atom, dict(model)))
                val = evaluate(t, dict(model))
            except EvalError:
                continue
            # Bounds from atoms the model falsifies still make sound
            # candidates (the progress filter below vets them); they
            # just rank behind the satisfied ones.
            tier = 0 if sat_here else 3
            if kind == "eq":
                candidates.append((tier + 0, (canonical_key(t),), t))
            elif kind == "lower":
                candidates.append((tier + 1, (-val, canonical_key(t)), t))
            else:
                candidates.append((tier + 2, (val, canonical_key(t)), t))
        candidates.sort(key=lambda c: (c[0], c[1]))
        if k.sort == "Int":
            fallback: Term = IntConst(int(model.get(k.name, 0)))
        else:
            fallback = BoolConst(bool(model.get(k.name, False)))
        pick: Optional[Term] = None
        for _, _, t in candidates:
            trial = dict(chosen)
            trial[k.name] = t
            for rest in kvars[j + 1:]:
                trial.setdefault(rest.name, IntConst(int(model.get(
                    rest.name, 0))))
            if body_holds(trial):
                pick = t
                break
        if pick is None:
            pick = fallback
        chosen[k.name] = pick
        picked.append(pick)
    return tuple(picked)


def solve_cegqi(fo: FirstOrderForm, max_iters: int = 64):
    """Run the instantiation loop; returns (result, iterations).

    The result carries the instance trace; the solution itself is left
    for ``extract_solution`` since it needs the problem for parameter
    naming.
    """
    kvars = fo.instvars
    instances: list[tuple[Term, ...]] = []
    gamma: list[Term] = []
    try:
        return _cegqi_loop(fo, kvars, instances, gamma, max_iters)
    except ResourceLimit:
        trace = InstanceTrace(tuple(instances), tuple(gamma))
        return GaveUp("resource-limit", trace), len(instances)


def _cegqi_loop(fo: FirstOrderForm, kvars, instances, gamma, max_iters):
    while True:
        core = check_sat(and_(*[normalize(g) for g in gamma])) if gamma \
            else Sat({})
        if isinstance(core, Unsat):
            trace = InstanceTrace(tuple(instances), tuple(gamma))
            return Solved(trace, {}), len(instances)
        full = check_sat(and_(*([normalize(g) for g in gamma]
                                + [normalize(fo.pos_body)])))
        if isinstance(full, Unsat):
            trace = InstanceTrace(tuple(instances), tuple(gamma))
            return GaveUp("infeasible", trace), len(instances)
        if len(instances) >= max_iters:
            trace = InstanceTrace(tuple(instances), tuple(gamma))
            return GaveUp("iteration-cap", trace), len(instances)
        terms = select_terms(full.model, kvars, tuple(gamma), fo.pos_body)
        inst = _subst_k(fo.body, kvars, terms)
        instances.append(terms)
        gamma.append(inst)


def extract_solution(trace: InstanceTrace, p: SynthProblem,
                     fo: FirstOrderForm) -> Solution:
    """Nested-conditional solution from a refuting instance trace.

    For each function the body is an ite chain over the instance tuples
    in trace order, with the final instance as the default branch, then
    renamed to the function's declared parameters and normalized.
    """
    if not trace.instances:
        raise ValueError("cannot extract a solution from an empty trace")
    args = shared_invocation_tuple(p)
    if args is None:
        args = tuple(p.universals)
    bodies: dict[str, Term] = {}
    for j, f in enumerate(p.functions):
        body = trace.instances[-1][j]
        for i in range(len(trace.instances) - 2, -1, -1):
            cond = _subst_k(fo.pos_body, fo.instvars, trace.instances[i])
            body = ite(cond, trace.instances[i][j], body)
        params = f.param_vars()
        ren = {a.name: pv for a, pv in zip(args, params)}
        bodies[f.name] = normalize(substitute(body, ren))
    return {f.name: Lambda(f.param_vars(), bodies[f.name])
            for f in p.functions}


# ---------------------------------------------------------------------------
# Reconstruction against a grammar


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ReconstructionFailure("reconstruction time budget exhausted")


def _smallest_upto(g: Grammar, nt: str, size: int, pool: dict,
                   deadline: Optional[float]) -> dict[str, Term]:
    """Canonical key -> smallest term of ``nt`` up to ``size``, cached
    in ``pool`` per (nonterminal, size)."""
    got = pool.get((nt, size))
    if got is None:
        try:
            got = pool[(nt, size)] = g.terms_upto(size, nt, deadline)
        except TimedOut:
            raise ReconstructionFailure(
                "reconstruction time budget exhausted") from None
    return got


def _recon_term(t: Term, nt: str, g: Grammar, budget: int,
                pool: dict, deadline: Optional[float] = None) -> Term:
    _check_deadline(deadline)
    if g.generates(t, nt):
        return t
    # Look the normal form up one size level at a time: most solutions
    # match a small term, and the largest level costs the most.
    want = canonical_key(t)
    for size in range(budget + 1):
        hit = _smallest_upto(g, nt, size, pool, deadline).get(want)
        if hit is not None:
            return hit
    _check_deadline(deadline)
    # Top-level repair: keep the operator, reconstruct children against
    # the nonterminals a matching production assigns them.
    if isinstance(t, App):
        for rhs in g.rules_of(nt):
            if not (isinstance(rhs, App) and rhs.op == t.op
                    and len(rhs.args) == len(t.args)):
                continue
            if not all(isinstance(a, Var) and a.name in g.nonterminals
                       for a in rhs.args):
                continue
            try:
                kids = tuple(_recon_term(a, s.name, g, budget, pool, deadline)
                             for a, s in zip(t.args, rhs.args))
            except ReconstructionFailure:
                continue
            return App(t.op, kids)
    for c in _smallest_upto(g, nt, budget, pool, deadline).values():
        _check_deadline(deadline)
        if are_equivalent(c, t):
            return c
    raise ReconstructionFailure(
        f"no generable equivalent of size <= {budget} at {nt}")


def reconstruct(s: Solution, g: Grammar, budget: int = 3,
                deadline: Optional[float] = None) -> Solution:
    """Equivalent solution whose bodies the grammar generates.

    Raises ReconstructionFailure when the size budget or the deadline
    is exhausted.
    """
    out: Solution = {}
    pool: dict = {}
    for name, lam in s.items():
        body = _recon_term(lam.body, g.start, g, budget, pool, deadline)
        out[name] = Lambda(lam.params, body)
    return out
