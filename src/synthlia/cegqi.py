"""Counterexample-guided quantifier instantiation.

Solves single-invocation conjectures by refutation: the negated
first-order form ``exists x. forall z. not P[z, x]`` is attacked by
accumulating instances ``not P[t_i, x]`` until their conjunction is
unsatisfiable, at which point the instantiation terms assemble into a
conditional solution. A model-based selection function picks each
instance from the bounds the body places on the instantiation variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .classify import FirstOrderForm, shared_invocation_tuple
from .enumsearch import KeyedPool, Sample, SolveStats, check_deadline
from .problem import Grammar, SynthProblem, Solution
from .rewrite import canonical_key, normalize, unit_bound
from .qfsolver import (
    Conflicts,
    ResourceLimit,
    Sat,
    Unsat,
    are_equivalent,
    check_sat,
)
from .terms import (
    INT,
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
    print_term,
    substitute,
    subterms,
)

Assignment = Mapping[str, Value]


@dataclass(frozen=True)
class InstanceTrace:
    """Ordered instantiation tuples."""

    instances: tuple[tuple[Term, ...], ...]


@dataclass(frozen=True)
class Solved:
    trace: InstanceTrace


@dataclass(frozen=True)
class GaveUp:
    reason: str
    trace: InstanceTrace


class ReconstructionFailure(Exception):
    """The reconstruction budget ran out before a generable form was found."""


def _subst_k(body: Term, kvars: tuple[Var, ...],
             terms: tuple[Term, ...]) -> Term:
    return substitute(body, {k.name: t for k, t in zip(kvars, terms)})


def _model_const(model: Assignment, k: Var) -> Term:
    """The model's value of ``k`` as a constant (0 or false if unset)."""
    if k.sort == INT:
        return IntConst(int(model.get(k.name, 0)))
    return BoolConst(bool(model.get(k.name, False)))


def select_terms(model: Assignment, kvars: tuple[Var, ...],
                 body: Term) -> tuple[Term, ...]:
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
            others = free_vars(t) & kset
            if others:
                # A bound over other instantiation variables is usable
                # once all of them are chosen: their picks replace them.
                if any(o.name not in chosen for o in others):
                    continue
                t = substitute(t, chosen)
            try:
                sat_here = bool(evaluate(atom, dict(model)))
                val = evaluate(t, dict(model))
            except EvalError:
                continue
            # Bounds from atoms the model falsifies still make sound
            # candidates (the progress filter below vets them); they
            # just rank behind the satisfied ones.
            tier = 0 if sat_here else 3
            order = print_term(canonical_key(t))
            if kind == "eq":
                candidates.append((tier + 0, (order,), t))
            elif kind == "lower":
                candidates.append((tier + 1, (-val, order), t))
            else:
                candidates.append((tier + 2, (val, order), t))
        candidates.sort(key=lambda c: (c[0], c[1]))
        pick: Optional[Term] = None
        for _, _, t in candidates:
            trial = dict(chosen)
            trial[k.name] = t
            for rest in kvars[j + 1:]:
                trial.setdefault(rest.name, _model_const(model, rest))
            if body_holds(trial):
                pick = t
                break
        if pick is None:
            pick = _model_const(model, k)
        chosen[k.name] = pick
        picked.append(pick)
    return tuple(picked)


def solve_cegqi(fo: FirstOrderForm, max_iters: int = 64,
                deadline: Optional[float] = None,
                stats: Optional[SolveStats] = None):
    """Run the instantiation loop; returns Solved or GaveUp.

    The result carries the instance trace; the solution itself is left
    for ``extract_solution`` since it needs the problem for parameter
    naming. Raises TimedOut once ``deadline`` (a time.monotonic() value)
    has passed at the start of an iteration.

    All solver calls of the loop share one ``Conflicts`` store. The
    loop adds to ``stats`` (a fresh record by default) its instances
    (``cegqi_iterations``) and the store's counts: ``cegqi_conflicts``
    (conflicts learned) and ``cegqi_pruned`` (branches they cut), also
    when the loop gives up or times out.
    """
    stats = SolveStats() if stats is None else stats
    instances: list[tuple[Term, ...]] = []
    conflicts = Conflicts()
    try:
        return _cegqi_loop(fo, instances, max_iters, deadline, conflicts)
    except ResourceLimit:
        return GaveUp("resource-limit", InstanceTrace(tuple(instances)))
    finally:
        stats.cegqi_iterations += len(instances)
        stats.cegqi_conflicts += conflicts.learned
        stats.cegqi_pruned += conflicts.pruned


def _cegqi_loop(fo: FirstOrderForm, instances, max_iters, deadline,
                conflicts: Conflicts):
    kvars = fo.instvars
    pos_body = normalize(fo.pos_body)
    gamma: list[Term] = []  # the normalized instances
    while True:
        check_deadline(deadline)
        core = check_sat(and_(*gamma), conflicts) if gamma else Sat({})
        if isinstance(core, Unsat):
            return Solved(InstanceTrace(tuple(instances)))
        full = check_sat(and_(*gamma, pos_body), conflicts)
        if isinstance(full, Unsat):
            return GaveUp("infeasible", InstanceTrace(tuple(instances)))
        if len(instances) >= max_iters:
            return GaveUp("iteration-cap", InstanceTrace(tuple(instances)))
        terms = select_terms(full.model, kvars, fo.pos_body)
        instances.append(terms)
        gamma.append(normalize(_subst_k(fo.body, kvars, terms)))


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


def _sample(want: Term, g: Grammar) -> Sample:
    """Six fixed rows that bind the grammar's parameters and every free
    variable of ``want``, and ``want``'s values at them. In row i, the
    k-th variable (parameters first, then the others by name) is
    (7i + 13k) mod 11 - 5, or, for a Bool one, whether i + k is even."""
    extra = sorted(free_vars(want) - set(g.params), key=lambda v: v.name)
    variables = list(g.params) + extra
    rows = [{v.name: (7 * i + 13 * k) % 11 - 5 if v.sort == INT
             else (i + k) % 2 == 0 for k, v in enumerate(variables)}
            for i in range(6)]
    return rows, tuple(evaluate(want, row) for row in rows)


def _recon_term(t: Term, nt: str, g: Grammar, budget: int,
                pool: KeyedPool, deadline: Optional[float] = None) -> Term:
    """A term ``nt`` derives that is equivalent to ``t``: ``t`` itself,
    else the smallest term with ``t``'s canonical key, else a repair of
    ``t``'s children under its operator, else the first term up to the
    budget, in size order, that the solver proves equivalent.

    The terms come from ``pool``, through ``Grammar.terms_upto``: below
    the budget, one size level at a time, each level built and keyed
    once for the whole reconstruction. The call for the budget level
    computes each candidate's values at ``_sample``'s rows from its
    children's, and builds and keys only the candidates whose values
    equal ``t``'s; the solver sees only them. Equivalent terms agree at
    every row, so no other term can be the key hit or an equivalent
    term.
    """
    check_deadline(deadline)
    if g.generates(t, nt):
        return t
    # Look the normal form up one size level at a time: most solutions
    # match a small term, and the largest level costs the most.
    want = canonical_key(t)
    for size in range(budget):
        hit = g.terms_upto(size, nt, deadline, pool=pool).get(want)
        if hit is not None:
            return hit
    matching = g.terms_upto(budget, nt, deadline, sample=_sample(want, g),
                            pool=pool)
    hit = matching.get(want)
    if hit is not None:
        return hit
    check_deadline(deadline)
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
    for c in matching.values():
        check_deadline(deadline)
        if are_equivalent(c, t):
            return c
    raise ReconstructionFailure(
        f"no generable equivalent of size <= {budget} at {nt}")


def reconstruct(s: Solution, g: Grammar, budget: int = 3,
                deadline: Optional[float] = None,
                stats: Optional[SolveStats] = None) -> Solution:
    """Equivalent solution whose bodies the grammar generates.

    All bodies are reconstructed from one ``KeyedPool`` of ``g``, which
    grows as the lookups ask for sizes. The pool adds to ``stats`` (a
    fresh record by default) as it works: ``recon_keyed`` counts the
    terms keyed, ``recon_scanned`` the budget-level candidates whose
    values were computed, also when reconstruction fails.

    Raises ReconstructionFailure when the size budget is exhausted and
    TimedOut once ``deadline`` passes.
    """
    out: Solution = {}
    pool = KeyedPool(g, stats)
    for name, lam in s.items():
        body = _recon_term(lam.body, g.start, g, budget, pool, deadline)
        out[name] = Lambda(lam.params, body)
    return out
