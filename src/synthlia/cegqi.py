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
from .enumsearch import Context, KeyedPool, Sample
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
    SortError,
    Term,
    Value,
    Var,
    and_,
    evaluate,
    free_vars,
    ite,
    not_,
    print_term,
    substitute,
    subterms,
    well_sorted,
)

Assignment = Mapping[str, Value]


@dataclass(frozen=True)
class GaveUp:
    reason: str
    instances: tuple[tuple[Term, ...], ...]


class ReconstructionFailure(Exception):
    """The reconstruction budget ran out before a generable form was found."""


def _subst_k(body: Term, kvars: tuple[Var, ...],
             terms: tuple[Term, ...]) -> Term:
    return substitute(body, {k.name: t for k, t in zip(kvars, terms)})


def _key(t: Term) -> Term:
    """The canonical key of ``t``, checked for sorts first:
    ``canonical_key`` leaves that check to the maker of its terms."""
    if not well_sorted(t):
        raise SortError("canonical_key requires a well-sorted term")
    return canonical_key(t)


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
            order = print_term(_key(t))
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
                ctx: Optional[Context] = None):
    """Run the instantiation loop. Returns the instantiation tuples, in
    the order they were added, once their instances refute the negated
    conjecture; otherwise GaveUp with the reason and the tuples so far.

    The solution itself is left for ``extract_solution``, since it
    needs the problem for parameter naming. Raises TimedOut once the
    deadline of ``ctx`` has passed, at the start of an iteration or
    inside one of its solver calls.

    All solver calls of the loop share one ``Conflicts`` store. The
    loop adds to the record of ``ctx`` its instances (``cegqi_iterations``)
    and the store's counts: ``cegqi_conflicts`` (conflicts learned) and
    ``cegqi_pruned`` (branches they cut), also when the loop gives up
    or times out.
    """
    ctx = ctx or Context()
    kvars = fo.instvars
    pos_body = normalize(fo.pos_body)
    instances: list[tuple[Term, ...]] = []
    gamma: list[Term] = []  # the normalized instances not P[t_i, x]
    conflicts = Conflicts()
    try:
        while True:
            ctx.check()
            core = (check_sat(and_(*gamma), conflicts, ctx.deadline)
                    if gamma else Sat({}))
            if isinstance(core, Unsat):
                return tuple(instances)
            full = check_sat(and_(*gamma, pos_body), conflicts,
                             ctx.deadline)
            if isinstance(full, Unsat):
                return GaveUp("infeasible", tuple(instances))
            if len(instances) >= max_iters:
                return GaveUp("iteration-cap", tuple(instances))
            terms = select_terms(full.model, kvars, fo.pos_body)
            instances.append(terms)
            gamma.append(normalize(not_(_subst_k(fo.pos_body, kvars,
                                                 terms))))
    except ResourceLimit:
        return GaveUp("resource-limit", tuple(instances))
    finally:
        ctx.stats.cegqi_iterations += len(instances)
        ctx.stats.cegqi_conflicts += conflicts.learned
        ctx.stats.cegqi_pruned += conflicts.pruned


def extract_solution(instances: tuple[tuple[Term, ...], ...],
                     p: SynthProblem, fo: FirstOrderForm) -> Solution:
    """Nested-conditional solution from refuting instantiation tuples.

    For each function the body is an ite chain over the tuples in
    order, with the final tuple as the default branch, then renamed to
    the function's declared parameters and normalized.
    """
    if not instances:
        raise ValueError("cannot extract a solution from no instances")
    args = shared_invocation_tuple(p)
    if args is None:
        args = tuple(p.universals)
    bodies: dict[str, Term] = {}
    for j, f in enumerate(p.functions):
        body = instances[-1][j]
        for i in range(len(instances) - 2, -1, -1):
            cond = _subst_k(fo.pos_body, fo.instvars, instances[i])
            body = ite(cond, instances[i][j], body)
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
                pool: KeyedPool) -> Term:
    """A term ``nt`` derives that is equivalent to ``t``: ``t`` itself,
    else the smallest term with ``t``'s canonical key, else a repair of
    ``t``'s children under its operator, else the first term up to the
    budget, in size order, that the solver proves equivalent.

    The terms come from ``pool``, through ``Grammar.terms_upto``: one
    call below the budget, whose levels are built and keyed once for
    the whole reconstruction, smallest first whatever the order of the
    lookups, and one for the budget level. The latter
    computes each candidate's values at ``_sample``'s rows from its
    children's, and builds and keys only the candidates whose values
    equal ``t``'s; the solver sees only them. Equivalent terms agree at
    every row, so no other term can be the key hit or an equivalent
    term. The deadline and the counts are those of the pool's context.
    """
    pool.ctx.check()
    if g.generates(t, nt):
        return t
    # Look the normal form up below the budget first: the pool keeps a
    # key's first, smallest term, and the budget level costs the most.
    want = _key(t)
    if budget > 0:
        hit = g.terms_upto(budget - 1, nt, pool=pool).get(want)
        if hit is not None:
            return hit
    matching = g.terms_upto(budget, nt, sample=_sample(want, g), pool=pool)
    hit = matching.get(want)
    if hit is not None:
        return hit
    pool.ctx.check()
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
                kids = tuple(_recon_term(a, s.name, g, budget, pool)
                             for a, s in zip(t.args, rhs.args))
            except ReconstructionFailure:
                continue
            return App(t.op, kids)
    for c in matching.values():
        pool.ctx.check()
        if are_equivalent(c, t, pool.ctx.deadline):
            return c
    raise ReconstructionFailure(
        f"no generable equivalent of size <= {budget} at {nt}")


def reconstruct(body: Term, g: Grammar, budget: int = 3,
                ctx: Optional[Context] = None) -> Term:
    """An equivalent body that the grammar generates from its start.

    The body is reconstructed from one ``KeyedPool`` of ``g``, which
    grows as the lookups ask for sizes; its answers do not depend on
    the order they are asked in. The pool adds to the record of
    ``ctx`` as it works: ``recon_keyed`` counts the terms keyed,
    ``recon_scanned`` the budget-level candidates whose values were
    computed, also when reconstruction fails.

    Raises ReconstructionFailure when the size budget is exhausted and
    TimedOut at the deadline of ``ctx``, also inside a solver call.
    """
    return _recon_term(body, g.start, g, budget, KeyedPool(g, ctx))
