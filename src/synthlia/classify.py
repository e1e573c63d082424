"""Conjecture classification and single-invocation transformations.

Classifies a synthesis problem as an input-output example conjecture, a
single-invocation conjecture, or neither, and implements the two worked
normalization patterns that turn certain non-single-invocation problems
into equivalent single-invocation ones: lifting ground-argument
invocations to guarded universal ones, and eliminating auxiliary
universals through solvable equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .problem import SynthProblem
from .terms import (
    INT,
    App,
    BoolConst,
    IntConst,
    Term,
    UFApp,
    Var,
    Value,
    and_,
    eq,
    fresh_name,
    free_vars,
    implies,
    map_uf_apps,
    not_,
    substitute,
    uf_apps,
)
from .rewrite import unit_bound


@dataclass(frozen=True)
class IOExamples:
    points: tuple[tuple[tuple[Value, ...], tuple[Value, ...]], ...]


@dataclass(frozen=True)
class SingleInvocation:
    pass


@dataclass(frozen=True)
class NonSingleInvocation:
    pass


ConjectureClass = object

SINGLE_INVOCATION = SingleInvocation()
NON_SINGLE_INVOCATION = NonSingleInvocation()


@dataclass(frozen=True)
class FirstOrderForm:
    instvars: tuple[Var, ...]      # one fresh z per synthesized function
    body: Term                     # not(P[z, x]), no unknown functions
    pos_body: Term                 # P[z, x]


class NotTransformable(Exception):
    """Neither single-invocation inference pattern applies."""


class WrongClass(Exception):
    pass


def conjuncts(t: Term) -> list[Term]:
    if isinstance(t, App) and t.op == "and":
        out = []
        for a in t.args:
            out.extend(conjuncts(a))
        return out
    return [t]


def shared_invocation_tuple(p: SynthProblem) -> Optional[tuple[Term, ...]]:
    """The single argument tuple all invocations use, or None."""
    tuples = {ufa.args for ufa in uf_apps(p.constraint)}
    if len(tuples) != 1:
        return None
    return next(iter(tuples))


def _is_single_invocation(p: SynthProblem) -> bool:
    args = shared_invocation_tuple(p)
    if args is None:
        return not uf_apps(p.constraint) and not p.universals
    if not all(isinstance(a, Var) for a in args):
        return False
    if len(set(args)) != len(args):
        return False
    return set(args) == set(p.universals)


def _const_value(t: Term) -> Optional[Value]:
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, BoolConst):
        return t.value
    return None


def _split_equalities(t: Term) -> Optional[list[tuple[Term, Term]]]:
    out = []
    for c in conjuncts(t):
        if not (isinstance(c, App) and c.op == "="):
            return None
        out.append((c.args[0], c.args[1]))
    return out


def _decompose_implication(c: Term) -> Optional[tuple[Term, Term]]:
    """Split a conjunct into (antecedent, consequent), accepting both the
    ``=>`` form and its normalized ``or(not ..., ...)`` rendering."""
    if isinstance(c, App) and c.op == "=>":
        return c.args[0], c.args[1]
    if isinstance(c, App) and c.op == "or":
        pos = [a for a in c.args if not (isinstance(a, App) and a.op == "not")]
        negs = [a.args[0] for a in c.args if isinstance(a, App) and a.op == "not"]
        if len(pos) == 1 and negs:
            return and_(*negs), pos[0]
    return None


def _io_point(p: SynthProblem, c: Term):
    """Match one conjunct against the shape  x = i  =>  f(x) = o."""
    dec = _decompose_implication(c)
    if dec is None:
        return None
    ante, cons = dec
    eqs = _split_equalities(ante)
    if eqs is None:
        return None
    inputs: dict[str, Value] = {}
    for a, b in eqs:
        if isinstance(a, Var) and _const_value(b) is not None:
            v, val = a, _const_value(b)
        elif isinstance(b, Var) and _const_value(a) is not None:
            v, val = b, _const_value(a)
        else:
            return None
        if v not in p.universals or (v.name in inputs and inputs[v.name] != val):
            return None
        inputs[v.name] = val
    if set(inputs) != {u.name for u in p.universals}:
        return None
    ceqs = _split_equalities(cons)
    if ceqs is None:
        return None
    outputs: dict[str, Value] = {}
    for a, b in ceqs:
        if isinstance(a, UFApp) and _const_value(b) is not None:
            ufa, val = a, _const_value(b)
        elif isinstance(b, UFApp) and _const_value(a) is not None:
            ufa, val = b, _const_value(a)
        else:
            return None
        if ufa.args != tuple(p.universals) or ufa.fname in outputs:
            return None
        outputs[ufa.fname] = val
    if set(outputs) != {f.name for f in p.functions}:
        return None
    ins = tuple(inputs[u.name] for u in p.universals)
    outs = tuple(outputs[f.name] for f in p.functions)
    return ins, outs


def classify(p: SynthProblem) -> ConjectureClass:
    """Class of the conjecture: IOExamples, SingleInvocation, or neither.
    The answer is kept on ``p``: a problem is immutable, so each is
    classified once however often it is asked."""
    cls = getattr(p, "_class", None)
    if cls is None:
        cls = _classify(p)
        object.__setattr__(p, "_class", cls)
    return cls


def _classify(p: SynthProblem) -> ConjectureClass:
    points = []
    io = bool(p.universals)
    for c in conjuncts(p.constraint):
        pt = _io_point(p, c)
        if pt is None:
            io = False
            break
        points.append(pt)
    if io:
        return IOExamples(tuple(points))
    if _is_single_invocation(p):
        return SINGLE_INVOCATION
    return NON_SINGLE_INVOCATION


def to_first_order(p: SynthProblem) -> FirstOrderForm:
    """Replace each invocation f_i(x) by a fresh z_i and negate."""
    cls = classify(p)
    if isinstance(cls, NonSingleInvocation):
        raise WrongClass("conjecture is not single-invocation")
    zs = {}
    for f in p.functions:
        zs[f.name] = Var(fresh_name("z"), f.fsort.ret)
    pos = map_uf_apps(p.constraint, lambda u: zs[u.fname])
    return FirstOrderForm(
        instvars=tuple(zs[f.name] for f in p.functions),
        body=not_(pos),
        pos_body=pos,
    )


# ---------------------------------------------------------------------------
# Single-invocation inference


def _lift_ground_invocations(p: SynthProblem) -> Optional[SynthProblem]:
    """f(c) = v conjuncts become forall x. x = c => f(x) = v."""
    apps = uf_apps(p.constraint)
    if not apps or p.universals:
        return None
    if not all(all(_const_value(a) is not None for a in ufa.args)
               for ufa in apps):
        return None
    arities = {ufa.fsort.params for ufa in apps}
    if len(arities) != 1:
        return None
    param_sorts = next(iter(arities))
    avoid = {v.name for v in free_vars(p.constraint)}
    fresh = tuple(Var(fresh_name("x", avoid), s) for s in param_sorts)
    new_conjuncts = []
    for c in conjuncts(p.constraint):
        capps = uf_apps(c)
        if not capps:
            new_conjuncts.append(c)
            continue
        tuples = {ufa.args for ufa in capps}
        if len(tuples) != 1:
            return None
        args = next(iter(tuples))
        guard = and_(*[eq(v, a) for v, a in zip(fresh, args)])
        lifted = map_uf_apps(c, lambda u: UFApp(u.fname, u.fsort, fresh))
        new_conjuncts.append(implies(guard, lifted))
    return SynthProblem(p.functions, fresh, and_(*new_conjuncts))


def _eliminate_aux(p: SynthProblem) -> Optional[SynthProblem]:
    args = shared_invocation_tuple(p)
    if args is None or not all(isinstance(a, Var) for a in args):
        return None
    if len(set(args)) != len(args):
        return None
    aux = [u for u in p.universals if u not in args]
    if not aux:
        return None
    work = []
    for c in conjuncts(p.constraint):
        dec = _decompose_implication(c)
        if dec is None:
            work.append((None, c))
        else:
            ante, cons = dec
            if isinstance(ante, App) and ante.op == "or":
                work.extend((d, cons) for d in ante.args)
            else:
                work.append((ante, cons))
    for z in aux:
        nxt = []
        for ante, cons in work:
            if z not in free_vars(cons) and (
                    ante is None or z not in free_vars(ante)):
                nxt.append((ante, cons))
                continue
            if ante is None:
                return None
            parts = conjuncts(ante)
            sol = None
            for i, a in enumerate(parts):
                bound = unit_bound(a, z) if z.sort == INT else None
                if bound is not None and bound[0] == "eq":
                    sol = bound[1]
                    parts = parts[:i] + parts[i + 1:]
                    break
            if sol is None:
                return None
            sub = {z.name: sol}
            ante2 = and_(*[substitute(a, sub) for a in parts]) \
                if parts else BoolConst(True)
            nxt.append((ante2, substitute(cons, sub)))
        work = nxt
    new_conjuncts = [cons if ante is None or ante == BoolConst(True)
                     else implies(ante, cons)
                     for ante, cons in work]
    keep = tuple(u for u in p.universals if u in args)
    return SynthProblem(p.functions, keep, and_(*new_conjuncts))


def to_single_invocation(p: SynthProblem) -> SynthProblem:
    """Equivalent single-invocation form of ``p``, or NotTransformable."""
    if not isinstance(classify(p), NonSingleInvocation):
        return p
    lifted = _lift_ground_invocations(p)
    if lifted is not None and not isinstance(classify(lifted),
                                             NonSingleInvocation):
        return lifted
    reduced = _eliminate_aux(p)
    if reduced is not None and not isinstance(classify(reduced),
                                              NonSingleInvocation):
        return reduced
    raise NotTransformable("no single-invocation normalization applies")
