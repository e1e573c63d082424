"""Simplification of LIA+Bool terms to a canonical form.

``normalize`` produces a theory-equivalent simplified form: polynomials
are flattened into coefficient-sorted monomial sums with the constant
first, comparisons are canonicalized to ``<=`` / ``=`` over a normalized
difference, double negation is eliminated, and/or are flattened with
duplicate and constant operands removed, and ite with a constant
condition or equal branches is folded.

Normal forms are deterministic but deliberately not unique across all
equivalent terms; equal normal forms imply theory equivalence, never the
converse.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .terms import (
    BOOL,
    FALSE,
    INT,
    TRUE,
    App,
    BoolConst,
    IntConst,
    SortError,
    Term,
    UFApp,
    Var,
    add,
    free_vars,
    mul,
    sort_of,
    well_sorted,
)

# A linear form is (constant, monomials) where monomials maps an opaque
# normalized Int term (variable, ite, unknown-function application) to a
# nonzero integer coefficient.
Linear = tuple[int, tuple[tuple[Term, int], ...]]


def serialize(t: Term) -> str:
    """Deterministic, injective rendering of a term tree."""
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UFApp):
        return "(@{} {})".format(t.fname, " ".join(serialize(a) for a in t.args))
    if isinstance(t, App):
        return "({} {})".format(t.op, " ".join(serialize(a) for a in t.args))
    raise SortError("cannot serialize a lambda")


def _mono_key(m: Term) -> tuple:
    if isinstance(m, Var):
        return (0, m.name)
    return (1, serialize(m))


def _lin_to_term(lin: Linear) -> Term:
    const, monos = lin
    parts: list[Term] = []
    if const != 0 or not monos:
        parts.append(IntConst(const))
    for m, c in monos:
        parts.append(m if c == 1 else mul(c, m))
    return add(*parts)


def _lin_add(a: Linear, b: Linear, scale: int = 1) -> Linear:
    const = a[0] + scale * b[0]
    acc = dict(a[1])
    for m, c in b[1]:
        acc[m] = acc.get(m, 0) + scale * c
        if acc[m] == 0:
            del acc[m]
    monos = tuple(sorted(acc.items(), key=lambda mc: _mono_key(mc[0])))
    return (const, monos)


_ZERO: Linear = (0, ())


def _lin(t: Term) -> Linear:
    """Linear form of an Int term; non-linear nodes become opaque monomials."""
    if isinstance(t, IntConst):
        return (t.value, ())
    if isinstance(t, Var):
        return (0, ((t, 1),))
    if isinstance(t, UFApp):
        return (0, ((normalize(t), 1),))
    if not isinstance(t, App):
        raise SortError("a boolean constant in an Int position")
    if t.op == "+":
        out = _ZERO
        for a in t.args:
            out = _lin_add(out, _lin(a))
        return out
    if t.op == "*":
        c = t.args[0]
        assert isinstance(c, IntConst)
        return _lin_add(_ZERO, _lin(t.args[1]), c.value)
    if t.op == "ite":
        n = normalize(t)
        if isinstance(n, App) and n.op == "ite":
            return (0, ((n, 1),))
        return _lin(n)
    raise SortError(f"non-arithmetic operator {t.op} in an Int position")


def _diff(a: Term, b: Term) -> Linear:
    return _lin_add(_lin(a), _lin(b), -1)


def unit_bound(atom: Term, k: Var) -> Optional[tuple[str, Term]]:
    """The bound a comparison ``<=`` or ``=`` places on ``k`` when it is
    linear in ``k`` with a unit coefficient: ("upper" | "lower" | "eq",
    t) with t free of ``k``, or None."""
    if not (isinstance(atom, App) and atom.op in ("<=", "=")):
        return None
    try:
        const, monos = _diff(atom.args[0], atom.args[1])
    except SortError:
        return None
    rest = dict(monos)
    c = rest.pop(k, 0)
    if abs(c) != 1 or any(k in free_vars(m) for m in rest):
        return None
    # atom is  c*k + rest <= 0  (or = 0), so  k  cmp  -rest/c.
    t = _lin_to_term(
        (-const * c, tuple((m, -cc * c) for m, cc in rest.items())))
    if atom.op == "=":
        return ("eq", t)
    return ("upper", t) if c > 0 else ("lower", t)


def _le_atom(diff: Linear) -> Term:
    """Canonical atom for ``diff <= 0``."""
    const, monos = diff
    if not monos:
        return TRUE if const <= 0 else FALSE
    pos = [(m, c) for m, c in monos if c > 0]
    neg = [(m, -c) for m, c in monos if c < 0]
    lhs = _lin_to_term((const if const > 0 else 0, tuple(pos)))
    rhs = _lin_to_term((-const if const < 0 else 0, tuple(neg)))
    return App("<=", (lhs, rhs))


def _eq_atom(diff: Linear) -> Term:
    const, monos = diff
    if not monos:
        return TRUE if const == 0 else FALSE
    if monos[0][1] < 0:
        const, monos = -const, tuple((m, -c) for m, c in monos)
    pos = [(m, c) for m, c in monos if c > 0]
    neg = [(m, -c) for m, c in monos if c < 0]
    lhs = _lin_to_term((const if const > 0 else 0, tuple(pos)))
    rhs = _lin_to_term((-const if const < 0 else 0, tuple(neg)))
    return App("=", (lhs, rhs))


def negate_norm(t: Term) -> Term:
    """Normalized negation of an already normalized boolean term."""
    if isinstance(t, BoolConst):
        return BoolConst(not t.value)
    if isinstance(t, App):
        if t.op == "not":
            return t.args[0]
        if t.op == "<=":
            # not(L <= R)  <=>  R + 1 <= L   (integers)
            d = _lin_add(_lin_add(_ZERO, _diff(t.args[0], t.args[1]), -1),
                         (1, ()))
            return _le_atom(d)
    return App("not", (t,))


def _norm_junction(op: str, args: tuple[Term, ...]) -> Term:
    unit, absorb = (TRUE, FALSE) if op == "and" else (FALSE, TRUE)
    flat: list[Term] = []
    stack = list(args)
    while stack:
        a = stack.pop(0)
        n = normalize(a)
        if isinstance(n, App) and n.op == op:
            stack = list(n.args) + stack
        elif n == absorb:
            return absorb
        elif n != unit:
            flat.append(n)
    seen: dict[str, Term] = {}
    for n in flat:
        seen.setdefault(serialize(n), n)
    keys = set(seen)
    for n in seen.values():
        if serialize(negate_norm(n)) in keys:
            return absorb
    ordered = [seen[k] for k in sorted(seen)]
    if not ordered:
        return unit
    if len(ordered) == 1:
        return ordered[0]
    return App(op, tuple(ordered))


@lru_cache(maxsize=1 << 20)
def normalize(t: Term) -> Term:
    """Simplified form of a well-sorted, lambda-free term."""
    if isinstance(t, (IntConst, BoolConst, Var)):
        return t
    if isinstance(t, UFApp):
        return UFApp(t.fname, t.fsort, tuple(normalize(a) for a in t.args))
    assert isinstance(t, App)
    op = t.op
    if op in ("+", "*"):
        return _lin_to_term(_lin(t))
    if op == "<=":
        return _le_atom(_diff(t.args[0], t.args[1]))
    if op == "<":
        return _le_atom(_lin_add(_diff(t.args[0], t.args[1]), (1, ())))
    if op == ">=":
        return _le_atom(_diff(t.args[1], t.args[0]))
    if op == ">":
        return _le_atom(_lin_add(_diff(t.args[1], t.args[0]), (1, ())))
    if op == "=":
        if sort_of(t.args[0]) == INT:
            return _eq_atom(_diff(t.args[0], t.args[1]))
        a, b = normalize(t.args[0]), normalize(t.args[1])
        if isinstance(a, BoolConst):
            return b if a.value else normalize(App("not", (b,)))
        if isinstance(b, BoolConst):
            return a if b.value else normalize(App("not", (a,)))
        if serialize(a) == serialize(b):
            return TRUE
        if serialize(a) > serialize(b):
            a, b = b, a
        return App("=", (a, b))
    if op == "not":
        return negate_norm(normalize(t.args[0]))
    if op in ("and", "or"):
        return _norm_junction(op, t.args)
    if op == "=>":
        return _norm_junction("or", (App("not", (t.args[0],)), t.args[1]))
    if op == "ite":
        cond = normalize(t.args[0])
        then, els = t.args[1], t.args[2]
        if isinstance(cond, BoolConst):
            return normalize(then if cond.value else els)
        if isinstance(cond, App) and cond.op == "not":
            cond, then, els = cond.args[0], els, then
        nt_, ne = normalize(then), normalize(els)
        if serialize(nt_) == serialize(ne):
            return nt_
        if sort_of(nt_) == BOOL:
            if nt_ == TRUE and ne == FALSE:
                return cond
            if nt_ == FALSE and ne == TRUE:
                return negate_norm(cond)
        return App("ite", (cond, nt_, ne))
    raise SortError(f"unknown operator {op!r}")


def canonical_key(t: Term) -> str:
    """Key equal exactly for terms with identical normal forms."""
    if not well_sorted(t):
        raise SortError("canonical_key requires a well-sorted term")
    return serialize(normalize(t))
