"""Simplification of LIA+Bool terms to a canonical form.

``normalize`` produces a theory-equivalent simplified form: polynomials
are flattened into coefficient-sorted monomial sums with the constant
first, comparisons are canonicalized to ``<=`` / ``=`` over a normalized
difference, double negation is eliminated, and/or are flattened with
duplicate and constant operands removed, and ite with a constant
condition or equal branches is folded.

Normal forms are deterministic but deliberately not unique across all
equivalent terms; equal normal forms imply theory equivalence, never the
converse. A normal form is its own canonical key: terms are hashable and
compare structurally, so keys are compared and indexed as terms, and
``print_term`` only prints and orders them.

Each linear form is built in one pass: ``_collect`` adds every scaled
summand into one accumulator, whose monomials are sorted once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .terms import (
    BOOL,
    COMPARISONS,
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
    print_term,
    sort_of,
)

# A linear form is (constant, monomials) where monomials pairs each opaque
# normalized Int term (variable, ite, unknown-function application) with a
# nonzero integer coefficient, in ``_mono_key`` order.
Linear = tuple[int, tuple[tuple[Term, int], ...]]


def _mono_key(m: Term) -> tuple:
    if isinstance(m, Var):
        return (0, m.name)
    return (1, print_term(m))


def _lin_to_term(lin: Linear) -> Term:
    const, monos = lin
    parts: list[Term] = []
    if const != 0 or not monos:
        parts.append(IntConst(const))
    for m, c in monos:
        parts.append(m if c == 1 else mul(c, m))
    return add(*parts)


def _collect(t: Term, scale: int, acc: dict) -> int:
    """Add ``scale * t`` into ``acc`` (monomial -> coefficient) and
    return its constant; non-linear nodes become opaque monomials."""
    if isinstance(t, IntConst):
        return scale * t.value
    if isinstance(t, App):
        if t.op == "+":
            return sum(_collect(a, scale, acc) for a in t.args)
        if t.op == "*":
            return _collect(t.args[1], scale * t.args[0].value, acc)
        if t.op != "ite":
            raise SortError(
                f"non-arithmetic operator {t.op} in an Int position")
        t = normalize(t)
        if not (isinstance(t, App) and t.op == "ite"):
            return _collect(t, scale, acc)
    elif isinstance(t, UFApp):
        t = normalize(t)
    elif not isinstance(t, Var):
        raise SortError("a boolean constant in an Int position")
    acc[t] = acc.get(t, 0) + scale
    return 0


def _linear(const: int, acc: dict) -> Linear:
    """The linear form of ``const + acc``: zero coefficients dropped,
    monomials sorted once."""
    monos = sorted(((m, c) for m, c in acc.items() if c),
                   key=lambda mc: _mono_key(mc[0]))
    return (const, tuple(monos))


def _lin(t: Term) -> Linear:
    """Linear form of an Int term."""
    acc: dict = {}
    return _linear(_collect(t, 1, acc), acc)


def atom_diff(t: App) -> Linear:
    """The linear form ``d`` of a comparison: ``t`` holds exactly when
    ``d <= 0`` for ``<=``, ``<``, ``>=`` and ``>``, and when ``d = 0``
    for an Int ``=``. The one place that maps comparisons to linear
    forms, for the rewriter and the QF solver alike."""
    a, b = t.args
    if t.op in (">=", ">"):
        a, b = b, a
    elif t.op not in ("<=", "<", "="):
        raise SortError(f"{t.op!r} is not a comparison")
    acc: dict = {}
    const = _collect(a, 1, acc) + _collect(b, -1, acc)
    return _linear(const + (1 if t.op in ("<", ">") else 0), acc)


def unit_bound(atom: Term, k: Var) -> Optional[tuple[str, Term]]:
    """The bound a comparison ``<=`` or ``=`` places on ``k`` when it is
    linear in ``k`` with a unit coefficient: ("upper" | "lower" | "eq",
    t) with t free of ``k``, or None."""
    if not (isinstance(atom, App) and atom.op in ("<=", "=")):
        return None
    try:
        const, monos = atom_diff(atom)
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


def _sides(const: int, monos) -> tuple[Term, Term]:
    """``const + monos`` split into the sides of ``lhs - rhs``, each
    with nonnegative coefficients."""
    pos = [(m, c) for m, c in monos if c > 0]
    neg = [(m, -c) for m, c in monos if c < 0]
    return (_lin_to_term((const if const > 0 else 0, tuple(pos))),
            _lin_to_term((-const if const < 0 else 0, tuple(neg))))


def _le_atom(diff: Linear) -> Term:
    """Canonical atom for ``diff <= 0``."""
    const, monos = diff
    if not monos:
        return TRUE if const <= 0 else FALSE
    return App("<=", _sides(const, monos))


def _eq_atom(diff: Linear) -> Term:
    """Canonical atom for ``diff = 0``, its first coefficient positive."""
    const, monos = diff
    if not monos:
        return TRUE if const == 0 else FALSE
    if monos[0][1] < 0:
        const, monos = -const, tuple((m, -c) for m, c in monos)
    return App("=", _sides(const, monos))


def negate_norm(t: Term) -> Term:
    """Normalized negation of an already normalized boolean term."""
    if isinstance(t, BoolConst):
        return BoolConst(not t.value)
    if isinstance(t, App):
        if t.op == "not":
            return t.args[0]
        if t.op == "<=":
            # not(d <= 0)  <=>  1 - d <= 0   (integers)
            const, monos = atom_diff(t)
            return _le_atom((1 - const, tuple((m, -c) for m, c in monos)))
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
    seen = dict.fromkeys(flat)
    if any(negate_norm(n) in seen for n in seen):
        return absorb
    ordered = sorted(seen, key=print_term)
    if not ordered:
        return unit
    if len(ordered) == 1:
        return ordered[0]
    return App(op, tuple(ordered))


# The memo is sized by one solve's working set, not by the process. In
# the seed-1 benchmark workloads one solve touches a median of 385
# entries (max 10,174) on nonsi-enum, 191 (max 1,085) on si-portfolio
# and at most 100 on si-cegqi, while all 306 io-enum solves together
# touch 933. So 4,096 entries keep io-enum's reuse across problems and
# hold all but 2 of the 120 nonsi-enum working sets. A 2^20 memo grew
# to 61,205 entries on nonsi-enum (45 MB peak RSS against 22 MB with
# this bound); clearing it at every solve instead raised io-enum's
# misses from 933 to 21,758.
MEMO_ENTRIES = 1 << 12


@lru_cache(maxsize=MEMO_ENTRIES)
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
    if op in COMPARISONS:
        return _le_atom(atom_diff(t))
    if op == "=":
        if sort_of(t.args[0]) == INT:
            return _eq_atom(atom_diff(t))
        a, b = normalize(t.args[0]), normalize(t.args[1])
        if isinstance(a, BoolConst):
            return b if a.value else normalize(App("not", (b,)))
        if isinstance(b, BoolConst):
            return a if b.value else normalize(App("not", (a,)))
        if a == b:
            return TRUE
        if print_term(a) > print_term(b):
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
        if nt_ == ne:
            return nt_
        if sort_of(nt_) == BOOL:
            if nt_ == TRUE and ne == FALSE:
                return cond
            if nt_ == FALSE and ne == TRUE:
                return negate_norm(cond)
        return App("ite", (cond, nt_, ne))
    raise SortError(f"unknown operator {op!r}")


def canonical_key(t: Term) -> Term:
    """Key equal exactly for terms with identical normal forms: the
    normal form itself.

    ``t`` must be well-sorted, and the caller checks it where the term
    is made, so keying costs no walk over ``t``: the enumeration pools
    compose only from families whose every constructor
    ``enumsearch._compile`` has sort-checked, and ``cegqi`` checks its
    terms with ``well_sorted`` before it keys them. An ill-sorted term
    may raise SortError or get a meaningless key."""
    return normalize(t)
