"""Sorts, terms and formulas for linear integer arithmetic with booleans.

Terms are immutable (frozen dataclasses) and hashable, so they can be
shared freely, memoized, and used as dictionary keys. Integer values are
Python ints, i.e. arbitrary precision.

Subtraction and unary minus are normalized away at construction time:
``sub(a, b)`` builds ``a + (-1)*b``, so the only additive operator in a
term tree is ``+`` and the only multiplication is by a literal constant
(linearity).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

INT = "Int"
BOOL = "Bool"

Value = Union[int, bool]


@dataclass(frozen=True)
class FunSort:
    params: tuple[str, ...]
    ret: str

    def __post_init__(self):
        for s in self.params + (self.ret,):
            if s not in (INT, BOOL):
                raise SortError(f"function sorts must be over Int/Bool, got {s!r}")


Sort = Union[str, FunSort]


class SortError(Exception):
    """A term is not well-sorted."""


class EvalError(Exception):
    """Evaluation hit an unbound variable or a sort mismatch."""


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class App:
    """Application of a builtin operator.

    Ops: + * <= < >= > = not and or => ite.  ``*`` is scalar
    multiplication and its first argument is always an IntConst.
    """

    op: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class UFApp:
    """Fully applied occurrence of a function-to-synthesize."""

    fname: str
    fsort: FunSort
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Lambda:
    params: tuple[Var, ...]
    body: "Term"


Term = Union[IntConst, BoolConst, Var, App, UFApp, Lambda]

COMPARISONS = {"<=", "<", ">=", ">"}


# ---------------------------------------------------------------------------
# Smart constructors


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def ivar(name: str) -> Var:
    return Var(name, INT)


def bvar(name: str) -> Var:
    return Var(name, BOOL)


def add(*args: Term) -> Term:
    if not args:
        return IntConst(0)
    if len(args) == 1:
        return args[0]
    return App("+", tuple(args))


def mul(c: int, t: Term) -> Term:
    if isinstance(t, IntConst):
        return IntConst(c * t.value)
    return App("*", (IntConst(c), t))


def neg(t: Term) -> Term:
    return mul(-1, t)


def sub(a: Term, b: Term) -> Term:
    return add(a, neg(b))


def le(a: Term, b: Term) -> Term:
    return App("<=", (a, b))


def lt(a: Term, b: Term) -> Term:
    return App("<", (a, b))


def ge(a: Term, b: Term) -> Term:
    return App(">=", (a, b))


def gt(a: Term, b: Term) -> Term:
    return App(">", (a, b))


def eq(a: Term, b: Term) -> Term:
    return App("=", (a, b))


def not_(a: Term) -> Term:
    return App("not", (a,))


def and_(*args: Term) -> Term:
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return App("and", tuple(args))


def or_(*args: Term) -> Term:
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return App("or", tuple(args))


def implies(a: Term, b: Term) -> Term:
    return App("=>", (a, b))


def ite(c: Term, a: Term, b: Term) -> Term:
    return App("ite", (c, a, b))


# ---------------------------------------------------------------------------
# Sorting


def sort_of(t: Term) -> str:
    """Sort of a term, raising SortError on any ill-sorted subterm."""
    if isinstance(t, IntConst):
        return INT
    if isinstance(t, BoolConst):
        return BOOL
    if isinstance(t, Var):
        if t.sort not in (INT, BOOL):
            raise SortError(f"variable {t.name} has non-base sort {t.sort!r}")
        return t.sort
    if isinstance(t, UFApp):
        if len(t.args) != len(t.fsort.params):
            raise SortError(f"{t.fname} applied to {len(t.args)} args, "
                            f"expects {len(t.fsort.params)}")
        for a, s in zip(t.args, t.fsort.params):
            if sort_of(a) != s:
                raise SortError(f"argument of {t.fname} has sort {sort_of(a)}")
        return t.fsort.ret
    if isinstance(t, Lambda):
        raise SortError("lambda may only appear as a solution body")
    assert isinstance(t, App)
    op, args = t.op, t.args
    if op == "+":
        if not args:
            raise SortError("empty sum")
        for a in args:
            if sort_of(a) != INT:
                raise SortError("+ expects Int arguments")
        return INT
    if op == "*":
        if len(args) != 2 or not isinstance(args[0], IntConst):
            raise SortError("* must multiply a literal constant and a term")
        if sort_of(args[1]) != INT:
            raise SortError("* expects an Int term")
        return INT
    if op in COMPARISONS:
        if len(args) != 2 or any(sort_of(a) != INT for a in args):
            raise SortError(f"{op} expects two Int arguments")
        return BOOL
    if op == "=":
        if len(args) != 2:
            raise SortError("= expects two arguments")
        if sort_of(args[0]) != sort_of(args[1]):
            raise SortError("= compares terms of different sorts")
        return BOOL
    if op == "not":
        if len(args) != 1 or sort_of(args[0]) != BOOL:
            raise SortError("not expects one Bool argument")
        return BOOL
    if op in ("and", "or"):
        for a in args:
            if sort_of(a) != BOOL:
                raise SortError(f"{op} expects Bool arguments")
        return BOOL
    if op == "=>":
        if len(args) != 2 or any(sort_of(a) != BOOL for a in args):
            raise SortError("=> expects two Bool arguments")
        return BOOL
    if op == "ite":
        if len(args) != 3:
            raise SortError("ite expects three arguments")
        if sort_of(args[0]) != BOOL:
            raise SortError("ite condition must be Bool")
        s1, s2 = sort_of(args[1]), sort_of(args[2])
        if s1 != s2:
            raise SortError("ite branches must share a sort")
        return s1
    raise SortError(f"unknown operator {op!r}")


def well_sorted(t: Term) -> bool:
    try:
        sort_of(t)
    except SortError:
        return False
    return True


# ---------------------------------------------------------------------------
# Evaluation


# Each builtin operator's value from its arguments' values: the one
# statement of the operators' meaning. ``evaluate`` applies it, and
# ``enumsearch.KeyedPool`` composes a term's values at sample points
# from its children's with it.
OP_VALUES: dict[str, Callable[..., Value]] = {
    "+": lambda *vals: sum(vals),
    "*": operator.mul,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
    "not": operator.not_,
    "and": lambda *vals: all(vals),
    "or": lambda *vals: any(vals),
    "=>": lambda a, b: (not a) or bool(b),
    "ite": lambda c, a, b: a if c else b,
}


def evaluate(t: Term, env: Mapping[str, Value],
             funs: Optional[Mapping[str, Lambda]] = None) -> Value:
    """Evaluate a term under an assignment and, optionally, an
    interpretation ``funs`` of unknown functions by name.

    An application of a function in ``funs`` evaluates its arguments,
    binds the lambda's parameters to their values and evaluates the
    lambda's body under that binding alone, so the result is that of
    the beta-reduced term (``problem.apply_solution``). Any other
    unknown-function application, and a bare lambda, raises EvalError.

    Strict operators take their value from ``OP_VALUES``. ``ite``,
    ``and``, ``or`` and ``=>`` short-circuit: they evaluate only the
    arguments their value depends on, so an unbound variable in an
    untaken branch raises no EvalError.
    """
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, BoolConst):
        return t.value
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name}")
        v = env[t.name]
        if t.sort == INT and isinstance(v, bool):
            raise EvalError(f"{t.name} bound to a boolean, expected Int")
        if t.sort == BOOL and not isinstance(v, bool):
            raise EvalError(f"{t.name} bound to an integer, expected Bool")
        return v
    if isinstance(t, UFApp) and funs and t.fname in funs:
        lam = funs[t.fname]
        return evaluate(lam.body, {p.name: evaluate(a, env, funs)
                                   for p, a in zip(lam.params, t.args)})
    if isinstance(t, (UFApp, Lambda)):
        raise EvalError("cannot evaluate a term with unknown functions")
    op, args = t.op, t.args
    if op == "ite":
        return evaluate(args[1] if evaluate(args[0], env, funs) else args[2],
                        env, funs)
    if op == "and":
        return all(evaluate(a, env, funs) for a in args)
    if op == "or":
        return any(evaluate(a, env, funs) for a in args)
    if op == "=>":
        return (not evaluate(args[0], env, funs)) or \
            bool(evaluate(args[1], env, funs))
    fn = OP_VALUES.get(op)
    if fn is None:
        raise EvalError(f"unknown operator {op!r}")
    return fn(*[evaluate(a, env, funs) for a in args])


# ---------------------------------------------------------------------------
# Structural operations


def print_term(t: Term) -> str:
    """The input format's rendering of a lambda-free term. It is
    injective, since no name can be an operator symbol, so it also
    orders terms; a term is its own key."""
    if isinstance(t, IntConst):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UFApp):
        return "({} {})".format(t.fname,
                                " ".join(print_term(a) for a in t.args))
    assert isinstance(t, App)
    return "({} {})".format(t.op, " ".join(print_term(a) for a in t.args))


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, UFApp):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, Lambda):
        yield from subterms(t.body)


def free_vars(t: Term) -> set[Var]:
    """Free first-order variables; lambda binds its parameters."""
    if isinstance(t, Var):
        return {t}
    if isinstance(t, (IntConst, BoolConst)):
        return set()
    if isinstance(t, Lambda):
        return free_vars(t.body) - set(t.params)
    args = t.args
    out: set[Var] = set()
    for a in args:
        out |= free_vars(a)
    return out


def uf_names(t: Term) -> set[str]:
    return {s.fname for s in subterms(t) if isinstance(s, UFApp)}


def uf_apps(t: Term) -> list[UFApp]:
    return [s for s in subterms(t) if isinstance(s, UFApp)]


def map_uf_apps(t: Term, fn: Callable[[UFApp], Term]) -> Term:
    """``t`` with every unknown-function application ``u`` replaced by
    ``fn(u)``, innermost first: ``u``'s arguments are already replaced."""
    if isinstance(t, UFApp):
        return fn(UFApp(t.fname, t.fsort,
                        tuple(map_uf_apps(a, fn) for a in t.args)))
    if isinstance(t, App):
        return App(t.op, tuple(map_uf_apps(a, fn) for a in t.args))
    return t


def substitute(t: Term, m: Mapping[str, Term]) -> Term:
    """Simultaneous replacement of free variables by terms.

    The substitution must be sort-preserving; lambda-bound parameters
    shadow outer bindings.
    """
    if isinstance(t, Var):
        if t.name in m:
            r = m[t.name]
            if sort_of(r) != t.sort:
                raise SortError(f"substitution for {t.name} changes sort")
            return r
        return t
    if isinstance(t, (IntConst, BoolConst)):
        return t
    if isinstance(t, Lambda):
        inner = {k: v for k, v in m.items()
                 if k not in {p.name for p in t.params}}
        if not inner:
            return t
        return Lambda(t.params, substitute(t.body, inner))
    if isinstance(t, UFApp):
        return UFApp(t.fname, t.fsort, tuple(substitute(a, m) for a in t.args))
    return App(t.op, tuple(substitute(a, m) for a in t.args))


def beta_reduce(lam: Lambda, args: tuple[Term, ...]) -> Term:
    if len(args) != len(lam.params):
        raise SortError(f"arity mismatch: {len(lam.params)} params, "
                        f"{len(args)} arguments")
    return substitute(lam.body, {p.name: a for p, a in zip(lam.params, args)})


_fresh_counter = itertools.count()


def fresh_name(prefix: str, avoid: Optional[Iterable[str]] = None) -> str:
    avoid_set = set(avoid) if avoid is not None else set()
    while True:
        name = f"{prefix}!{next(_fresh_counter)}"
        if name not in avoid_set:
            return name
