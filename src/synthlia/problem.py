"""Synthesis problems, grammars and solutions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .terms import (
    BOOL,
    App,
    BoolConst,
    FunSort,
    IntConst,
    Lambda,
    SortError,
    Term,
    Var,
    beta_reduce,
    free_vars,
    map_uf_apps,
    sort_of,
    uf_names,
    well_sorted,
)

if TYPE_CHECKING:
    from .enumsearch import KeyedPool


class GrammarError(Exception):
    """A grammar fails validation (unknown symbol, unproductive rule, ...)."""


@dataclass(frozen=True)
class Grammar:
    """Production system (s0, S, R).

    Nonterminal occurrences inside rule right-hand sides are represented
    as Vars whose name is the nonterminal; ``params`` lists the formal
    parameter names the right-hand sides may mention.
    """

    start: str
    nonterminals: dict[str, str]  # name -> base sort
    rules: tuple[tuple[str, Term], ...]  # (lhs, rhs skeleton)
    params: tuple[Var, ...] = ()

    def rules_of(self, nt: str) -> list[Term]:
        return [rhs for lhs, rhs in self.rules if lhs == nt]

    def validate(self) -> None:
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} not a nonterminal")
        pnames = {p.name for p in self.params}
        if pnames & set(self.nonterminals):
            raise GrammarError("parameter names clash with nonterminals")
        for lhs, rhs in self.rules:
            if lhs not in self.nonterminals:
                raise GrammarError(f"rule lhs {lhs!r} not a nonterminal")
            for v in free_vars(rhs):
                if v.name in self.nonterminals:
                    if v.sort != self.nonterminals[v.name]:
                        raise GrammarError(
                            f"nonterminal {v.name} used at sort {v.sort}")
                elif v.name not in pnames:
                    raise GrammarError(f"unknown symbol {v.name!r} in rule")
            if not well_sorted(rhs):
                raise GrammarError(f"ill-sorted rule for {lhs}")
            if sort_of(rhs) != self.nonterminals[lhs]:
                raise GrammarError(f"rule for {lhs} has wrong sort")
        self._check_generating()
        self._check_reachable()

    def _nts_in(self, rhs: Term) -> set[str]:
        return {v.name for v in free_vars(rhs) if v.name in self.nonterminals}

    def _check_generating(self) -> None:
        """Every nonterminal derives at least one term (is productive)."""
        productive: set[str] = set()
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.rules:
                if lhs in productive:
                    continue
                if self._nts_in(rhs) <= productive:
                    productive.add(lhs)
                    changed = True
        dead = set(self.nonterminals) - productive
        if dead:
            raise GrammarError(f"unproductive nonterminals: {sorted(dead)}")

    def _check_reachable(self) -> None:
        reached = {self.start}
        frontier = [self.start]
        while frontier:
            nt = frontier.pop()
            for rhs in self.rules_of(nt):
                for n in self._nts_in(rhs):
                    if n not in reached:
                        reached.add(n)
                        frontier.append(n)
        unreached = set(self.nonterminals) - reached
        if unreached:
            raise GrammarError(f"unreachable nonterminals: {sorted(unreached)}")

    # -- generability ------------------------------------------------------

    def generates(self, t: Term, nt: Optional[str] = None) -> bool:
        """Whether ``t`` is derivable from nonterminal ``nt`` (default s0)."""
        return self._gen(t, nt or self.start, frozenset())

    def _gen(self, t: Term, nt: str, active: frozenset) -> bool:
        key = (t, nt)
        if key in active:
            return False
        active = active | {key}
        for rhs in self.rules_of(nt):
            if self._match(t, rhs, active):
                return True
        return False

    def _match(self, t: Term, skel: Term, active: frozenset) -> bool:
        if isinstance(skel, Var) and skel.name in self.nonterminals:
            return self._gen(t, skel.name, active)
        if isinstance(skel, (IntConst, BoolConst, Var)):
            return t == skel
        if not isinstance(t, App) or not isinstance(skel, App):
            return False
        if t.op != skel.op or len(t.args) != len(skel.args):
            return False
        return all(self._match(a, s, active)
                   for a, s in zip(t.args, skel.args))

    # -- size-ordered pool -------------------------------------------------

    def terms_upto(self, max_size: int, nt: Optional[str] = None,
                   deadline: Optional[float] = None,
                   sample: Optional[tuple] = None, *,
                   pool: Optional[KeyedPool] = None) -> dict[Term, Term]:
        """Canonical key -> the smallest term ``nt`` (default s0) derives
        with that key, over the terms with at most ``max_size`` non-nullary
        applications. With ``sample`` = ``(rows, vector)``, only the terms
        whose values at the rows (variable name -> value maps) equal
        ``vector``. ``pool`` is an ``enumsearch.KeyedPool`` of this
        grammar that keeps the levels it builds for later calls, or None
        for a fresh one; the result is the same either way. See
        ``KeyedPool.smallest``."""
        # The one entry point to reconstruction's pool: a thin call that
        # carries the caller's pool. It stays a method of Grammar because
        # perfbench/tracing.py times reconstruction's pool under this
        # name; enumsearch imports this module, hence the local import.
        from .enumsearch import KeyedPool
        if pool is None:
            pool = KeyedPool(self)
        elif pool.grammar is not self:
            raise ValueError("the pool belongs to another grammar")
        return pool.smallest(max_size, nt or self.start, deadline, sample)


@dataclass(frozen=True)
class SynthFun:
    name: str
    fsort: FunSort
    param_names: tuple[str, ...]
    grammar: Optional[Grammar] = None

    def param_vars(self) -> tuple[Var, ...]:
        return tuple(Var(n, s) for n, s in zip(self.param_names,
                                               self.fsort.params))


@dataclass(frozen=True)
class SynthProblem:
    functions: tuple[SynthFun, ...]
    universals: tuple[Var, ...]
    constraint: Term

    def validate(self) -> None:
        fnames = {f.name for f in self.functions}
        if len(fnames) != len(self.functions):
            raise GrammarError("duplicate function names")
        uni = set(self.universals)
        for v in free_vars(self.constraint):
            if v not in uni:
                raise SortError(f"free variable {v.name} is not declared")
        for name in uf_names(self.constraint):
            if name not in fnames:
                raise SortError(f"unknown function {name!r} in constraint")
        if sort_of(self.constraint) != BOOL:
            raise SortError("constraint must be boolean")
        for f in self.functions:
            if len(f.param_names) != len(f.fsort.params):
                raise SortError(f"parameter list of {f.name} has wrong length")
            if f.grammar is not None:
                f.grammar.validate()
                start_sort = f.grammar.nonterminals[f.grammar.start]
                if start_sort != f.fsort.ret:
                    raise GrammarError(
                        f"grammar start sort {start_sort} does not match "
                        f"return sort of {f.name}")


Solution = dict  # function name -> Lambda


def check_solution_shape(p: SynthProblem, s: Solution) -> None:
    for f in p.functions:
        if f.name not in s:
            raise SortError(f"solution misses a binding for {f.name}")
        lam = s[f.name]
        if not isinstance(lam, Lambda):
            raise SortError(f"binding for {f.name} is not a lambda")
        if tuple(v.sort for v in lam.params) != f.fsort.params:
            raise SortError(f"lambda parameters of {f.name} have wrong sorts")
        if uf_names(lam.body):
            raise SortError("solution bodies must not mention unknown functions")


def apply_solution(p: SynthProblem, s: Solution) -> Term:
    """Constraint of ``p`` with every unknown-function application replaced
    by the beta-reduced solution body."""
    check_solution_shape(p, s)
    return map_uf_apps(p.constraint,
                       lambda u: beta_reduce(s[u.fname], u.args))
