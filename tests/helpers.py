"""Shared generators and oracles for the test suite.

The oracles here are deliberately independent of the implementation
under test: brute-force model search over a finite box, direct
recursive evaluation, and exhaustive grammar expansion.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from synthlia.enumsearch import DatatypeFamily, DtValue, Pools
from synthlia.problem import Grammar
from synthlia.rewrite import canonical_key
from synthlia.sygus import parse_problem
from synthlia.terms import (
    INT,
    App,
    IntConst,
    Term,
    Var,
    evaluate,
    free_vars,
)

GOLDEN = Path(__file__).parent / "golden"


def load_golden(name: str):
    return parse_problem((GOLDEN / name).read_text())


# ---------------------------------------------------------------------------
# Random term generation

X, Y, Z = Var("x", INT), Var("y", INT), Var("z", INT)
INT_VARS = (X, Y, Z)


def random_int_term(rng: random.Random, depth: int = 3) -> Term:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return IntConst(rng.randint(-4, 4))
        return rng.choice(INT_VARS)
    pick = rng.random()
    if pick < 0.5:
        return App("+", (random_int_term(rng, depth - 1),
                         random_int_term(rng, depth - 1)))
    if pick < 0.7:
        c = rng.choice([-3, -2, -1, 2, 3])
        return App("*", (IntConst(c), random_int_term(rng, depth - 1)))
    return App("ite", (random_bool_term(rng, depth - 1),
                       random_int_term(rng, depth - 1),
                       random_int_term(rng, depth - 1)))


def random_bool_term(rng: random.Random, depth: int = 3) -> Term:
    if depth == 0:
        op = rng.choice(["<=", "<", ">=", ">", "="])
        return App(op, (random_int_term(rng, 0), random_int_term(rng, 0)))
    pick = rng.random()
    if pick < 0.45:
        op = rng.choice(["<=", "<", ">=", ">", "="])
        return App(op, (random_int_term(rng, depth - 1),
                        random_int_term(rng, depth - 1)))
    if pick < 0.6:
        return App("and", (random_bool_term(rng, depth - 1),
                           random_bool_term(rng, depth - 1)))
    if pick < 0.75:
        return App("or", (random_bool_term(rng, depth - 1),
                          random_bool_term(rng, depth - 1)))
    if pick < 0.85:
        return App("not", (random_bool_term(rng, depth - 1),))
    return App("=>", (random_bool_term(rng, depth - 1),
                      random_bool_term(rng, depth - 1)))


def random_term(rng: random.Random, depth: int = 3) -> Term:
    if rng.random() < 0.5:
        return random_int_term(rng, depth)
    return random_bool_term(rng, depth)


def random_env(rng: random.Random, lo: int = -20, hi: int = 20) -> dict:
    return {v.name: rng.randint(lo, hi) for v in INT_VARS}


# ---------------------------------------------------------------------------
# Brute-force satisfiability over a finite box


def brute_force_model(f: Term, lo: int = -6, hi: int = 6):
    """First satisfying assignment over the box, or None if there is
    none there (which does not prove unsatisfiability)."""
    fv = sorted(free_vars(f), key=lambda v: v.name)
    domains = [range(lo, hi + 1) if v.sort == INT else (False, True)
               for v in fv]
    for combo in itertools.product(*domains):
        env = {v.name: a for v, a in zip(fv, combo)}
        if evaluate(f, env):
            return env
    return None


# ---------------------------------------------------------------------------
# Random datatype values


def random_dt_value(rng: random.Random, family: DatatypeFamily,
                    dtname: str, depth: int = 4) -> DtValue:
    ctors = family.datatype(dtname).constructors
    if depth == 0:
        leaves = [c for c in ctors if c.arity() == 0]
        if leaves:
            ctors = leaves
    c = rng.choice(list(ctors))
    kids = tuple(random_dt_value(rng, family, d, max(depth - 1, 0))
                 for d in c.children)
    return DtValue(dtname, c.name, kids)


# ---------------------------------------------------------------------------
# Grammar oracles


def key_set(terms) -> set:
    return {canonical_key(t) for t in terms}


def term_size(t: Term) -> int:
    """Number of non-nullary applications, the size grammars count."""
    if isinstance(t, App) and t.args:
        return 1 + sum(term_size(a) for a in t.args)
    return 0


def oracle_terms(g: Grammar, max_size: int, nt: str | None = None):
    """Every term ``nt`` (default the start symbol) derives with at most
    ``max_size`` non-nullary applications, in size order: brute-force
    expansion of the rules, independent of the datatype encoding and
    of the rewriter."""
    memo: dict = {}

    def of_size(n: str, size: int) -> list:
        key = (n, size)
        if key not in memo:
            memo[key] = []  # cut unit-rule cycles
            memo[key] = [t for rhs in g.rules_of(n) for t in fill(rhs, size)]
        return memo[key]

    def fill(skel: Term, size: int) -> list:
        if isinstance(skel, Var) and skel.name in g.nonterminals:
            return of_size(skel.name, size)
        if not isinstance(skel, App):
            return [skel] if size == 0 else []
        budget = size - (1 if skel.args else 0)
        out = []
        for split in itertools.product(range(budget + 1),
                                       repeat=len(skel.args)):
            if sum(split) != budget:
                continue
            parts = [fill(a, k) for a, k in zip(skel.args, split)]
            out.extend(App(skel.op, combo)
                       for combo in itertools.product(*parts))
        return out

    nt = nt or g.start
    return [t for size in range(max_size + 1) for t in of_size(nt, size)]


def raw_values(family: DatatypeFamily, max_size: int):
    """Every start-datatype value up to ``max_size`` in size order, with
    no pruning: the search's pool builder admitting everything."""
    return Pools(family, lambda v: True).upto(family.start, max_size)
