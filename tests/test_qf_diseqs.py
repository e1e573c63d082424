"""Disequalities are split on demand: only one that a model violates
is split, and no model is returned before all of them are checked."""

import random

from synthlia.qfsolver import Sat, check_sat
from synthlia.terms import (
    IntConst,
    add,
    and_,
    eq,
    evaluate,
    mul,
    not_,
)

from helpers import brute_force_model, ge, ivar, le

x, y, z = ivar("x"), ivar("y"), ivar("z")

BOX = 3


def test_many_disequalities_cost_no_exponential_search():
    # Eager splitting tries up to 2^20 branches, each x_i - 5 >= 1
    # first, which the bound x_i <= 5 refutes, and runs out of budget.
    # The relaxation's model already satisfies every disequality.
    xs = [ivar(f"x{i}") for i in range(20)]
    f = and_(*[c for v in xs
               for c in (le(v, IntConst(5)), not_(eq(v, IntConst(5))))])
    res = check_sat(f)
    assert isinstance(res, Sat)
    assert evaluate(f, res.model)


def _linear(rng: random.Random):
    t = IntConst(rng.randint(-BOX, BOX))
    for v in (x, y, z):
        c = rng.randint(-2, 2)
        if c:
            t = add(t, mul(c, v))
    return t


def _diseq_formula(rng: random.Random):
    """2-6 disequalities and 1-3 (in)equalities over x, y, z,
    inside the box -BOX <= v <= BOX, so that brute force over the box
    decides the formula."""
    box = [c for v in (x, y, z)
           for c in (ge(v, IntConst(-BOX)), le(v, IntConst(BOX)))]
    diseqs = [not_(eq(_linear(rng), rng.choice((x, y, z, _linear(rng)))))
              for _ in range(rng.randint(2, 6))]
    rels = [rng.choice((le, eq, eq, ge))(_linear(rng), _linear(rng))
            for _ in range(rng.randint(1, 3))]
    return and_(*box, *diseqs, *rels)


def test_disequalities_agree_with_brute_force():
    rng = random.Random(61)
    outcomes = {"sat": 0, "unsat": 0}
    for _ in range(200):
        f = _diseq_formula(rng)
        res = check_sat(f)
        witness = brute_force_model(f, -BOX, BOX)
        if isinstance(res, Sat):
            assert evaluate(f, res.model), f
            outcomes["sat"] += 1
        else:
            assert witness is None, f
            outcomes["unsat"] += 1
    # Both answers are exercised, so neither check is vacuous.
    assert min(outcomes.values()) >= 20, outcomes
