"""Int ite is lifted into the boolean skeleton: a comparison that holds
``s = ite(c, a, b)`` is read as ``ite(c, A[a], A[b])``, and each lift is
charged one step of the propositional budget."""

import random
import time

import pytest

from synthlia import qfsolver
from synthlia.qfsolver import (
    ResourceLimit,
    Sat,
    TimedOut,
    check_sat,
    check_valid,
)
from synthlia.rewrite import atom_diff
from synthlia.terms import (
    IntConst,
    add,
    and_,
    eq,
    evaluate,
    ite,
    mul,
    not_,
)

from helpers import brute_force_model, ge, ivar, le, lt, or_

x, y, z = ivar("x"), ivar("y"), ivar("z")

BOX = 3


def _chain(v, k):
    """``ite(v <= 0, 0, ite(v <= 1, 1, ... k))``: v clamped to 0..k."""
    t = IntConst(k)
    for j in reversed(range(k)):
        t = ite(le(v, IntConst(j)), IntConst(j), t)
    return t


def _chain_sum(n, k):
    return add(*[_chain(ivar(f"v{i}"), k) for i in range(n)])


@pytest.mark.parametrize("n,k", [(2, 10), (3, 5)])
def test_sums_of_ite_chains_are_bounded(n, k):
    # As fresh variables with guarded equalities, searched without
    # theory propagation, both ran out of the step budget.
    assert check_valid(le(_chain_sum(n, k), IntConst(n * k)))


def test_each_lift_is_charged_to_the_step_budget(monkeypatch):
    # 9,260 lifts, then one propositional step: every leaf is true.
    f = le(_chain_sum(3, 20), IntConst(60))
    assert isinstance(check_sat(f), Sat)
    monkeypatch.setattr(qfsolver, "STEP_BUDGET", 2000)
    with pytest.raises(ResourceLimit):
        check_sat(f)


def test_a_deadline_stops_a_single_call():
    # Proving this formula valid takes about 6 s, most of it in the
    # 21**4 lifts; the deadline is read at every charged step.
    f = not_(le(_chain_sum(4, 20), IntConst(80)))
    t0 = time.monotonic()
    with pytest.raises(TimedOut):
        check_sat(f, deadline=t0 + 0.2)
    assert time.monotonic() - t0 < 1.0


def test_each_ite_condition_is_linearized_once(monkeypatch):
    # Every one of the 21**3 lift paths repeats the 60 chain conditions;
    # each leaf comparison and each condition is linearized once.
    calls = []

    def counting(t):
        calls.append(t)
        return atom_diff(t)

    monkeypatch.setattr(qfsolver, "atom_diff", counting)
    assert isinstance(check_sat(le(_chain_sum(3, 20), IntConst(60))), Sat)
    assert len(calls) == 21 ** 3 + 3 * 20


def _linear(rng: random.Random):
    t = IntConst(rng.randint(-BOX, BOX))
    for v in (x, y, z):
        c = rng.randint(-2, 2)
        if c:
            t = add(t, mul(c, v))
    return t


def _int_ite(rng: random.Random, depth: int):
    """An Int ite over x, y, z; its branches may hold further ites."""
    cond = rng.choice((le, lt, eq))(_linear(rng), _linear(rng))
    branches = [_int_ite(rng, depth - 1) if depth and rng.random() < 0.5
                else _linear(rng) for _ in range(2)]
    return ite(cond, *branches)


def _ite_formula(rng: random.Random):
    """2-3 atoms, each holding 1-3 Int ites, the first two sharing one
    ite object, under random boolean structure and inside the box
    -BOX <= v <= BOX, so that brute force over the box decides it."""
    shared = _int_ite(rng, 1)
    atoms = []
    for i in range(3):
        ites = [_int_ite(rng, 0)
                for _ in range(rng.randint(1, 3))]
        if i < 2:
            ites[0] = shared
        lhs = add(*[mul(rng.choice((-2, -1, 1, 2)), t) for t in ites],
                  _linear(rng))
        atom = rng.choice((le, eq, eq, ge))(lhs, _linear(rng))
        atoms.append(not_(atom) if rng.random() < 0.3 else atom)
    body = atoms[0]
    for a in atoms[1:]:
        body = and_(body, a) if rng.random() < 0.9 else or_(body, a)
    box = [c for v in (x, y, z)
           for c in (ge(v, IntConst(-BOX)), le(v, IntConst(BOX)))]
    return and_(*box, body)


def test_lifted_ites_agree_with_brute_force():
    rng = random.Random(71)
    outcomes = {"sat": 0, "unsat": 0}
    for _ in range(200):
        f = _ite_formula(rng)
        res = check_sat(f)
        if isinstance(res, Sat):
            assert evaluate(f, res.model), f
            outcomes["sat"] += 1
        else:
            assert brute_force_model(f, -BOX, BOX) is None, f
            outcomes["unsat"] += 1
    # Both answers are exercised, so neither check is vacuous.
    assert min(outcomes.values()) >= 20, outcomes
