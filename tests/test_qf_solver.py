import random
import time

from synthlia.qfsolver import Conflicts, Sat, Unsat, are_equivalent, \
    check_sat, check_valid
from synthlia.rewrite import normalize
from synthlia.terms import (
    BoolConst,
    IntConst,
    add,
    and_,
    eq,
    evaluate,
    free_vars,
    implies,
    ite,
    mul,
    not_,
    sub,
)

from helpers import (
    brute_force_model,
    bvar,
    ge,
    gt,
    ivar,
    le,
    lt,
    or_,
    random_bool_term,
)

x, y, z = ivar("x"), ivar("y"), ivar("z")


def _model_satisfies(f, model):
    env = dict(model)
    for v in free_vars(f):
        env.setdefault(v.name, 0 if v.sort == "Int" else False)
    return bool(evaluate(f, env))


def test_simple_sat_with_model_check():
    f = and_(le(x, y), gt(y, IntConst(3)))
    res = check_sat(f)
    assert isinstance(res, Sat)
    assert _model_satisfies(f, res.model)


def test_simple_unsat():
    assert isinstance(check_sat(and_(lt(x, y), lt(y, x))), Unsat)
    assert isinstance(check_sat(and_(le(x, y), le(y, x), not_(eq(x, y)))),
                      Unsat)


def test_integrality_reasoning():
    # 2x = 2y + 1 has no integer solution.
    f = eq(mul(2, x), add(mul(2, y), IntConst(1)))
    assert isinstance(check_sat(f), Unsat)
    # 3x = 6 does: x = 2.
    res = check_sat(eq(mul(3, x), IntConst(6)))
    assert isinstance(res, Sat)
    assert res.model["x"] == 2


def test_dark_shadow_splinters():
    # 2x <= y, y <= 2x + 1, y = 7  forces x = 3.
    f = and_(le(mul(2, x), y), le(y, add(mul(2, x), IntConst(1))),
             eq(y, IntConst(7)))
    res = check_sat(f)
    assert isinstance(res, Sat)
    assert _model_satisfies(f, res.model)


def test_boolean_structure_and_int_ite():
    b = bvar("b")
    f = and_(or_(b, le(x, IntConst(0))),
             implies(b, gt(x, IntConst(5))),
             eq(ite(b, x, IntConst(0)), IntConst(9)))
    res = check_sat(f)
    assert isinstance(res, Sat)
    assert _model_satisfies(f, res.model)


def test_model_names_are_user_variables_only():
    f = eq(ite(le(x, y), x, y), IntConst(2))
    res = check_sat(f)
    assert isinstance(res, Sat)
    assert all("!" not in name for name in res.model)


def test_check_valid():
    assert check_valid(or_(le(x, y), gt(x, y)))
    assert check_valid(implies(lt(x, y), le(x, y)))
    assert not check_valid(le(x, y))


def test_are_equivalent():
    assert are_equivalent(add(x, y), add(y, x))
    assert are_equivalent(ite(le(x, y), y, x), ite(ge(x, y), x, y))
    assert are_equivalent(not_(gt(x, add(y, IntConst(1)))),
                          le(x, add(y, IntConst(1))))
    assert not are_equivalent(x, y)
    assert not are_equivalent(le(x, y), le(y, x))


def cross_check_sample(n: int, seed: int = 23) -> int:
    """Oracle cross-check: on random formulas over x, y, z, the solver
    must agree with exhaustive search over [-6, 6]^3 wherever that
    search is conclusive. Returns the number of formulas checked."""
    rng = random.Random(seed)
    for i in range(n):
        f = random_bool_term(rng, depth=rng.randint(1, 3))
        res = check_sat(normalize(f))
        witness = brute_force_model(f)
        if isinstance(res, Sat):
            assert _model_satisfies(f, res.model), f
        else:
            assert witness is None, f
    return n


def test_solver_agrees_with_brute_force():
    assert cross_check_sample(200) == 200


def test_trivial_formulas():
    assert isinstance(check_sat(BoolConst(True)), Sat)
    assert isinstance(check_sat(BoolConst(False)), Unsat)
    assert isinstance(check_sat(eq(sub(x, x), IntConst(0))), Sat)


def test_a_shared_conflict_store_never_changes_an_answer():
    # As in the CEGQI loop, each call conjoins one more formula to the
    # previous call's, and the calls of one sequence share a store.
    rng = random.Random(23)
    calls = pruned = 0
    for _ in range(40):
        store = Conflicts()
        parts = []
        for _ in range(6):
            parts.append(random_bool_term(rng, depth=rng.randint(1, 3)))
            f = normalize(and_(*parts))
            shared, fresh = check_sat(f, store), check_sat(f)
            assert type(shared) is type(fresh), f
            if isinstance(fresh, Sat):
                assert shared.model == fresh.model, f
            calls += 1
        pruned += store.pruned
    assert calls == 240
    assert pruned > 0


def _bool_eq_chain(depth):
    """``(= (<= x 5) (= (<= x 5) ... (>= x 0)))``: each Bool ``=``
    occurs in the skeleton twice, once per polarity."""
    f = ge(x, IntConst(0))
    for _ in range(depth):
        f = eq(le(x, IntConst(5)), f)
    return f


def test_a_bool_equality_chain_is_simplified_once_per_shared_node():
    # Walked as a tree, the skeleton doubles with every level: depth 16
    # took about a second, and each further level doubled it.
    f = _bool_eq_chain(40)
    t0 = time.monotonic()
    res = check_sat(f)
    assert time.monotonic() - t0 < 2.0
    assert isinstance(res, Sat) and _model_satisfies(f, res.model)
    assert isinstance(check_sat(not_(f)), Sat)
