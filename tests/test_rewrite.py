import random

import pytest

from synthlia import enumsearch
from synthlia.driver import SolverConfig, Success, solve
from synthlia.rewrite import (
    _lin,
    _mono_key,
    atom_diff,
    canonical_key,
    negate_norm,
    normalize,
)
from synthlia.sygus import print_solution
from synthlia.terms import (
    App,
    BoolConst,
    IntConst,
    SortError,
    add,
    and_,
    eq,
    evaluate,
    ge,
    gt,
    implies,
    ite,
    ivar,
    bvar,
    le,
    lt,
    mul,
    not_,
    or_,
    print_term as serialize,
    sub,
)

from helpers import GOLDEN, load_golden, random_env, random_int_term, \
    random_term

x, y, z = ivar("x"), ivar("y"), ivar("z")


def soundness_sample(n_terms: int, n_envs: int, seed: int = 11) -> int:
    """Independent oracle: a normal form must agree with the original
    term under direct evaluation on every assignment. Returns the number
    of (term, assignment) pairs checked."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_terms):
        t = random_term(rng)
        n = normalize(t)
        for _ in range(n_envs):
            env = random_env(rng)
            assert evaluate(t, env) == evaluate(n, env), serialize(t)
            checked += 1
    return checked


def test_normalize_soundness_random():
    assert soundness_sample(300, 10) == 3000


def test_polynomial_canonicalization():
    assert normalize(add(x, y)) == normalize(add(y, x))
    assert normalize(sub(add(x, y), y)) == x
    assert normalize(add(x, x)) == mul(2, x)
    assert normalize(mul(3, add(x, IntConst(2)))) == \
        normalize(add(IntConst(6), mul(3, x)))
    assert normalize(sub(x, x)) == IntConst(0)


def test_comparisons_collapse_to_le_and_eq():
    assert canonical_key(lt(x, y)) == canonical_key(le(add(x, IntConst(1)), y))
    assert canonical_key(ge(x, y)) == canonical_key(le(y, x))
    assert canonical_key(gt(y, x)) == canonical_key(lt(x, y))
    assert canonical_key(eq(x, y)) == canonical_key(eq(y, x))
    assert normalize(le(x, x)) == BoolConst(True)
    assert normalize(lt(x, x)) == BoolConst(False)


def test_atom_diff_is_the_linear_form_of_a_comparison():
    # t holds exactly when d <= 0 (d = 0 for Int =). Points are drawn
    # from a small box so that the two sides are often equal, where a
    # strict comparison differs from its non-strict one.
    rng = random.Random(17)
    for _ in range(300):
        op = rng.choice(["<=", "<", ">=", ">", "="])
        t = App(op, (random_int_term(rng, 2), random_int_term(rng, 2)))
        const, monos = atom_diff(t)
        for _ in range(10):
            env = random_env(rng, -3, 3)
            d = const + sum(c * evaluate(m, env) for m, c in monos)
            want = d == 0 if op == "=" else d <= 0
            assert evaluate(t, env) == want, serialize(t)


def test_junction_flattening_and_dedup():
    t = and_(le(x, y), and_(le(x, y), le(y, z)))
    n = normalize(t)
    assert isinstance(n, App) and n.op == "and" and len(n.args) == 2
    assert normalize(or_(le(x, y), BoolConst(True))) == BoolConst(True)
    assert normalize(and_(le(x, y), BoolConst(True))) == normalize(le(x, y))
    assert normalize(and_(le(x, y), gt(x, y))) == BoolConst(False)
    assert normalize(implies(le(x, y), le(x, y))) == BoolConst(True)


def test_double_negation_and_le_negation():
    assert normalize(not_(not_(le(x, y)))) == normalize(le(x, y))
    assert canonical_key(not_(le(x, y))) == canonical_key(gt(x, y))
    n = normalize(le(x, y))
    assert negate_norm(negate_norm(n)) == n


def test_ite_folding():
    assert normalize(ite(BoolConst(True), x, y)) == x
    assert normalize(ite(le(x, y), z, z)) == z
    b = bvar("b")
    assert normalize(ite(not_(b), x, y)) == normalize(ite(b, y, x))
    assert normalize(ite(le(x, y), BoolConst(True), BoolConst(False))) == \
        normalize(le(x, y))


def test_canonical_key_separates_inequivalent_terms():
    assert canonical_key(x) != canonical_key(y)
    assert canonical_key(le(x, y)) != canonical_key(le(y, x))
    assert canonical_key(add(x, IntConst(1))) != canonical_key(x)


def test_canonical_key_is_the_normal_form():
    # A key is the normal-form term itself, and two keys are equal
    # exactly when their printed texts are.
    rng = random.Random(29)
    terms = [random_term(rng, 2) for _ in range(200)]
    keys = [canonical_key(t) for t in terms]
    assert keys == [normalize(t) for t in terms]
    equal = 0
    for _ in range(2000):
        a, b = rng.choice(keys), rng.choice(keys)
        assert (a == b) == (serialize(a) == serialize(b))
        equal += a == b
    assert equal > 20


def assert_canonical_linear(lin):
    const, monos = lin
    order = [_mono_key(m) for m, _ in monos]
    assert all(p < q for p, q in zip(order, order[1:])), lin
    assert all(c != 0 for _, c in monos), lin


def test_linear_forms_have_one_shape():
    # Monomials strictly ordered, no zero coefficient, and the form does
    # not depend on the order of the summands or on an added 0.
    assert _lin(add(x, y, mul(-1, x))) == (0, ((y, 1),))
    rng = random.Random(31)
    for _ in range(300):
        parts = [random_int_term(rng, 2) for _ in range(rng.randint(2, 5))]
        lin = _lin(add(*parts))
        assert_canonical_linear(lin)
        shuffled = rng.sample(parts, len(parts))
        assert _lin(add(*shuffled)) == lin
        assert _lin(add(*shuffled, IntConst(0))) == lin
        rhs = random_int_term(rng, 2)
        diff = atom_diff(le(add(*parts), rhs))
        assert_canonical_linear(diff)
        assert atom_diff(le(add(IntConst(0), *shuffled), rhs)) == diff


def test_canonical_key_requires_well_sorted():
    with pytest.raises(SortError):
        canonical_key(App("+", (x, le(x, y))))


def test_serialize_is_injective_on_samples():
    rng = random.Random(3)
    seen = {}
    for _ in range(500):
        t = random_term(rng)
        s = serialize(t)
        assert seen.setdefault(s, t) == t


def _clear_caches():
    normalize.cache_clear()
    enumsearch._compile.cache_clear()


def _solve_goldens(problems, clear_between):
    out = {}
    for run, p in problems:
        if clear_between:
            _clear_caches()
        r = solve(p, SolverConfig(mode=run[1]))
        stats = {k: v for k, v in r.stats.items() if k != "wall_time"}
        answer = (r.strategy, print_solution(r.solution, p)) \
            if isinstance(r, Success) else (r.reason,)
        out[run] = (answer, stats)
    return out


def test_memo_state_never_changes_an_answer():
    # Cold, warm, and in reverse order with the memo and the grammar
    # cache emptied before every solve: the memo holds fewer entries
    # than the 12 solves key, so the passes also differ in what was
    # evicted. The warm pass solves the cold pass's problems again, so
    # their classes, kept on them, are warm too.
    names = sorted(p.name for p in GOLDEN.glob("*.sy"))
    assert len(names) >= 6
    runs = [(name, mode) for name in names for mode in ("auto", "enum")]
    problems = [(run, load_golden(run[0])) for run in runs]
    _clear_caches()
    cold = _solve_goldens(problems, clear_between=False)
    assert normalize.cache_info().misses > normalize.cache_info().maxsize
    warm = _solve_goldens(problems, clear_between=False)
    cleared = _solve_goldens(
        [(run, load_golden(run[0])) for run in reversed(runs)],
        clear_between=True)
    assert warm == cold
    assert cleared == cold
