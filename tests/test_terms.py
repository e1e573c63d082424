import copy
import dataclasses
import pickle
import random

import pytest

from synthlia.enumsearch import grammar_to_datatypes
from synthlia.problem import apply_solution
from synthlia.terms import (
    BOOL,
    INT,
    App,
    BoolConst,
    EvalError,
    FunSort,
    IntConst,
    Lambda,
    SortError,
    UFApp,
    Var,
    add,
    and_,
    beta_reduce,
    eq,
    evaluate,
    free_vars,
    fresh_name,
    implies,
    ite,
    map_uf_apps,
    mul,
    neg,
    print_term,
    sort_of,
    sub,
    substitute,
    subterms,
    uf_apps,
    well_sorted,
)

from helpers import (
    ge,
    gt,
    ivar,
    le,
    load_golden,
    or_,
    random_env,
    random_term,
    raw_terms,
)

x, y, z = ivar("x"), ivar("y"), ivar("z")


def test_smart_constructors_normalize_subtraction():
    t = sub(x, y)
    assert t == App("+", (x, App("*", (IntConst(-1), y))))
    assert neg(IntConst(5)) == IntConst(-5)
    assert mul(3, IntConst(2)) == IntConst(6)
    assert add() == IntConst(0)
    assert add(x) == x
    assert and_() == BoolConst(True)
    assert or_() == BoolConst(False)


def test_sort_of():
    assert sort_of(add(x, IntConst(1))) == INT
    assert sort_of(le(x, y)) == BOOL
    assert sort_of(ite(le(x, y), x, y)) == INT
    f = FunSort((INT, INT), INT)
    assert sort_of(UFApp("f", f, (x, y))) == INT


def test_sort_errors():
    with pytest.raises(SortError):
        sort_of(App("+", (x, le(x, y))))
    with pytest.raises(SortError):
        sort_of(App("ite", (le(x, y), x, le(y, x))))
    with pytest.raises(SortError):
        sort_of(App("*", (x, y)))  # non-literal factor
    assert not well_sorted(App("not", (x,)))


def test_evaluate_basics():
    env = {"x": 3, "y": -2}
    assert evaluate(add(x, y, IntConst(1)), env) == 2
    assert evaluate(sub(x, y), env) == 5
    assert evaluate(ite(gt(x, y), x, y), env) == 3
    assert evaluate(implies(le(x, y), eq(x, y)), env) is True
    with pytest.raises(EvalError):
        evaluate(z, env)
    with pytest.raises(EvalError):
        evaluate(Var("x", BOOL), env)


def test_evaluate_random_terms_total_on_full_env():
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(rng)
        v = evaluate(t, random_env(rng))
        assert isinstance(v, (int, bool))


def nested_max_sym():
    """max_sym.sy with the constraint f(f(x, y), y) >= x, whose
    application nests another."""
    p = load_golden("max_sym.sy")
    fs = p.functions[0].fsort
    return dataclasses.replace(
        p, constraint=ge(UFApp("f", fs, (UFApp("f", fs, (x, y)), y)), x))


INTERPRETED = {
    "max_sym": lambda: load_golden("max_sym.sy"),
    "io_points": lambda: load_golden("io_points.sy"),
    "nested": nested_max_sym,
}


@pytest.mark.parametrize("name", sorted(INTERPRETED))
def test_evaluate_under_an_interpretation_agrees_with_apply_solution(name):
    p = INTERPRETED[name]()
    f = p.functions[0]
    fam = grammar_to_datatypes(f.grammar)
    rng = random.Random(13)
    bodies = list(raw_terms(fam, 3))
    # The example points, so that io_points' implications can fire, and
    # random ones.
    rows = [{"x": a, "y": b} for a, b in ((1, 0), (2, 1), (7, 1))]
    seen = set()
    for body in rng.sample(bodies, 300):
        sol = {f.name: Lambda(f.param_vars(), body)}
        spec = apply_solution(p, sol)
        for env in rows + [{"x": rng.randint(-5, 8), "y": rng.randint(-5, 8)}
                           for _ in range(3)]:
            got = evaluate(p.constraint, env, sol)
            assert got == evaluate(spec, env), (body, env)
            seen.add(got)
    assert seen == {False, True}


def test_evaluate_interprets_only_the_functions_it_is_given():
    fs = FunSort((INT, INT), INT)
    a, b = ivar("a"), ivar("b")
    funs = {"f": Lambda((a, b), add(a, mul(2, b)))}
    env = {"x": 3, "y": 1}
    # The body sees only its parameters: f(y, x) binds a = 1, b = 3.
    assert evaluate(UFApp("f", fs, (y, x)), env, funs) == 7
    assert evaluate(UFApp("f", fs, (UFApp("f", fs, (x, y)), y)),
                    env, funs) == 7
    with pytest.raises(EvalError):
        evaluate(UFApp("g", fs, (x, y)), env, funs)
    with pytest.raises(EvalError):
        evaluate(UFApp("f", fs, (x, y)), env)
    with pytest.raises(EvalError):
        evaluate(funs["f"], env, funs)


def test_free_vars_and_subterms():
    t = and_(le(x, y), eq(add(x, z), IntConst(0)))
    assert free_vars(t) == {x, y, z}
    assert t in set(subterms(t))
    assert x in set(subterms(t))


def test_substitute_is_simultaneous_and_sort_checked():
    t = add(x, y)
    r = substitute(t, {"x": y, "y": x})
    assert r == add(y, x)
    with pytest.raises(SortError):
        substitute(t, {"x": le(x, y)})


def test_substitute_respects_lambda_binding():
    lam = Lambda((x,), add(x, y))
    r = substitute(lam, {"x": IntConst(9), "y": IntConst(1)})
    assert r == Lambda((x,), add(x, IntConst(1)))


def test_beta_reduce():
    lam = Lambda((x, y), ite(ge(x, y), x, y))
    assert beta_reduce(lam, (IntConst(2), IntConst(5))) == \
        ite(ge(IntConst(2), IntConst(5)), IntConst(2), IntConst(5))
    with pytest.raises(SortError):
        beta_reduce(lam, (IntConst(2),))


def test_uf_apps_collects_occurrences():
    f = FunSort((INT,), INT)
    t = and_(eq(UFApp("f", f, (x,)), y), le(UFApp("f", f, (y,)), x))
    assert len(uf_apps(t)) == 2


def test_map_uf_apps_replaces_innermost_first():
    f = FunSort((INT,), INT)
    t = le(UFApp("f", f, (UFApp("f", f, (x,)),)), y)
    # f(u) -> u + 1, so f(f(x)) becomes (x + 1) + 1.
    got = map_uf_apps(t, lambda u: add(u.args[0], IntConst(1)))
    assert got == le(add(add(x, IntConst(1)), IntConst(1)), y)


def test_fresh_name_is_reserved_and_avoids():
    a = fresh_name("k")
    b = fresh_name("k")
    assert a != b
    assert "!" in a
    assert fresh_name("k", avoid=[a, b]) not in (a, b)


def test_terms_are_hashable_and_shareable():
    t1 = add(x, mul(2, y))
    t2 = add(x, mul(2, y))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert len({t1, t2}) == 1


F1 = FunSort((INT,), INT)
ONE_OF_EACH = [IntConst(1), BoolConst(True), Var("x", INT),
               App("+", (x, IntConst(1))), UFApp("f", F1, (x,)),
               Lambda((x,), add(x, IntConst(1)))]


@pytest.mark.parametrize("a, b", [
    (IntConst(1), BoolConst(True)),
    (IntConst(0), BoolConst(False)),
    (App("f", (x,)), UFApp("f", F1, (x,))),
    (Var("x", INT), App("x", ())),
])
def test_terms_of_different_classes_are_never_equal(a, b):
    assert a != b and b != a
    table = {a: "a", b: "b"}
    assert len(table) == 2
    assert table[a] == "a" and table[b] == "b"


def test_equality_is_equality_of_printed_terms():
    rng = random.Random(11)
    terms = [random_term(rng, 2) for _ in range(300)]
    printed = [print_term(t) for t in terms]
    assert len(set(printed)) < len(terms)  # some terms repeat
    for a, pa in zip(terms, printed):
        for b, pb in zip(terms, printed):
            assert (a == b) == (pa == pb)
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_terms_are_immutable(t):
    field = t._fields[-1]
    with pytest.raises(AttributeError):
        setattr(t, field, getattr(t, field))
    with pytest.raises(AttributeError):
        t.extra = 1


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_copies_keep_class_and_equality(t):
    for c in (copy.copy(t), copy.deepcopy(t),
              pickle.loads(pickle.dumps(t))):
        assert type(c) is type(t)
        assert c == t and hash(c) == hash(t)


def test_repr_names_the_class_and_its_fields():
    assert repr(App("+", (x, IntConst(1)))) == (
        "App(op='+', args=(Var(name='x', sort='Int'), IntConst(value=1)))")
