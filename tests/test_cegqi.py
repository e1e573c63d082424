import random
from collections import Counter
from types import SimpleNamespace

import pytest

from synthlia.cegqi import (
    GaveUp,
    ReconstructionFailure,
    Solved,
    extract_solution,
    reconstruct,
    select_terms,
    solve_cegqi,
)
from synthlia import enumsearch
from synthlia.classify import to_first_order, to_single_invocation
from synthlia.driver import SolverConfig, Success, solve
from synthlia.problem import Grammar, SynthFun, SynthProblem, apply_solution
from synthlia.qfsolver import are_equivalent, check_valid
from synthlia.rewrite import canonical_key
from synthlia.terms import (
    BOOL,
    INT,
    App,
    FunSort,
    IntConst,
    Lambda,
    UFApp,
    Var,
    add,
    and_,
    eq,
    evaluate,
    free_vars,
    ge,
    gt,
    ite,
    ivar,
    le,
    lt,
    mul,
    print_term,
    sub,
    substitute,
)

from helpers import load_golden, random_bool_term, term_size

x, y = ivar("x"), ivar("y")


def test_between_solved_in_two_iterations():
    p = load_golden("between.sy")
    fo = to_first_order(p)
    res = solve_cegqi(fo)
    assert isinstance(res, Solved)
    assert len(res.trace.instances) == 2
    keys = [canonical_key(t[0]) for t in res.trace.instances]
    assert keys == [canonical_key(add(x, IntConst(1))),
                    canonical_key(add(y, IntConst(1)))]
    sol = extract_solution(res.trace, p, fo)
    want = ite(le(x, add(y, IntConst(1))),
               add(x, IntConst(1)), add(y, IntConst(1)))
    assert are_equivalent(sol["f"].body, want)
    assert check_valid(apply_solution(p, sol))


def test_io_points_trivial_solution_table():
    p = load_golden("successor_points.sy")
    fo = to_first_order(p)
    res = solve_cegqi(fo)
    assert isinstance(res, Solved)
    assert len(res.trace.instances) == 3
    # The instances are the constant outputs, tried in point order.
    vals = [t[0] for t in res.trace.instances]
    assert vals == [IntConst(2), IntConst(3), IntConst(8)]
    sol = extract_solution(res.trace, p, fo)
    body = sol["f"].body
    for inp, out in ((1, 2), (2, 3), (7, 8)):
        assert evaluate(body, {"x": inp}) == out


def test_max_aux_roundtrip():
    p = to_single_invocation(load_golden("max_aux.sy"))
    fo = to_first_order(p)
    res = solve_cegqi(fo)
    assert isinstance(res, Solved)
    sol = extract_solution(res.trace, p, fo)
    body = sol["f"].body
    for a, b in ((0, 0), (3, -5), (-5, 3), (7, 7), (-2, -9)):
        assert evaluate(body, {"x": a, "y": b}) == max(a, b)


def test_infeasible_conjecture():
    f = SynthFun("f", FunSort((INT,), INT), ("a",))
    p = SynthProblem(
        functions=(f,),
        universals=(x,),
        constraint=and_(gt(UFApp("f", f.fsort, (x,)), x),
                        lt(UFApp("f", f.fsort, (x,)), x)))
    res = solve_cegqi(to_first_order(p))
    assert isinstance(res, GaveUp)
    assert res.reason == "infeasible"


def test_iteration_cap():
    p = load_golden("between.sy")
    res = solve_cegqi(to_first_order(p), max_iters=0)
    assert isinstance(res, GaveUp)
    assert res.reason == "iteration-cap"
    assert len(res.trace.instances) == 0


def test_select_terms_prefers_satisfied_bounds():
    k = ivar("k")
    body = and_(le(x, k), le(k, y))
    model = {"x": 2, "y": 5, "k": 2}
    picked = select_terms(model, (k,), body)
    assert picked == (x,)  # the maximal satisfied lower bound


def test_select_terms_constant_fallback():
    k = ivar("k")
    body = le(add(k, k), y)  # non-unit coefficient: no usable bounds
    picked = select_terms({"y": 10, "k": 3}, (k,), body)
    assert picked == (IntConst(3),)


def test_select_terms_fills_later_bool_variables_with_bool_constants():
    # f's bounds are tried while g's instantiation variable is still
    # open; it must be filled with a Bool, not an Int, constant.
    fsort = FunSort((INT, INT), INT)
    gsort = FunSort((INT, INT), BOOL)
    f = SynthFun("f", fsort, ("a", "b"))
    g = SynthFun("g", gsort, ("a", "b"))
    fxy = UFApp("f", fsort, (x, y))
    p = SynthProblem(
        functions=(f, g),
        universals=(x, y),
        constraint=and_(ge(fxy, x), ge(fxy, y),
                        eq(UFApp("g", gsort, (x, y)), le(x, y))))
    out = solve(p, SolverConfig(verify=True))
    assert isinstance(out, Success), out
    assert check_valid(apply_solution(p, out.solution))


def test_select_terms_substitutes_chosen_instantiation_variables():
    # g's bound  k_g = x + y - k_f  mentions f's instantiation variable;
    # once f's pick is chosen it is substituted, and one instance solves.
    fsort = FunSort((INT, INT), INT)
    f = SynthFun("f", fsort, ("a", "b"))
    g = SynthFun("g", fsort, ("a", "b"))
    fxy, gxy = UFApp("f", fsort, (x, y)), UFApp("g", fsort, (x, y))
    p = SynthProblem(
        functions=(f, g),
        universals=(x, y),
        constraint=and_(eq(add(fxy, gxy), add(x, y)), ge(fxy, x)))
    out = solve(p, SolverConfig(verify=True))
    assert isinstance(out, Success), out
    assert out.strategy == "cegqi"
    assert out.stats["cegqi_iterations"] == 1
    assert out.solution["f"].body == Var("a", INT)
    assert out.solution["g"].body == Var("b", INT)


def test_extract_solution_needs_instances():
    p = load_golden("between.sy")
    fo = to_first_order(p)
    res = solve_cegqi(fo, max_iters=0)
    with pytest.raises(ValueError):
        extract_solution(res.trace, p, fo)


def random_si_problem(rng: random.Random) -> SynthProblem:
    f = SynthFun("f", FunSort((INT, INT), INT), ("a", "b"))
    while True:
        t = random_bool_term(rng, depth=2)
        if ivar("z") in free_vars(t):
            break
    constraint = substitute(t, {"z": UFApp("f", f.fsort, (x, y))})
    return SynthProblem((f,), (x, y), constraint)


def test_random_single_invocation_soundness():
    rng = random.Random(42)
    solved = 0
    for _ in range(100):
        p = random_si_problem(rng)
        fo = to_first_order(p)
        res = solve_cegqi(fo, max_iters=16)
        assert len(res.trace.instances) <= 16
        if isinstance(res, Solved):
            sol = extract_solution(res.trace, p, fo)
            assert check_valid(apply_solution(p, sol))
            solved += 1
        else:
            assert res.reason in ("infeasible", "iteration-cap",
                                  "resource-limit")
    assert solved > 20  # most random specs should be solvable


def test_instances_are_distinct():
    rng = random.Random(5)
    for _ in range(30):
        p = random_si_problem(rng)
        res = solve_cegqi(to_first_order(p), max_iters=16)
        keys = [tuple(canonical_key(t) for t in inst)
                for inst in res.trace.instances]
        assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# Reconstruction


def restricted_grammar() -> Grammar:
    inode = Var("I", INT)
    bnode = Var("B", BOOL)
    rules = (
        ("I", IntConst(0)), ("I", IntConst(1)), ("I", x), ("I", y),
        ("I", App("+", (inode, inode))),
        ("I", App("ite", (bnode, inode, inode))),
        ("B", App(">", (inode, inode))),
        ("B", App("=", (inode, inode))),
        ("B", App("not", (bnode,))),
    )
    g = Grammar(start="I", nonterminals={"I": INT, "B": BOOL},
                rules=rules, params=(x, y))
    g.validate()
    return g


def test_reconstruct_repairs_the_condition():
    g = restricted_grammar()
    body = ite(le(x, add(y, IntConst(1))),
               add(x, IntConst(1)), add(y, IntConst(1)))
    sol = {"f": Lambda((x, y), body)}
    out = reconstruct(sol, g, budget=3)
    assert g.generates(out["f"].body)
    assert are_equivalent(out["f"].body, body)


def test_reconstruct_fails_on_ungenerable_targets():
    g = Grammar(start="I", nonterminals={"I": INT},
                rules=(("I", IntConst(0)), ("I", x)), params=(x, y))
    g.validate()
    with pytest.raises(ReconstructionFailure):
        reconstruct({"f": Lambda((x, y), y)}, g, budget=4)


def test_reconstruct_keeps_generable_bodies():
    g = restricted_grammar()
    body = ite(gt(x, y), x, y)
    out = reconstruct({"f": Lambda((x, y), body)}, g, budget=2)
    assert out["f"].body == body


def test_reconstruct_samples_the_target_s_own_variables():
    # The budget level's sample rows bind every free variable of the
    # target's normal form, not only the grammar's parameters.
    g = restricted_grammar()
    z = ivar("z")
    body = ite(le(z, IntConst(0)), x, add(x, IntConst(1)))
    with pytest.raises(ReconstructionFailure):
        reconstruct({"f": Lambda((x, y), body)}, g, budget=3)
    body = sub(add(x, IntConst(1), z), z)
    out = reconstruct({"f": Lambda((x, y), body)}, g, budget=3)
    assert print_term(out["f"].body) == "(+ 1 x)"


# 2x + y + 1: the smallest term the restricted grammar derives with its
# normal form, (+ (+ x x) (+ y 1)), is at size 3.
BUDGET_ONLY = add(mul(2, x), y, IntConst(1))


def test_reconstruct_keys_the_budget_level_through_terms_upto(monkeypatch):
    # perfbench times reconstruction's pools by wrapping
    # Grammar.terms_upto, so the budget level's filtered scan must be a
    # call of it.
    calls = []
    real = Grammar.terms_upto

    def counted(self, max_size, *args, **kwargs):
        calls.append((max_size, kwargs.get("sample") is not None))
        return real(self, max_size, *args, **kwargs)

    monkeypatch.setattr(Grammar, "terms_upto", counted)
    g = restricted_grammar()
    out = reconstruct({"f": Lambda((x, y), BUDGET_ONLY)}, g, budget=3)
    assert g.generates(out["f"].body)
    assert canonical_key(out["f"].body) == canonical_key(BUDGET_ONLY)
    assert calls == [(0, False), (1, False), (2, False), (3, True)]


def test_reconstruct_times_out_in_the_budget_scan(monkeypatch):
    # The clock passes the deadline as the budget level's scan starts,
    # so only the scan's own per-candidate checks can notice it.
    now = SimpleNamespace(value=0.0)
    monkeypatch.setattr(enumsearch, "time",
                        SimpleNamespace(monotonic=lambda: now.value))
    timed_out = []
    real = Grammar.terms_upto

    def clocked(self, max_size, nt=None, deadline=None, sample=None, *,
                pool=None):
        if sample is not None:
            now.value = 2.0
        try:
            return real(self, max_size, nt, deadline, sample, pool=pool)
        except enumsearch.TimedOut:
            timed_out.append((max_size, sample is not None))
            raise

    monkeypatch.setattr(Grammar, "terms_upto", clocked)
    g = restricted_grammar()
    with pytest.raises(enumsearch.TimedOut):
        reconstruct({"f": Lambda((x, y), BUDGET_ONLY)}, g, budget=3,
                    deadline=1.0)
    assert timed_out == [(3, True)]


def test_reconstruct_builds_each_level_once(monkeypatch):
    # The four terms_upto calls share one pool: the grammar is compiled
    # once, and each value below the budget is keyed once.
    compiled = []
    keyed = Counter()
    real_compile = enumsearch.grammar_to_datatypes
    real_key = enumsearch.canonical_key

    def compile_(g):
        compiled.append(g)
        return real_compile(g)

    def key(t):
        keyed[t] += 1
        return real_key(t)

    monkeypatch.setattr(enumsearch, "grammar_to_datatypes", compile_)
    monkeypatch.setattr(enumsearch, "canonical_key", key)
    g = restricted_grammar()
    reconstruct({"f": Lambda((x, y), BUDGET_ONLY)}, g, budget=3)
    assert compiled == [g]
    below = [n for t, n in keyed.items() if term_size(t) < 3]
    assert len(below) > 100
    assert set(below) == {1}
