"""End-to-end acceptance checks.

Each test exercises one headline behavior of the solver on a worked
problem, enforces its runtime bound, and emits a single PASS/FAIL line.
"""

import random
import time

from synthlia.cegqi import extract_solution, solve_cegqi
from synthlia.classify import classify, to_first_order, to_single_invocation
from synthlia.driver import SolverConfig, Success, solve, verify_solution
from synthlia.enumsearch import (
    EnumSession,
    default_grammar,
    grammar_to_datatypes,
    signature_of,
)
from synthlia.qfsolver import are_equivalent
from synthlia.rewrite import canonical_key
from synthlia.terms import (
    FunSort,
    IntConst,
    UFApp,
    add,
    and_,
    eq,
    evaluate,
    implies,
    ite,
)

from helpers import (
    consistent,
    ge,
    ivar,
    key_set,
    le,
    load_golden,
    oracle_terms,
    raw_terms,
)

from test_enum import eval_coherence_sample
from test_qf_solver import cross_check_sample
from test_rewrite import soundness_sample

x, y = ivar("x"), ivar("y")


def report(capsys, n: int, ok: bool, what: str, elapsed: float):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} criterion {n}: {what} ({elapsed:.2f}s)")
    assert ok


def test_criterion_1_between_via_cegqi(capsys):
    t0 = time.monotonic()
    p = load_golden("between.sy")
    fo = to_first_order(p)
    instances = solve_cegqi(fo)
    iters = len(instances)
    sol = extract_solution(instances, p, fo)
    want = ite(le(x, add(y, IntConst(1))),
               add(x, IntConst(1)), add(y, IntConst(1)))
    elapsed = time.monotonic() - t0
    ok = (isinstance(instances, tuple) and iters <= 3
          and are_equivalent(sol["f"].body, want)
          and elapsed < 1.0)
    report(capsys, 1, ok,
           "conditional solution in <= 3 instantiations", elapsed)


def test_criterion_2_io_points_trivial_solution(capsys):
    t0 = time.monotonic()
    p = load_golden("successor_points.sy")
    fo = to_first_order(p)
    instances = solve_cegqi(fo)
    iters = len(instances)
    sol = extract_solution(instances, p, fo)
    body = sol["f"].body
    values = [evaluate(body, {"x": v}) for v in (1, 2, 7)]
    elapsed = time.monotonic() - t0
    ok = (isinstance(instances, tuple) and iters <= 3
          and values == [2, 3, 8] and elapsed < 1.0)
    report(capsys, 2, ok,
           "point-wise solution matches the example table", elapsed)


def test_criterion_3_aux_elimination_and_max(capsys):
    t0 = time.monotonic()
    p = load_golden("max_aux.sy")
    q = to_single_invocation(p)
    f = UFApp("f", FunSort(("Int", "Int"), "Int"), (x, y))
    displayed = and_(implies(ge(x, y), eq(f, x)),
                     implies(ge(y, x), eq(f, y)))
    form_ok = canonical_key(q.constraint) == canonical_key(displayed)
    out = solve(q)
    rng = random.Random(101)
    agree = isinstance(out, Success)
    if agree:
        body = out.solution["f"].body
        for _ in range(100):
            a, b = rng.randint(-100, 100), rng.randint(-100, 100)
            if evaluate(body, {"x": a, "y": b}) != max(a, b):
                agree = False
                break
    elapsed = time.monotonic() - t0
    ok = form_ok and agree and elapsed < 1.0
    report(capsys, 3, ok,
           "auxiliary variable eliminated, solution behaves as max",
           elapsed)


def test_criterion_4_portfolio_reconstruction(capsys):
    t0 = time.monotonic()
    p = load_golden("between_grammar.sy")
    out = solve(p, SolverConfig(mode="portfolio"))
    elapsed = time.monotonic() - t0
    ok = (isinstance(out, Success)
          and out.strategy == "cegqi+reconstruction"
          and verify_solution(p, out.solution)
          and elapsed < 2.0)
    report(capsys, 4, ok,
           "portfolio reconstructs a grammar-conforming solution",
           elapsed)


def test_criterion_5_symmetric_max_by_enumeration(capsys):
    t0 = time.monotonic()
    p = load_golden("max_sym.sy")
    out = solve(p, SolverConfig(mode="enum", verify=True))
    elapsed = time.monotonic() - t0
    ok = (isinstance(out, Success)
          and are_equivalent(out.solution["f"].body, ite(le(y, x), x, y))
          and out.stats["enumerated"] <= 5000
          and elapsed < 30.0)
    report(capsys, 5, ok,
           "enumeration finds max within 5000 candidates", elapsed)


def test_criterion_6_symmetry_breaking_effect(capsys):
    t0 = time.monotonic()
    g = default_grammar(FunSort(("Int",), "Int"), ("x",))
    family = grammar_to_datatypes(g)
    session = EnumSession(family)
    list(session.candidates(4))
    retained_keys = set(session.keys[family.start])
    oracle = oracle_terms(g, 4)
    elapsed = time.monotonic() - t0
    ok = (consistent(session.stats)
          and session.stats.retained < len(oracle)
          and retained_keys == key_set(oracle)
          and elapsed < 10.0)
    report(capsys, 6, ok,
           f"retained {session.stats.retained} of {len(oracle)} size-4 "
           "candidates, key set preserved exactly", elapsed)


def test_criterion_7_io_signature_pruning(capsys):
    t0 = time.monotonic()
    p = load_golden("io_points.sy")
    cls = classify(p)
    points = [list(ins) for ins, _ in cls.points]
    family = grammar_to_datatypes(p.functions[0].grammar)
    session = EnumSession(family, points=points)
    sig_x = signature_of(x, family, points)
    session.process("I", x)
    decision = session.process("I", ite(le(y, x), x, y))
    elapsed = time.monotonic() - t0
    ok = (points == [[1, 0], [2, 1], [7, 1]]
          and sig_x == (1, 2, 7)
          and decision == "pruned_signature"
          and session.stats.pruned_signature == 1
          and elapsed < 5.0)
    report(capsys, 7, ok,
           "if(leq(y,x),x,y) pruned as signature-equal to x", elapsed)


def test_criterion_8_property_suites(capsys):
    t0 = time.monotonic()
    ok = True
    ok &= soundness_sample(1000, 20, seed=77) == 20000
    ok &= eval_coherence_sample(500, seed=78) == 500
    ok &= cross_check_sample(500, seed=79) == 500
    # Encoding completeness and pruning soundness up to size 4 on the
    # symmetric-max grammar.
    g = load_golden("max_sym.sy").functions[0].grammar
    family = grammar_to_datatypes(g)
    oracle_keys = key_set(oracle_terms(g, 4))
    raw_keys = {canonical_key(t) for t in raw_terms(family, 4)}
    ok &= raw_keys == oracle_keys
    session = EnumSession(family)
    list(session.candidates(4))
    ok &= consistent(session.stats)
    ok &= set(session.keys[family.start]) == oracle_keys
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(capsys, 8, ok,
           "rewriter, evaluator, qf-solver and enumeration property "
           "suites", elapsed)
