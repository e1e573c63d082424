import gc
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from synthlia.enumsearch import (
    BlockingPattern,
    Constructor,
    Datatype,
    DatatypeFamily,
    DtValue,
    EnumSession,
    Exhausted,
    KeyedPool,
    Pools,
    RewriterDup,
    SignatureDup,
    SolveStats,
    TimedOut,
    default_grammar,
    generalize_pattern,
    grammar_to_datatypes,
    pattern_matches,
    signature_of,
    solve_enum,
)
from synthlia import enumsearch, rewrite
from synthlia.driver import SolverConfig, Success, solve
from synthlia.problem import apply_solution
from synthlia.qfsolver import are_equivalent
from synthlia.rewrite import canonical_key
from synthlia.terms import (
    BOOL,
    INT,
    FunSort,
    IntConst,
    add,
    evaluate,
    ge,
    ite,
    ivar,
    le,
    print_term,
)

from helpers import (
    key_set,
    load_golden,
    oracle_terms,
    raw_terms,
    term_size,
    to_analog,
)

x, y = ivar("x"), ivar("y")

EQ12_POINTS = [(1, 0), (2, 1), (7, 1)]


def nsi_grammar():
    """The symmetric-max grammar (0|x|y|I+1|ite)."""
    return load_golden("max_sym.sy").functions[0].grammar


def io_grammar():
    """The plus/if grammar used with example points."""
    return load_golden("io_points.sy").functions[0].grammar


def nsi_family():
    return grammar_to_datatypes(nsi_grammar())


def io_family():
    return grammar_to_datatypes(io_grammar())


# ---------------------------------------------------------------------------
# Grammar-to-datatype compilation


def test_nsi_family_structure():
    fam = nsi_family()
    i = fam.datatype("I")
    names = [c.name for c in i.constructors]
    assert names == ["0", "x", "y", "plus", "if"]
    plus = fam.constructor("I", "plus")
    assert plus.children[0] == "I"
    aux = plus.children[1]
    assert aux != "I"
    # The literal 1 was flattened into a one-constructor datatype.
    assert [c.name for c in fam.datatype(aux).constructors] == ["1"]
    # geq duplicates leq up to swapping children and is dropped.
    b = fam.datatype("B")
    assert [c.name for c in b.constructors] == ["leq", "eq", "not"]


def test_io_family_structure():
    fam = io_family()
    assert [c.name for c in fam.datatype("I").constructors] == \
        ["0", "1", "x", "y", "plus", "if"]
    assert [c.name for c in fam.datatype("B").constructors] == \
        ["leq", "eq", "not"]


def test_default_grammar_shape():
    g = default_grammar(FunSort((INT, INT), INT), ("x", "y"))
    g.validate()
    assert g.nonterminals == {"I": INT, "B": BOOL}
    assert g.start == "I"
    assert g.generates(ite(le(x, y), y, x))
    assert not g.generates(ge(x, y), "B")  # only <= and = conditions


def test_default_grammar_avoids_param_clash():
    g = default_grammar(FunSort((INT,), INT), ("I",))
    g.validate()
    assert "I" not in g.nonterminals


# ---------------------------------------------------------------------------
# Analogs and evaluation


def test_to_analog_examples():
    fam = io_family()
    v = DtValue("I", "if", (
        DtValue("B", "leq", (DtValue("I", "y"), DtValue("I", "x"))),
        DtValue("I", "x"), DtValue("I", "y")))
    assert to_analog(v, fam) == ite(le(y, x), x, y)


def eval_coherence_sample(n: int, seed: int = 19) -> int:
    """Oracle: each term the brute-force grammar expansion derives up to
    size 3, from every nonterminal, must evaluate at a random point as
    the signature there of the pool term with the same canonical key.
    Returns the number of terms checked."""
    rng = random.Random(seed)
    g = io_grammar()
    fam = grammar_to_datatypes(g)
    pools = Pools(fam, lambda dt, t: True)
    pooled = {nt: {} for nt in g.nonterminals}
    for nt, by_key in pooled.items():
        for t in pools.upto(nt, 3):
            by_key.setdefault(canonical_key(t), t)
    drawn = [(nt, t) for nt in g.nonterminals for t in oracle_terms(g, 3, nt)]
    for _ in range(n):
        nt, t = rng.choice(drawn)
        point = (rng.randint(-5, 5), rng.randint(-5, 5))
        env = {"x": point[0], "y": point[1]}
        assert signature_of(pooled[nt][canonical_key(t)], fam, [point]) == \
            (evaluate(t, env),)
    return n


def test_signature_matches_analog_evaluation():
    assert eval_coherence_sample(500) == 500


def test_signature_of_on_example_points():
    fam = io_family()
    assert signature_of(x, fam, EQ12_POINTS) == (1, 2, 7)
    assert signature_of(IntConst(1), fam, EQ12_POINTS) == (1, 1, 1)
    with pytest.raises(ValueError):
        signature_of(x, fam, [])
    with pytest.raises(ValueError):
        signature_of(x, fam, [(1, 0), (2,)])


def test_a_session_keeps_the_terms_of_its_values():
    # Each term is dropped after its decision and nothing else holds it
    # (the normalize memo is cleared), so a later term may get its id:
    # the session's table must keep the terms its values belong to.
    session = EnumSession(io_family(), points=EQ12_POINTS)
    envs = [{"x": a, "y": b} for a, b in EQ12_POINTS]

    def values(t):
        return tuple(evaluate(t, env) for env in envs)

    assert session.process("I", x) == "retained"
    seen = {values(x)}
    gc.freeze()  # so that each collection walks only the new objects
    try:
        for k in range(1, 3001):
            # Odd k: x's values at every point (y >= 0 there); even k:
            # new values.
            t = ite(le(y, IntConst(-k)), IntConst(k), x) if k % 2 else \
                add(x, IntConst(k))
            want = "pruned_signature" if values(t) in seen else "retained"
            seen.add(values(t))
            assert session.process("I", t) == want, k
            del t
            rewrite.normalize.cache_clear()
            gc.collect()
    finally:
        gc.unfreeze()
    for by_sig in session.sigs.values():
        for sig, t in by_sig.items():
            assert values(t) == sig, print_term(t)


def test_only_leaves_are_evaluated_for_signatures(monkeypatch):
    # A composed candidate's signature is composed from its retained
    # children's values; only a leaf is evaluated, once per point.
    calls = []
    real = enumsearch.evaluate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumsearch, "evaluate", counting)
    session = EnumSession(io_family(), points=EQ12_POINTS)
    list(session.candidates(3))
    leaves = sum(c.arity() == 0 for d in session.family.datatypes
                 for c in d.constructors)
    assert session.stats.retained > leaves
    assert 0 < len(calls) <= leaves * len(EQ12_POINTS)


# ---------------------------------------------------------------------------
# Blocking patterns


def plus_x_zero():
    return DtValue("I", "plus", (DtValue("I", "x"), DtValue("I", "0")))


def test_make_and_match_exact_pattern():
    v = plus_x_zero()
    p = BlockingPattern("I", frozenset([
        ((), "plus"), ((("I", 1),), "x"), ((("I", 2),), "0")]))
    assert pattern_matches(p, v)
    other = DtValue("I", "plus", (DtValue("I", "y"), DtValue("I", "0")))
    assert not pattern_matches(p, other)
    assert not pattern_matches(p, DtValue("B", "leq", (
        DtValue("I", "x"), DtValue("I", "0"))))


def test_generalize_plus_zero_drops_first_child():
    fam = io_family()
    v = plus_x_zero()
    p = generalize_pattern(v, to_analog(v, fam), fam,
                           RewriterDup(canonical_key(x)))
    assert p.anchor == "I"
    assert p.constraints == frozenset([((), "plus"), ((("I", 2),), "0")])
    # Now any plus(_, 0) is blocked, per the generalized clause.
    assert pattern_matches(p, DtValue("I", "plus", (
        DtValue("I", "y"), DtValue("I", "0"))))
    assert not pattern_matches(p, DtValue("I", "plus", (
        DtValue("I", "0"), DtValue("I", "y"))))


def test_generalize_constant_condition_ite_drops_both_branches():
    fam = io_family()
    v = DtValue("I", "if", (
        DtValue("B", "leq", (DtValue("I", "0"), DtValue("I", "1"))),
        DtValue("I", "x"), DtValue("I", "0")))
    p = generalize_pattern(v, to_analog(v, fam), fam,
                           RewriterDup(canonical_key(x)))
    assert p.constraints == frozenset([
        ((), "if"),
        ((("B", 1),), "leq"),
        ((("B", 1), ("I", 1)), "0"),
        ((("B", 1), ("I", 2)), "1"),
    ])


def test_annotation_guard_blocks_cross_type_generalization():
    # D_I = x | plus(D_I1, D_I2);  D_I1 = 0|1|x|y|plus(D_I,D_I);  D_I2 = 0.
    # plus(x, 0) simplifies to x, but the collapsed subterm lives at
    # datatype I1, not I, so the first child may not be dropped.
    fam = DatatypeFamily(
        datatypes=(
            Datatype("I", INT, (
                Constructor("x", (), leaf=x),
                Constructor("plus", ("I1", "I2"), op="+"))),
            Datatype("I1", INT, (
                Constructor("0", (), leaf=IntConst(0)),
                Constructor("1", (), leaf=IntConst(1)),
                Constructor("x", (), leaf=x),
                Constructor("y", (), leaf=y),
                Constructor("plus", ("I", "I"), op="+"))),
            Datatype("I2", INT, (Constructor("0", (), leaf=IntConst(0)),)),
        ),
        start="I", params=(x, y))
    v = DtValue("I", "plus", (DtValue("I1", "x"), DtValue("I2", "0")))
    p = generalize_pattern(v, to_analog(v, fam), fam,
                           RewriterDup(canonical_key(x)))
    # plus(y, 0) would be a genuine candidate; it must stay unblocked.
    assert p.constraints == frozenset([
        ((), "plus"), ((("I1", 1),), "x"), ((("I2", 1),), "0")])
    assert not pattern_matches(p, DtValue("I", "plus", (
        DtValue("I1", "y"), DtValue("I2", "0"))))


def test_signature_generalization_drops_only_the_else_branch():
    fam = io_family()
    v = DtValue("I", "if", (
        DtValue("B", "leq", (DtValue("I", "y"), DtValue("I", "x"))),
        DtValue("I", "x"), DtValue("I", "y")))
    p = generalize_pattern(v, to_analog(v, fam), fam, SignatureDup(
        (1, 2, 7), tuple(tuple(pt) for pt in EQ12_POINTS)))
    # On (1,0),(2,1),(7,1) the condition y <= x always holds, so the
    # else branch is irrelevant; the then branch is not.
    assert ((("I", 2),), "y") not in p.constraints
    assert ((("I", 1),), "x") in p.constraints


# ---------------------------------------------------------------------------
# Sessions: pruning soundness and completeness


def test_session_retains_full_key_set():
    fam = nsi_family()
    session = EnumSession(fam)
    got = list(session.candidates(3))
    assert session.stats.consistent()
    assert len(got) == len(set(got))
    retained_keys = set(session.keys["I"])
    g = load_golden("max_sym.sy").functions[0].grammar
    oracle_keys = key_set(oracle_terms(g, 3))
    assert retained_keys == oracle_keys
    assert session.stats.retained < len(oracle_terms(g, 3))


def test_raw_enumeration_matches_grammar_oracle():
    fam = nsi_family()
    g = load_golden("max_sym.sy").functions[0].grammar
    raw = list(raw_terms(fam, 3))
    assert len(raw) == len(set(raw))
    assert key_set(raw) == key_set(oracle_terms(g, 3))


def test_default_grammar_encoding_is_exact():
    g = default_grammar(FunSort((INT,), INT), ("x",))
    fam = grammar_to_datatypes(g)
    raw = Counter(canonical_key(t) for t in raw_terms(fam, 3))
    oracle = Counter(canonical_key(t) for t in oracle_terms(g, 3))
    assert raw == oracle


TERM_GRAMMARS = {
    "io": io_grammar,
    "nsi": nsi_grammar,
    "default": lambda: default_grammar(FunSort((INT, INT), INT), ("x", "y")),
}


@pytest.mark.parametrize("name", sorted(TERM_GRAMMARS))
def test_pools_derive_each_grammar_term_once(name):
    g = TERM_GRAMMARS[name]()
    terms = list(raw_terms(grammar_to_datatypes(g), 3))
    assert len(terms) > 1000
    assert len(set(terms)) == len(terms)
    for t in terms:
        assert g.generates(t), print_term(t)


POOL_GRAMMARS = {
    "max_sym": lambda: load_golden("max_sym.sy").functions[0].grammar,
    "between_grammar":
        lambda: load_golden("between_grammar.sy").functions[0].grammar,
    "default": lambda: default_grammar(FunSort((INT,), INT), ("x",)),
}


@pytest.mark.parametrize("name", sorted(POOL_GRAMMARS))
def test_terms_upto_keeps_one_smallest_term_per_key(name):
    g = POOL_GRAMMARS[name]()
    for nt in g.nonterminals:
        got = g.terms_upto(3, nt)
        oracle = oracle_terms(g, 3, nt)
        assert set(got) == key_set(oracle)
        smallest: dict[str, int] = {}
        for t in oracle:  # in size order
            smallest.setdefault(canonical_key(t), term_size(t))
        for key, t in got.items():
            assert canonical_key(t) == key
            assert g.generates(t, nt)
            assert term_size(t) == smallest[key], (nt, key)


SAMPLE_GRAMMARS = {
    "max_sym": POOL_GRAMMARS["max_sym"],
    "between_grammar": POOL_GRAMMARS["between_grammar"],
    "default_int_int": lambda: default_grammar(FunSort((INT, INT), INT),
                                               ("x", "y")),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_GRAMMARS))
def test_terms_upto_with_a_sample_keeps_the_matching_terms(name):
    g = SAMPLE_GRAMMARS[name]()
    rng = random.Random(5)
    rows = [{p.name: rng.randint(-5, 5) for p in g.params}
            for _ in range(6)]

    def values(t):
        return tuple(evaluate(t, row) for row in rows)

    for nt in g.nonterminals:
        full = g.terms_upto(3, nt)
        for t in rng.sample(oracle_terms(g, 3, nt), 5):
            want = values(t)
            got = g.terms_upto(3, nt, sample=(rows, want))
            expected = [(k, u) for k, u in full.items() if values(u) == want]
            assert expected
            assert list(got.items()) == expected, (nt, t)


@pytest.mark.parametrize("name", sorted(POOL_GRAMMARS))
def test_a_shared_pool_answers_as_fresh_calls_do(name):
    # One pool serves every nonterminal, asked for sizes out of order,
    # with sampled budget levels in between; each answer must be the
    # fresh call's, in the same order.
    g = POOL_GRAMMARS[name]()
    rng = random.Random(5)
    rows = [{p.name: rng.randint(-5, 5) for p in g.params}
            for _ in range(6)]
    per_nt = []
    for nt in g.nonterminals:
        a, b = (tuple(evaluate(t, row) for row in rows)
                for t in rng.sample(oracle_terms(g, 3, nt), 2))
        per_nt.append([(nt, 3, (rows, a)), (nt, 1, None), (nt, 3, None),
                       (nt, 0, None), (nt, 3, (rows, b)), (nt, 2, None)])
    pool = KeyedPool(g)
    for step in zip(*per_nt):
        for nt, size, sample in step:
            got = g.terms_upto(size, nt, sample=sample, pool=pool)
            fresh = g.terms_upto(size, nt, sample=sample)
            assert list(got.items()) == list(fresh.items()), (nt, size)


def test_a_pool_cut_short_by_the_deadline_answers_as_a_fresh_one(
        monkeypatch):
    # The clock ticks once per deadline check, so the first call stops
    # inside a level; the keys it admitted there must not stay behind.
    ticks = itertools.count()
    monkeypatch.setattr(enumsearch, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    g = POOL_GRAMMARS["between_grammar"]()
    pool = KeyedPool(g)
    with pytest.raises(TimedOut):
        g.terms_upto(3, deadline=40, pool=pool)
    assert list(g.terms_upto(3, pool=pool).items()) == \
        list(g.terms_upto(3).items())


def test_candidates_stop_at_the_deadline(monkeypatch):
    # The clock ticks once per deadline check, and each check comes
    # just before a candidate is processed: six pass, the seventh stops.
    ticks = itertools.count()
    monkeypatch.setattr(enumsearch, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    stats = SolveStats()
    session = EnumSession(nsi_family(), stats=stats)
    with pytest.raises(TimedOut):
        list(session.candidates(3, deadline=5))
    assert session.stats is stats
    assert stats.enumerated == 6 and stats.consistent()


PRUNING_SESSIONS = {
    "io": lambda: EnumSession(io_family(), points=EQ12_POINTS),
    "nsi": lambda: EnumSession(nsi_family()),
}


@pytest.mark.parametrize("name", sorted(PRUNING_SESSIONS))
def test_pruning_is_sound_and_complete_against_raw_values(name):
    session = PRUNING_SESSIONS[name]()
    fam, points = session.family, session.points
    retained: dict[str, list] = {d.name: [] for d in fam.datatypes}
    process = session.process

    def recording(dt, analog):
        decision = process(dt, analog)
        if decision == "retained":
            retained[dt].append(analog)
        return decision

    session.process = recording
    list(session.candidates(3))
    assert session.stats.consistent()
    assert session.stats.pruned_rewriter > 0
    # Sound: one retained term per key, and per signature, per datatype.
    keys, sigs = {}, {}
    for dt, analogs in retained.items():
        keys[dt] = [canonical_key(t) for t in analogs]
        assert len(set(keys[dt])) == len(keys[dt]), dt
        assert set(keys[dt]) == session.keys[dt]
        if points is not None:
            sigs[dt] = [signature_of(t, fam, points) for t in analogs]
            assert len(set(sigs[dt])) == len(sigs[dt]), dt
    if points is not None:
        assert session.stats.pruned_signature > 0
    # Complete: every unpruned term up to the same size has a retained
    # representative of its datatype, by key or by signature.
    checked = 0
    for analog in raw_terms(fam, 3):
        assert canonical_key(analog) in keys[fam.start] or (
            points is not None
            and signature_of(analog, fam, points) in sigs[fam.start]
        ), print_term(analog)
        checked += 1
    assert checked > 1000


def test_session_signature_pruning_on_the_paper_candidate():
    session = EnumSession(io_family(), points=EQ12_POINTS)
    assert session.process("I", x) == "retained"
    assert session.process("I", ite(le(y, x), x, y)) == "pruned_signature"


# ---------------------------------------------------------------------------
# The solve loop


def test_solve_enum_symmetric_max():
    p = load_golden("max_sym.sy")
    fam = nsi_family()
    sol, stats = solve_enum(p, fam)
    assert are_equivalent(sol["f"].body, ite(le(y, x), x, y))
    assert stats.consistent()
    assert stats.enumerated < 5000
    # The returned body stays inside the grammar.
    assert p.functions[0].grammar.generates(sol["f"].body)


def test_solve_enum_exhausts_at_small_caps():
    p = load_golden("max_sym.sy")
    stats = SolveStats()
    with pytest.raises(Exhausted):
        solve_enum(p, nsi_family(), max_size=0, stats=stats)
    assert stats.enumerated > 0 and stats.consistent()


def test_solve_enum_with_io_points():
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family())
    body = sol["f"].body
    for (a, b), out in zip(EQ12_POINTS, (1, 3, 8)):
        assert evaluate(body, {"x": a, "y": b}) == out
    assert stats.consistent()


@pytest.mark.parametrize("sb_examples", [True, False])
def test_each_signature_is_evaluated_once(sb_examples, monkeypatch):
    # The session keeps each retained signature with its analog, so the
    # example check needs no signature of its own.
    calls = []

    def counting(*args):
        calls.append(args)
        return signature_of(*args)

    monkeypatch.setattr(enumsearch, "signature_of", counting)
    p = load_golden("io_points.sy")
    _, stats = solve_enum(p, io_family(), sb_examples=sb_examples)
    assert stats.retained > 0
    assert len(calls) == stats.retained + stats.pruned_signature


def test_solve_enum_without_symmetry_breaking_still_solves():
    p = load_golden("max_sym.sy")
    sol, stats = solve_enum(p, nsi_family(), sb_rewriter=False,
                            sb_examples=False)
    assert are_equivalent(sol["f"].body, ite(le(y, x), x, y))
    assert stats.pruned_rewriter == 0 and stats.pruned_signature == 0
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family(), sb_rewriter=False,
                            sb_examples=False)


@pytest.mark.parametrize("sb_examples", [True, False])
def test_io_conjecture_is_decided_without_the_solver(sb_examples,
                                                     monkeypatch):
    def no_solver(*args):
        raise AssertionError("check_sat called on an example conjecture")

    monkeypatch.setattr(enumsearch, "check_sat", no_solver)
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family(), sb_examples=sb_examples)
    body = sol["f"].body
    for (a, b), out in zip(EQ12_POINTS, (1, 3, 8)):
        assert evaluate(body, {"x": a, "y": b}) == out
    assert stats.counterexample_points == 0


def test_only_candidates_that_hold_at_every_counterexample_are_built(
        monkeypatch):
    # The others are rejected by evaluating the conjecture under their
    # interpretation; the solver sees one spec per counterexample found,
    # and one for the answer.
    built = []

    def counting(*args):
        built.append(args)
        return apply_solution(*args)

    monkeypatch.setattr(enumsearch, "apply_solution", counting)
    p = load_golden("max_sym.sy")
    sol, stats = solve_enum(p, nsi_family())
    assert are_equivalent(sol["f"].body, ite(le(y, x), x, y))
    assert stats.counterexample_points > 0
    assert stats.retained > stats.counterexample_points + 1
    assert len(built) == stats.counterexample_points + 1


GUARDED_SOLVES = {
    "max_sym.sy": ("enum", "enum"),
    "io_points.sy": ("enum", "enum"),
    "between_grammar.sy": ("portfolio", "cegqi+reconstruction"),
}


@pytest.mark.parametrize("name", sorted(GUARDED_SOLVES))
def test_search_and_reconstruction_build_no_datatype_values(name,
                                                            monkeypatch):
    # The pools enumerate terms; the constructor trees of the blocking
    # patterns play no part in a solve.
    def no_values(*args):
        raise AssertionError("a DtValue was built")

    monkeypatch.setattr(enumsearch, "DtValue", no_values)
    mode, strategy = GUARDED_SOLVES[name]
    out = solve(load_golden(name), SolverConfig(mode=mode))
    assert isinstance(out, Success)
    assert out.strategy == strategy
