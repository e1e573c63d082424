import gc
import itertools
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from synthlia.enumsearch import (
    BlockingPattern,
    Constructor,
    Datatype,
    DatatypeFamily,
    DtValue,
    Context,
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
from synthlia.problem import GrammarError, apply_solution
from synthlia.qfsolver import are_equivalent
from synthlia.rewrite import canonical_key
from synthlia.sygus import parse_problem
from synthlia.terms import (
    BOOL,
    INT,
    BoolConst,
    FunSort,
    IntConst,
    add,
    evaluate,
    ite,
    print_term,
    sort_of,
)

from helpers import (
    GOLDEN,
    consistent,
    ctor_label,
    evaluated_signature,
    ge,
    ivar,
    key_set,
    le,
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
    names = [ctor_label(c) for c in i.constructors]
    assert names == ["0", "x", "y", "plus", "if"]
    plus = i.constructors[names.index("plus")]
    assert plus.children[0] == "I"
    aux = plus.children[1]
    assert aux != "I"
    # The literal 1 was flattened into a one-constructor datatype.
    assert [ctor_label(c) for c in fam.datatype(aux).constructors] == ["1"]
    # geq duplicates leq up to swapping children and is dropped.
    b = fam.datatype("B")
    assert [ctor_label(c) for c in b.constructors] == ["leq", "eq", "not"]


def test_io_family_structure():
    fam = io_family()
    assert [ctor_label(c) for c in fam.datatype("I").constructors] == \
        ["0", "1", "x", "y", "plus", "if"]
    assert [ctor_label(c) for c in fam.datatype("B").constructors] == \
        ["leq", "eq", "not"]


def _grammar(fun: str, constraint: str = "(>= (f x y) x)"):
    text = (f"(set-logic LIA)\n(synth-fun {fun})\n(declare-var x Int)\n"
            f"(declare-var y Int)\n(constraint {constraint})\n"
            "(check-synth)")
    return parse_problem(text).functions[0].grammar


def _labels(g):
    return [(d.name, [ctor_label(c) for c in d.constructors])
            for d in grammar_to_datatypes(g).datatypes]


def test_a_unit_production_cycle_adds_no_constructor():
    # I -> I derives nothing I does not; splicing it in used to recurse
    # forever.
    rules = "(x y 0 (+ I I) (ite B I I))) (B Bool ((<= I I)))"
    plain = _grammar(f"f ((x Int) (y Int)) Int ((I Int) (B Bool)) "
                     f"((I Int {rules})")
    cyclic = _grammar(f"f ((x Int) (y Int)) Int ((I Int) (B Bool)) "
                      f"((I Int (I {rules[1:]})")
    assert len(cyclic.rules) == len(plain.rules) + 1
    assert _labels(cyclic) == _labels(plain)


def test_compiling_a_wide_grammar_tries_no_permutation_of_unlike_rules(
        monkeypatch):
    # and/or over nine children each have 9! child permutations, and
    # their normal forms' heads differ, so none is tried. The names are
    # this test's own, so the compile cache cannot answer it.
    calls = Counter()
    real = enumsearch.normalize

    def counted(t):
        calls["normalize"] += 1
        return real(t)

    monkeypatch.setattr(enumsearch, "normalize", counted)
    nine = " ".join(["Wb"] * 9)
    g = _grammar(f"f ((x Int) (y Int)) Bool ((Wb Bool) (Wi Int)) "
                 f"((Wb Bool ((and {nine}) (or {nine}) (<= Wi Wi))) "
                 f"(Wi Int (x y 0 1)))", "(= (f x y) (<= x y))")
    assert [labels for _, labels in _labels(g)] == \
        [["and", "or", "leq"], ["x", "y", "0", "1"]]
    assert 0 < calls["normalize"] < 100


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
        assert signature_of(pooled[nt][canonical_key(t)], [env], {}) == \
            (evaluate(t, env),)
    return n


def test_signature_matches_analog_evaluation():
    assert eval_coherence_sample(500) == 500


def test_signature_of_on_example_points():
    rows = [{"x": a, "y": b} for a, b in EQ12_POINTS]
    assert signature_of(x, rows, {}) == (1, 2, 7)
    assert signature_of(IntConst(1), rows, {}) == (1, 1, 1)


def test_a_session_reads_its_points_once_at_construction():
    fam = io_family()
    with pytest.raises(ValueError):
        EnumSession(fam, points=[])
    with pytest.raises(ValueError):
        EnumSession(fam, points=[(1, 0), (2,)])
    rows, known = EnumSession(fam, points=EQ12_POINTS).examples
    assert rows == [{"x": a, "y": b} for a, b in EQ12_POINTS]
    assert known == {}
    assert EnumSession(fam).examples is None


def test_every_signature_reads_the_session_rows_and_table(monkeypatch):
    sessions, reads = [], []
    init = EnumSession.__init__

    def recording_init(session, *args, **kwargs):
        init(session, *args, **kwargs)
        sessions.append(session)

    def recording(t, rows, known):
        reads.append((rows, known))
        return signature_of(t, rows, known)

    monkeypatch.setattr(EnumSession, "__init__", recording_init)
    monkeypatch.setattr(enumsearch, "signature_of", recording)
    solve_enum(load_golden("io_points.sy"), io_family())
    [session] = sessions
    rows, known = session.examples
    assert len(reads) > 1
    assert all(r is rows and k is known for r, k in reads)


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


def test_the_values_table_keys_equal_terms_once(monkeypatch):
    # Two equal terms built apart share no node, yet their values are
    # one entry: each leaf is evaluated once per row, never twice.
    calls = []
    real = enumsearch.evaluate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumsearch, "evaluate", counting)
    rows = [{"x": a} for a in (-1, 0, 4)]
    first, second = (add(ivar("x"), IntConst(1)) for _ in range(2))
    assert first == second and first is not second
    assert first.args[0] is not second.args[0]
    known = {}
    assert enumsearch.values_at(first, rows, known) == (0, 1, 5)
    assert enumsearch.values_at(second, rows, known) == (0, 1, 5)
    assert len(calls) == 6


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
                Constructor((), leaf=x),
                Constructor(("I1", "I2"), op="+"))),
            Datatype("I1", INT, (
                Constructor((), leaf=IntConst(0)),
                Constructor((), leaf=IntConst(1)),
                Constructor((), leaf=x),
                Constructor((), leaf=y),
                Constructor(("I", "I"), op="+"))),
            Datatype("I2", INT, (Constructor((), leaf=IntConst(0)),)),
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
    assert consistent(session.stats)
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


def _family(*extra):
    # I = x | extra;  B = leq(I, I);  I1 = 2.
    return DatatypeFamily(
        datatypes=(
            Datatype("I", INT, (Constructor((), leaf=x),) + extra),
            Datatype("B", BOOL, (Constructor(("I", "I"), op="<="),)),
            Datatype("I1", INT, (Constructor((), leaf=IntConst(2)),)),
        ),
        start="I", params=(x,))


def test_the_compile_check_accepts_only_well_sorted_constructors():
    for good in (Constructor(("I", "I"), op="+"),
                 Constructor(("I1", "I"), op="*"),
                 Constructor(("B", "I", "I"), op="ite")):
        enumsearch._check_sorted(_family(good))
    # The error names the bad constructor by its rule.
    for bad, rule in (
            (Constructor(("I", "I"), op="<="), "(<= I I)"),  # a Bool in I
            (Constructor(("I", "B"), op="+"), "(+ I B)"),    # adds a Bool
            (Constructor(("I", "I"), op="*"), "(* I I)"),    # no literal
            (Constructor(("I", "I", "I"), op="ite"), "(ite I I I)"),
            (Constructor(("I",), op="not"), "(not I)"),
            (Constructor((), leaf=BoolConst(True)), "true")):
        with pytest.raises(GrammarError, match=re.escape(rule)):
            enumsearch._check_sorted(_family(bad))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.sy")))
def test_every_pool_term_is_well_sorted(name):
    # Keying walks no term for sorts: it relies on the compile check.
    # Every term of every datatype up to size 3 passes the full walk.
    f = load_golden(name).functions[0]
    g = f.grammar or default_grammar(f.fsort, f.param_names)
    fam = grammar_to_datatypes(g)
    pools = Pools(fam, lambda dt, t: True)
    for d in fam.datatypes:
        for t in pools.upto(d.name, 3):
            assert sort_of(t) == d.sort, print_term(t)


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
    # (+ x x) is composed twice in I's level 1, by (+ I I) and (+ I J).
    "ambiguous": lambda: _grammar(
        "f ((x Int) (y Int)) Int ((I Int) (J Int)) "
        "((I Int (x y (+ I I) (+ I J))) (J Int (x 1)))"),
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


def test_no_pool_holds_terms_below_size_0():
    # A negative size used to count as 0 in a level's composition, which
    # recursed downward through (not B) without end.
    g = POOL_GRAMMARS["between_grammar"]()
    rows = [{"x": 1, "y": 0}]
    for nt in g.nonterminals:
        assert g.terms_upto(-1, nt, sample=(rows, (1,))) == {}
        assert g.terms_upto(-1, nt) == {}
    pools = Pools(grammar_to_datatypes(g), lambda dt, t: True)
    for dt in g.nonterminals:
        assert pools.level(dt, -1) == []
        assert list(pools.compositions(dt, -1)) == []


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


@pytest.mark.parametrize("cut", [5, 40, 200, 1000, 3000])
@pytest.mark.parametrize("cut_sampled", [False, True])
def test_a_pool_cut_short_by_the_deadline_answers_as_a_fresh_one(
        monkeypatch, cut, cut_sampled):
    # The clock ticks once per deadline check, so the first call, sampled
    # or not, stops inside a level; the keys it admitted there must not
    # stay behind. A sampled call, then an unsampled one, follow it.
    ticks = itertools.count()
    monkeypatch.setattr(enumsearch, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    g = POOL_GRAMMARS["between_grammar"]()
    rng = random.Random(cut)
    rows = [{p.name: rng.randint(-5, 5) for p in g.params}
            for _ in range(6)]
    t = rng.choice(oracle_terms(g, 3))
    sample = (rows, tuple(evaluate(t, row) for row in rows))
    pool = KeyedPool(g, Context(deadline=cut))
    with pytest.raises(TimedOut):
        g.terms_upto(3, sample=sample if cut_sampled else None, pool=pool)
    pool.ctx.deadline = None
    assert list(g.terms_upto(3, sample=sample, pool=pool).items()) == \
        list(g.terms_upto(3, sample=sample).items())
    assert list(g.terms_upto(3, pool=pool).items()) == \
        list(g.terms_upto(3).items())


def keyed_pools(fam):
    """Pools that admit a term when its canonical key is new for its
    datatype."""
    seen = {d.name: set() for d in fam.datatypes}

    def admit(dtname, t):
        key = canonical_key(t)
        if key in seen[dtname]:
            return False
        seen[dtname].add(key)
        return True

    return Pools(fam, admit)


ORDER_GRAMMARS = sorted(p.name for p in GOLDEN.glob("*.sy")) + ["default"]


@pytest.mark.parametrize("name", ORDER_GRAMMARS)
def test_pool_levels_do_not_depend_on_the_order_they_are_asked_in(name):
    # A pool that admits by canonical key per datatype: a level holds
    # the same terms as a size-major build's, whatever order the
    # (datatype, size) levels are asked for in.
    if name == "default":
        g = default_grammar(FunSort((INT, INT), INT), ("x", "y"))
    else:
        f = load_golden(name).functions[0]
        g = f.grammar or default_grammar(f.fsort, f.param_names)
    fam = grammar_to_datatypes(g)
    asks = [(d.name, size) for size in range(4) for d in fam.datatypes]
    size_major = keyed_pools(fam)
    want = {ask: size_major.level(*ask) for ask in asks}
    rng = random.Random(0)
    for _ in range(30):
        rng.shuffle(asks)
        pools = keyed_pools(fam)
        got = {ask: pools.level(*ask) for ask in asks}
        assert got == want, asks


STREAM_GRAMMARS = dict(POOL_GRAMMARS,
                       default_int_int=SAMPLE_GRAMMARS["default_int_int"])


@pytest.mark.parametrize("name", sorted(STREAM_GRAMMARS))
def test_a_streamed_top_level_yields_the_levels_a_build_holds(name):
    # Streamed term by term or built level by level, the pools admit
    # the same terms in the same order, and keep the same levels.
    fam = grammar_to_datatypes(STREAM_GRAMMARS[name]())
    built = keyed_pools(fam)
    want = [t for size in range(5) for t in built.level(fam.start, size)]
    streamed = keyed_pools(fam)
    assert list(streamed.upto(fam.start, 4)) == want
    assert streamed._levels == built._levels


def test_an_abandoned_stream_keeps_no_part_of_its_level():
    fam = nsi_family()
    whole = Pools(fam, lambda dt, t: True).level(fam.start, 2)
    pools = Pools(fam, lambda dt, t: True)
    below = len(pools.level(fam.start, 0)) + len(pools.level(fam.start, 1))
    stream = pools.upto(fam.start, 2)
    for _ in range(below + 3):
        next(stream)
    stream.close()
    assert (fam.start, 2) not in pools._levels
    assert pools.level(fam.start, 2) == whole


@pytest.mark.parametrize("name", ["io_points.sy", "max_sym.sy"])
def test_the_search_composes_no_candidate_after_its_solution(name,
                                                             monkeypatch):
    seen = []
    process = EnumSession.process

    def recording(session, dtname, term):
        if dtname == session.family.start:
            seen.append(term)
        return process(session, dtname, term)

    monkeypatch.setattr(EnumSession, "process", recording)
    p = load_golden(name)
    sol, _ = solve_enum(p, grammar_to_datatypes(p.functions[0].grammar))
    assert seen[-1] is sol["f"].body


def test_candidates_stop_at_the_deadline(monkeypatch):
    # The clock ticks once per deadline check, and each check comes
    # just before a candidate is processed: six pass, the seventh stops.
    ticks = itertools.count()
    monkeypatch.setattr(enumsearch, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    stats = SolveStats()
    session = EnumSession(nsi_family(), Context(deadline=5, stats=stats))
    with pytest.raises(TimedOut):
        list(session.candidates(3))
    assert session.stats is stats
    assert stats.enumerated == 6 and consistent(stats)


PRUNING_SESSIONS = {
    "io": lambda: EnumSession(io_family(), points=EQ12_POINTS),
    "nsi": lambda: EnumSession(nsi_family()),
}


@pytest.mark.parametrize("name", sorted(PRUNING_SESSIONS))
def test_pruning_is_sound_and_complete_against_raw_values(name):
    session = PRUNING_SESSIONS[name]()
    fam = session.family
    rows = session.examples[0] if session.examples else None
    retained: dict[str, list] = {d.name: [] for d in fam.datatypes}
    process = session.process

    def recording(dt, analog):
        decision = process(dt, analog)
        if decision == "retained":
            retained[dt].append(analog)
        return decision

    session.process = recording
    list(session.candidates(3))
    assert consistent(session.stats)
    assert session.stats.pruned_rewriter > 0
    # Sound: one retained term per key, and per signature, per datatype.
    keys, sigs = {}, {}
    for dt, analogs in retained.items():
        keys[dt] = [canonical_key(t) for t in analogs]
        assert len(set(keys[dt])) == len(keys[dt]), dt
        assert set(keys[dt]) == session.keys[dt]
        if rows is not None:
            sigs[dt] = [evaluated_signature(t, rows) for t in analogs]
            assert len(set(sigs[dt])) == len(sigs[dt]), dt
    if rows is not None:
        assert session.stats.pruned_signature > 0
    # Complete: every unpruned term up to the same size has a retained
    # representative of its datatype, by key or by signature.
    checked = 0
    for analog in raw_terms(fam, 3):
        assert canonical_key(analog) in keys[fam.start] or (
            rows is not None
            and evaluated_signature(analog, rows) in sigs[fam.start]
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
    assert consistent(stats)
    assert stats.enumerated < 5000
    # The returned body stays inside the grammar.
    assert p.functions[0].grammar.generates(sol["f"].body)


def test_solve_enum_exhausts_at_small_caps():
    p = load_golden("max_sym.sy")
    stats = SolveStats()
    with pytest.raises(Exhausted):
        solve_enum(p, nsi_family(), Context(stats=stats), max_size=0)
    assert stats.enumerated > 0 and consistent(stats)


def test_solve_enum_with_io_points():
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family())
    body = sol["f"].body
    for (a, b), out in zip(EQ12_POINTS, (1, 3, 8)):
        assert evaluate(body, {"x": a, "y": b}) == out
    assert consistent(stats)


def test_each_signature_is_evaluated_once(monkeypatch):
    # The session keeps each retained signature with its analog, so the
    # example check needs no signature of its own.
    calls = []

    def counting(*args):
        calls.append(args)
        return signature_of(*args)

    monkeypatch.setattr(enumsearch, "signature_of", counting)
    p = load_golden("io_points.sy")
    _, stats = solve_enum(p, io_family())
    assert stats.retained > 0
    assert len(calls) == stats.retained + stats.pruned_signature


def test_io_conjecture_is_decided_without_the_solver(monkeypatch):
    def no_solver(*args):
        raise AssertionError("check_sat called on an example conjecture")

    monkeypatch.setattr(enumsearch, "check_sat", no_solver)
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family())
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
