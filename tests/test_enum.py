import random
from collections import Counter

import pytest

from synthlia.enumsearch import (
    BlockingPattern,
    Constructor,
    Datatype,
    DatatypeFamily,
    DtValue,
    EnumSession,
    Exhausted,
    PatternIndex,
    Pools,
    RewriterDup,
    SignatureDup,
    TimedOut,
    default_grammar,
    generalize_pattern,
    grammar_to_datatypes,
    pattern_matches,
    signature_of,
    solve_enum,
)
from synthlia import enumsearch
from synthlia.qfsolver import are_equivalent
from synthlia.rewrite import canonical_key
from synthlia.terms import (
    BOOL,
    INT,
    FunSort,
    IntConst,
    evaluate,
    ge,
    ite,
    ivar,
    le,
)

from helpers import (
    key_set,
    load_golden,
    oracle_terms,
    raw_values,
    term_size,
    to_analog,
)

x, y = ivar("x"), ivar("y")

EQ12_POINTS = [(1, 0), (2, 1), (7, 1)]


def nsi_family():
    """Datatypes for the symmetric-max grammar (0|x|y|I+1|ite)."""
    return grammar_to_datatypes(load_golden("max_sym.sy")
                                .functions[0].grammar)


def io_family():
    """Datatypes for the plus/if grammar used with example points."""
    return grammar_to_datatypes(load_golden("io_points.sy")
                                .functions[0].grammar)


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
    """Oracle: the signature of each analog a pool composed must agree
    with direct evaluation of the value's recursively rebuilt analog, on
    random points. The pairs come from every datatype's pool up to size
    3. Returns the number of pairs checked."""
    rng = random.Random(seed)
    fam = io_family()
    pools = Pools(fam, lambda v, t: True)
    pairs = [pair for d in fam.datatypes for pair in pools.upto(d.name, 3)]
    for _ in range(n):
        v, t = rng.choice(pairs)
        point = (rng.randint(-5, 5), rng.randint(-5, 5))
        env = {"x": point[0], "y": point[1]}
        assert signature_of(t, fam, [point]) == \
            (evaluate(to_analog(v, fam), env),)
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


def test_session_learns_plus_zero_from_the_first_pruned_candidate():
    fam = io_family()
    session = EnumSession(fam)
    u = DtValue("I", "x")
    assert session.process(u, to_analog(u, fam)) == "retained"
    v = plus_x_zero()
    assert session.process(v, to_analog(v, fam)) == "pruned_rewriter"
    # The pattern learned from plus(x, 0) blocks every plus(_, 0).
    w = DtValue("I", "plus", (DtValue("I", "y"), DtValue("I", "0")))
    assert session.patterns.blocks(w)
    assert session.process(w, to_analog(w, fam)) == "blocked"


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
    raw = [to_analog(v, fam) for v in raw_values(fam, 3)]
    assert len(raw) == len(set(raw))
    assert key_set(raw) == key_set(oracle_terms(g, 3))


def test_default_grammar_encoding_is_exact():
    g = default_grammar(FunSort((INT,), INT), ("x",))
    fam = grammar_to_datatypes(g)
    raw = Counter(canonical_key(to_analog(v, fam))
                  for v in raw_values(fam, 3))
    oracle = Counter(canonical_key(t) for t in oracle_terms(g, 3))
    assert raw == oracle


ANALOG_FAMILIES = {
    "io": io_family,
    "nsi": nsi_family,
    "default": lambda: grammar_to_datatypes(
        default_grammar(FunSort((INT, INT), INT), ("x", "y"))),
}


@pytest.mark.parametrize("name", sorted(ANALOG_FAMILIES))
def test_pools_compose_the_analog_of_each_value(name):
    fam = ANALOG_FAMILIES[name]()
    pairs = list(Pools(fam, lambda v, t: True).upto(fam.start, 3))
    assert len(pairs) > 1000
    for v, t in pairs:
        assert t == to_analog(v, fam)


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


def test_candidates_stop_at_the_deadline():
    session = EnumSession(nsi_family())
    with pytest.raises(TimedOut) as exc:
        next(session.candidates(3, deadline=0.0))
    assert exc.value.stats is session.stats


def test_pruned_values_are_justified():
    fam = io_family()
    session = EnumSession(fam, points=EQ12_POINTS)
    list(session.candidates(3))
    assert session.stats.consistent()
    assert session.stats.pruned_rewriter > 0
    assert session.stats.pruned_signature > 0
    # Soundness audit: everything a stored pattern blocks is redundant —
    # its simplified analog or its signature already has a retained
    # representative of the same datatype.
    audited = 0
    for v in raw_values(fam, 3):
        if not session.patterns.blocks(v):
            continue
        analog = to_analog(v, fam)
        key = canonical_key(analog)
        sig = signature_of(analog, fam, EQ12_POINTS)
        assert key in session.keys[v.dtype] \
            or sig in session.sigs[v.dtype], session._show(v)
        audited += 1
    assert audited >= 200


def stored_patterns(session, monkeypatch) -> list:
    """Every pattern the session stores while it enumerates up to
    size 3, recorded as generalize_pattern returns them."""
    made = []
    generalize = enumsearch.generalize_pattern

    def recording(*args):
        made.append(generalize(*args))
        return made[-1]

    monkeypatch.setattr(enumsearch, "generalize_pattern", recording)
    list(session.candidates(3))
    return made


INDEX_SESSIONS = {
    "io-signature": lambda: EnumSession(io_family(), points=EQ12_POINTS),
    "nsi-rewriter": lambda: EnumSession(nsi_family()),
}


@pytest.mark.parametrize("name", sorted(INDEX_SESSIONS))
def test_pattern_index_agrees_with_a_linear_scan(name, monkeypatch):
    session = INDEX_SESSIONS[name]()
    fam = session.family
    patterns = stored_patterns(session, monkeypatch)
    assert patterns
    # No root constraint: blocks every I value whose first I child is x.
    rootless = BlockingPattern("I", frozenset([((("I", 1),), "x")]))
    index = PatternIndex(patterns + [rootless])
    blocked = total = 0
    for v in raw_values(fam, 3):
        want = any(pattern_matches(p, v) for p in patterns)
        assert session.patterns.blocks(v) == want, session._show(v)
        want = want or pattern_matches(rootless, v)
        assert index.blocks(v) == want, session._show(v)
        blocked += want
        total += 1
    assert 0 < blocked < total


def test_session_signature_pruning_on_the_paper_candidate():
    fam = io_family()
    session = EnumSession(fam, points=EQ12_POINTS)
    u = DtValue("I", "x")
    assert session.process(u, to_analog(u, fam)) == "retained"
    v = DtValue("I", "if", (
        DtValue("B", "leq", (DtValue("I", "y"), DtValue("I", "x"))),
        DtValue("I", "x"), DtValue("I", "y")))
    assert session.process(v, to_analog(v, fam)) == "pruned_signature"
    # The stored pattern now blocks the same shape with any else branch.
    w = DtValue("I", "if", (
        DtValue("B", "leq", (DtValue("I", "y"), DtValue("I", "x"))),
        DtValue("I", "x"), DtValue("I", "0")))
    assert session.patterns.blocks(w)


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
    with pytest.raises(Exhausted) as exc:
        solve_enum(p, nsi_family(), max_size=0)
    assert exc.value.stats.enumerated > 0


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
    assert stats.blocked_exact == 0
    # A grammar with 0 and + offers plus(_, 0); with the rewriter off,
    # no pattern is learned, so not even that is blocked.
    p = load_golden("io_points.sy")
    sol, stats = solve_enum(p, io_family(), sb_rewriter=False,
                            sb_examples=False)
    assert stats.blocked_exact == 0


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
