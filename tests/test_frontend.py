import itertools
import re
import time
from types import SimpleNamespace

import pytest

import synthlia.cegqi
import synthlia.driver
from synthlia import enumsearch, qfsolver
from synthlia.cli import main as cli_main
from synthlia.driver import GaveUp, SolverConfig, Success, solve, \
    verify_solution
from synthlia.enumsearch import SolveStats
from synthlia.problem import GrammarError, apply_solution
from synthlia.qfsolver import ResourceLimit
from synthlia.rewrite import canonical_key
from synthlia.sygus import (
    MAX_DEPTH,
    ParseError,
    _tokenize,
    parse_problem,
    print_solution,
    print_term,
)
from synthlia.terms import (
    App,
    BoolConst,
    IntConst,
    Lambda,
    SortError,
    add,
    evaluate,
    ite,
    not_,
    sub,
)

from helpers import GOLDEN, ge, gt, ivar, le, load_golden

x, y = ivar("x"), ivar("y")


# ---------------------------------------------------------------------------
# Parsing


def test_parse_golden_shapes():
    p = load_golden("between.sy")
    assert [f.name for f in p.functions] == ["f"]
    assert p.functions[0].grammar is None
    assert {u.name for u in p.universals} == {"x", "y"}

    q = load_golden("max_sym.sy")
    g = q.functions[0].grammar
    assert g is not None
    assert g.start == "I"
    assert g.nonterminals == {"I": "Int", "B": "Bool"}
    assert g.generates(ite(le(x, y), y, x))


def test_parse_arithmetic_sugar():
    text = """
    (set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (constraint (>= (f x) (- x 3)))
    (constraint (<= (f x) (+ x (* 2 x) (- 5))))
    (check-synth)
    """
    p = parse_problem(text)
    c = p.constraint
    assert isinstance(c, App) and c.op == "and"


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("(set-logic LIA)\n(bogus-command)\n")
    assert exc.value.line == 2
    assert exc.value.col == 2


def test_token_positions_count_characters_per_line():
    # Tabs and carriage returns are blanks of one column, a comment runs
    # to the end of its line, a form feed is part of an atom and a
    # non-ASCII character is one column.
    text = ("(set-logic\tLIA)\r\n; a (comment)\r\n"
            "(declare-var é Int) ; more\n\x0cx\t(fée\r y);end")
    assert [(t.text, t.line, t.col) for t in _tokenize(text)] == [
        ("(", 1, 1), ("set-logic", 1, 2), ("LIA", 1, 12), (")", 1, 15),
        ("(", 3, 1), ("declare-var", 3, 2), ("é", 3, 14),
        ("Int", 3, 16), (")", 3, 19),
        ("\x0cx", 4, 1), ("(", 4, 4), ("fée", 4, 5), ("y", 4, 10),
        (")", 4, 11)]
    with pytest.raises(ParseError) as exc:
        parse_problem("(set-logic LIA)\r\n(synth-fun f ((x Int)) Int)\r\n"
                      "(declare-var x Int)\r\n"
                      "(constraint\t(= (f x) éé))\r\n(check-synth)")
    assert (exc.value.line, exc.value.col) == (4, 22)


# A problem with the constraint given, and one with the synth-fun's
# declaration given (its grammar too, if any).
_F = ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)"
      "\n(constraint {})\n(check-synth)")
_G = ("(set-logic LIA)\n(synth-fun {})\n(declare-var x Int)"
      "\n(constraint (= (f x) 0))\n(check-synth)")


@pytest.mark.parametrize("text,fragment", [
    ("(synth-fun f ((x Int)) Int)\n(constraint true)\n(check-synth)",
     "set-logic"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(constraint (= (f 0) 0))",
     "check-synth"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(check-synth)",
     "no constraints"),
    ("(set-logic LIA)\n(declare-var x Int)\n(constraint (= x 0))"
     "\n(check-synth)", "no synth-fun"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var y Real)"
     "\n(constraint (= (f 0) 0))\n(check-synth)", "sort"),
    ("(set-logic LIA)\n(synth-fun f! ((x Int)) Int)"
     "\n(constraint (= (f! 0) 0))\n(check-synth)", "reserved"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)"
     "\n(constraint (= (g 0) 0))\n(check-synth)", "unknown"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)"
     "\n(constraint (= (f 0) 0)\n(check-synth)", "unbalanced"),
    ("(set-logic LIA))", "unbalanced ')'"),
    (_F.format("(= (f x) (* x x))"), "* needs a literal constant factor"),
    (_F.format("(= (f x) (* 2 x x))"), "* expects two arguments"),
    (_F.format("(= (f x) (- 1 2 3))"), "- expects one or two arguments"),
    (_F.format("(<= (f x))"), "<= expects two arguments"),
    (_F.format("(= (f x) (ite true 1))"), "ite expects three arguments"),
    (_F.format("(not true false)"), "not expects one argument"),
    (_F.format("(and)"), "and expects arguments"),
    (_F.format("(= (f x x) 0)"), "f expects 1 arguments"),
    (_F.format("true") + "\n(declare-var y Int)",
     "commands after (check-synth)"),
    ("(set-logic LRA)\n(synth-fun f ((x Int)) Int)\n(constraint true)"
     "\n(check-synth)", "only (set-logic LIA)"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)"
     "\n(synth-fun f ((y Int)) Int)\n(constraint true)\n(check-synth)",
     "duplicate function"),
    (_F.format("true").replace("(declare-var x Int)",
                               "(declare-var x Int)\n(declare-var x Int)"),
     "duplicate variable"),
    (_G.format("f x Int"), "expected a parameter list"),
    (_G.format("f ((x Int)) Int ((I Int)) ((J Int (x)))"),
     "undeclared nonterminal"),
    (_G.format("f ((x Int)) Int ((I Int) (J Int)) ((I Int (x)))"),
     "no productions for"),
    (_G.format("f ((x Int)) Int () ()"), "grammar declares no nonterminals"),
    (_G.format("f ((x Int)) Int ((I Int)) ((I Bool (x)))"),
     "sort mismatch for"),
    (_G.format("f ((x Int)) Int I ((I Int (x)))"), "malformed grammar"),
    (_G.format("f ((x Int)) Int ((I)) ((I Int (x)))"),
     "nonterminal declaration must be (NT Sort)"),
    (_G.format("f ((x Int))"), "synth-fun expects name, params, sort"),
    (_G.format("f (x) Int"), "parameter must be (name Sort)"),
    (_F.format("true").replace("(declare-var x Int)", "(declare-var x)"),
     "declare-var expects a name and a sort"),
    (_F.format("true true"), "constraint expects one term"),
    (_F.format("true").replace("(declare-var x Int)",
                               "(declare-var (x) Int)"), "expected a name"),
    (_F.format("true").replace("(declare-var x Int)",
                               "(declare-var 1x Int)"), "invalid name"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert fragment in str(exc.value)


# Well-formed problems whose grammar or constraint fails validation:
# each grammar's rules are given after the function's declaration.
@pytest.mark.parametrize("text,error,fragment", [
    (_G.format("f ((x Int)) Int ((I Int) (J Int)) "
               "((I Int (x J)) (J Int ((+ J 1))))"),
     GrammarError, "unproductive nonterminals"),
    (_G.format("f ((x Int)) Int ((I Int) (J Int)) "
               "((I Int (x)) (J Int (x)))"),
     GrammarError, "unreachable nonterminals"),
    (_G.format("f ((I Int)) Int ((I Int)) ((I Int (I 0)))"),
     GrammarError, "parameter names clash"),
    (_G.format("f ((x Int)) Int ((I Int) (B Bool)) "
               "((I Int (x (+ B 1) (ite B x 0))) (B Bool ((<= x 0))))"),
     GrammarError, "ill-sorted rule"),
    (_G.format("f ((x Int)) Int ((I Int)) ((I Int (x (<= x 0))))"),
     GrammarError, "rule for I has wrong sort"),
    (_G.format("f ((x Int)) Int ((B Bool)) ((B Bool ((<= x 0))))"),
     GrammarError, "grammar start sort"),
    (_F.format("(+ x 1)"), SortError, "constraint must be boolean"),
])
def test_validation_errors(text, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        parse_problem(text)


@pytest.mark.parametrize("text", [
    _F.format("(= (f x) (- 1 2 3))"),
    _G.format("f ((x Int)) Int ((I Int)) ((I Int (x (<= x 0))))"),
    _F.format("(+ x 1)"),
])
def test_each_input_error_kind_exits_2(text, tmp_path, capsys):
    # A parse error, a grammar error and a sort error.
    path = tmp_path / "bad.sy"
    path.write_text(text)
    assert cli_main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_CYCLE = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int ((I Int) (J Int) (B Bool))
  ((I Int (J x y (ite B I I))) (J Int (I 0)) (B Bool (({})))))
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(constraint (>= (f x y) y))
(constraint (or (= (f x y) x) (= (f x y) y)))
(check-synth)
"""


# CEGQI's answer compares with <=, so under (>= I J) the portfolio
# reconstructs it.
@pytest.mark.parametrize("mode,cond", [("enum", "<= J I"),
                                       ("auto", ">= I J")])
def test_a_unit_production_cycle_solves(mode, cond, tmp_path, capsys):
    # I -> J and J -> I: compiling the grammar, in the search or in
    # reconstruction, used to end in a RecursionError.
    path = tmp_path / "cycle.sy"
    path.write_text(_CYCLE.format(cond))
    assert cli_main(["--mode", mode, str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(define-fun f ((x Int) (y Int)) Int (ite ")


def test_a_right_literal_factor_and_false_parse():
    assert parse_problem(_F.format("(= (f x) (* x 2))")) == \
        parse_problem(_F.format("(= (f x) (* 2 x))"))
    p = parse_problem(_F.format("(not false)"))
    assert p.constraint == not_(BoolConst(False))


_DEEP = ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)\n"
         "(constraint (>= (f x) {}))\n(check-synth)\n")


def _nesting(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def _nested_problem(link: str, depth: int) -> str:
    """A problem nested ``depth`` parentheses deep: ``link`` (a term
    with one hole) repeated, and (+ 1 ...) links for the rest."""
    body = "x"
    while _nesting(_DEEP.format(link.format(body))) <= depth:
        body = link.format(body)
    while _nesting(_DEEP.format(body)) < depth:
        body = f"(+ 1 {body})"
    return _DEEP.format(body)


# The ite over a binary minus is the costliest nesting for the solver's
# recursive term walks.
@pytest.mark.parametrize("link", ["(+ 1 {})", "(ite (<= x 0) (- 1 {}) 1)"])
def test_input_nested_to_the_bound_parses_and_solves(link, tmp_path,
                                                     capsys):
    path = tmp_path / "deep.sy"
    path.write_text(_nested_problem(link, MAX_DEPTH))
    assert _nesting(path.read_text()) == MAX_DEPTH
    assert cli_main([str(path), "--verify"]) == 0
    assert capsys.readouterr().out.startswith("(define-fun f ")


def test_input_nested_past_the_bound_is_an_input_error(tmp_path, capsys):
    text = _nested_problem("(+ 1 {})", MAX_DEPTH + 1)
    with pytest.raises(ParseError, match="nesting deeper") as exc:
        parse_problem(text)
    # At the ( that goes past the bound: the constraint and >= hold the
    # first two levels, and each (+ 1 link is five columns wide.
    assert (exc.value.line, exc.value.col) == (
        4, len("(constraint (>= (f x) ") + 1 + 5 * (MAX_DEPTH - 2))
    path = tmp_path / "deep.sy"
    path.write_text(text)
    assert cli_main([str(path)]) == 2
    assert "nesting deeper" in capsys.readouterr().err


@pytest.mark.parametrize("numeral,ok", [
    ("--5", False), ("\u00b2", False), ("\u0663", False), ("-5", True)])
def test_only_ascii_numerals_parse(numeral, ok):
    text = ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            f"(declare-var x Int)\n(constraint (= (f x) {numeral}))\n"
            "(check-synth)")
    if ok:
        c = parse_problem(text).constraint
        assert c.args[1] == IntConst(int(numeral))
        return
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (4, 22)


@pytest.mark.parametrize("text,where", [
    ("(set-logic LIA)\n(synth-fun + ((x Int)) Int)\n(declare-var x Int)"
     "\n(constraint (>= (+ x) x))\n(check-synth)", (2, 12)),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var and Int)"
     "\n(constraint (>= (f and) 0))\n(check-synth)", (3, 14)),
    ("(set-logic LIA)\n(synth-fun f ((ite Int)) Int)\n(declare-var x Int)"
     "\n(constraint (>= (f x) x))\n(check-synth)", (2, 16)),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((true Int))"
     " ((true Int (x (+ true 1)))))\n(declare-var x Int)"
     "\n(constraint (>= (f x) x))\n(check-synth)", (2, 30)),
], ids=["synth-fun", "declare-var", "parameter", "nonterminal"])
def test_reserved_symbols_are_not_names(text, where, tmp_path, capsys):
    # Read as a name, (+ x) would be the sum x, and the constraint
    # would silently stop mentioning the function.
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert "reserved" in str(exc.value)
    assert (exc.value.line, exc.value.col) == where
    path = tmp_path / "reserved.sy"
    path.write_text(text)
    assert cli_main([str(path)]) == 2
    assert "reserved" in capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    ("(set-logic LIA)\n(synth-fun f ((x Int) (x Int)) Int)\n"
     "(declare-var y Int)\n(constraint (>= (f y y) y))\n(check-synth)",
     (2, 24)),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((I Int) (I Int))"
     " ((I Int (x 0))))\n(declare-var x Int)"
     "\n(constraint (>= (f x) x))\n(check-synth)", (2, 38)),
], ids=["parameter", "nonterminal"])
def test_duplicate_names_are_rejected(text, where, tmp_path, capsys):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert "duplicate" in str(exc.value)
    assert (exc.value.line, exc.value.col) == where
    path = tmp_path / "duplicate.sy"
    path.write_text(text)
    assert cli_main([str(path)]) == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n(declare-var x Int)"
     "\n(constraint ())\n(check-synth)", (4, 13)),
    ("(set-logic LIA)\n  ()\n(check-synth)", (2, 3)),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((I Int)) (()))"
     "\n(declare-var x Int)\n(constraint (>= (f x) x))\n(check-synth)",
     (2, 39)),
], ids=["application", "command", "production-group"])
def test_an_empty_list_is_reported_at_its_parenthesis(text, where, tmp_path,
                                                      capsys):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == where
    path = tmp_path / "empty.sy"
    path.write_text(text)
    assert cli_main([str(path)]) == 2
    assert f"error: {where[0]}:{where[1]}: " in capsys.readouterr().err


def test_parser_rejects_undeclared_nonterminal():
    text = """
    (set-logic LIA)
    (synth-fun f ((x Int)) Int
      ((I Int))
      ((I Int (0 x (+ I J)))))
    (declare-var x Int)
    (constraint (>= (f x) x))
    (check-synth)
    """
    with pytest.raises(ParseError):
        parse_problem(text)


# ---------------------------------------------------------------------------
# Printing


def test_print_term_forms():
    assert print_term(IntConst(-5)) == "(- 5)"
    assert print_term(add(x, IntConst(1))) == "(+ x 1)"
    assert print_term(not_(gt(x, y))) == "(not (> x y))"
    assert print_term(sub(x, y)) == "(+ x (* (- 1) y))"


def test_print_solution_shape():
    p = load_golden("between.sy")
    s = {"f": Lambda((x, y), ite(ge(x, y), x, y))}
    out = print_solution(s, p)
    assert out == ("(define-fun f ((x Int) (y Int)) Int "
                   "(ite (>= x y) x y))")


def test_print_parse_roundtrip_preserves_keys():
    bodies = [
        ite(le(x, add(y, IntConst(1))), add(x, IntConst(1)),
            add(y, IntConst(1))),
        sub(add(x, x), y),
        ite(not_(gt(x, y)), IntConst(0), IntConst(-3)),
    ]
    p = load_golden("between.sy")
    for body in bodies:
        printed = print_solution({"f": Lambda((x, y), body)}, p)
        text = """
        (set-logic LIA)
        (synth-fun g ((x Int) (y Int)) Int)
        (declare-var x Int)
        (declare-var y Int)
        (constraint (= (g x y) {}))
        (check-synth)
        """.format(printed.split(" Int ", 1)[1][:-1])
        q = parse_problem(text)
        reparsed = q.constraint.args[1]
        assert canonical_key(reparsed) == canonical_key(body)


# ---------------------------------------------------------------------------
# Dispatch


@pytest.mark.parametrize("name,strategy", [
    ("between.sy", "cegqi"),               # single-invocation, no grammar
    ("successor_points.sy", "cegqi"),      # IO examples, no grammar
    ("max_aux.sy", "cegqi"),               # normalized, then no grammar
    ("between_grammar.sy", "cegqi+reconstruction"),  # portfolio
    ("io_points.sy", "enum"),              # IO examples with grammar
    ("max_sym.sy", "enum"),                # not single-invocation
])
def test_auto_mode_follows_the_dispatch_table(name, strategy):
    out = solve(load_golden(name), SolverConfig(verify=True))
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == strategy
    assert verify_solution(load_golden(name), out.solution)


def test_forced_enum_mode_uses_default_grammar():
    out = solve(load_golden("between.sy"), SolverConfig(mode="enum",
                                                        verify=True))
    assert isinstance(out, Success)
    assert out.strategy == "enum"


def test_gave_up_reports_reason_and_stats():
    out = solve(load_golden("max_sym.sy"),
                SolverConfig(mode="enum", max_size=1))
    assert isinstance(out, GaveUp)
    assert out.reason.startswith("exhausted")
    assert out.stats["enumerated"] > 0
    assert "wall_time" in out.stats


def test_timeout_is_honoured_inside_a_pool_level():
    # Without a grammar this is enumerated over the default grammar,
    # whose size-6 level alone takes far longer than the timeout: at
    # offset 3 no candidate is found in 30 s. Offset 2 is solved in
    # under 2 s when this test runs alone.
    p = parse_problem("""
        (set-logic LIA)
        (synth-fun f ((x Int) (y Int)) Int)
        (declare-var x Int)
        (declare-var y Int)
        (constraint (>= (f x y) (+ x 3)))
        (constraint (= (f x y) (f y x)))
        (check-synth)""")
    t0 = time.monotonic()
    out = solve(p, SolverConfig(timeout=2))
    assert time.monotonic() - t0 < 4.0
    assert isinstance(out, GaveUp)
    assert out.reason.startswith("timeout")
    assert out.stats["enumerated"] > 0


def test_timeout_is_honoured_by_the_cegqi_loop():
    out = solve(load_golden("between.sy"), SolverConfig(timeout=1e-9))
    assert isinstance(out, GaveUp)
    assert out.reason == "timeout(1e-09s)"


def test_a_deep_bool_equality_chain_returns_by_its_deadline():
    # Each Bool = occurs twice in the solver's skeleton; walked as a
    # tree, depth 20 ran 30 s past a 2 s timeout.
    inner = "(>= x 0)"
    for _ in range(60):
        inner = f"(= (<= x 5) {inner})"
    p = parse_problem(f"""
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (declare-var x Int)
        (constraint (=> {inner} (>= (f x) x)))
        (check-synth)""")
    t0 = time.monotonic()
    out = solve(p, SolverConfig(timeout=1))
    assert time.monotonic() - t0 < 1.5
    assert isinstance(out, Success) or out.reason == "timeout(1s)"


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="cegqii"):
        solve(load_golden("between.sy"), SolverConfig(mode="cegqii"))


@pytest.mark.parametrize("timeout", [0, -1, float("nan")])
def test_a_nonpositive_timeout_is_rejected(timeout):
    # The CLI rejects these too. nan used to mean no limit, and 0 or -1
    # a give-up before the first step.
    with pytest.raises(ValueError, match="timeout"):
        solve(load_golden("between.sy"), SolverConfig(timeout=timeout))
    # Caps of zero stay allowed: they stop a route at once.
    out = solve(load_golden("between.sy"), SolverConfig(max_iters=0))
    assert out.reason == "cegqi-failed(iteration-cap)"


def test_cegqi_give_up_keeps_the_loop_reason():
    # between.sy takes two instances; a cap of one stops the loop.
    out = solve(load_golden("between.sy"),
                SolverConfig(mode="cegqi", max_iters=1))
    assert isinstance(out, GaveUp)
    assert out.reason == "cegqi-failed(iteration-cap)"


MAX5 = """
    (set-logic LIA)
    (synth-fun f ((a Int) (b Int) (c Int) (d Int) (e Int)) Int)
    (declare-var a Int)
    (declare-var b Int)
    (declare-var c Int)
    (declare-var d Int)
    (declare-var e Int)
    (constraint (>= (f a b c d e) a))
    (constraint (>= (f a b c d e) b))
    (constraint (>= (f a b c d e) c))
    (constraint (>= (f a b c d e) d))
    (constraint (>= (f a b c d e) e))
    (constraint (or (= (f a b c d e) a) (= (f a b c d e) b)
                    (= (f a b c d e) c) (= (f a b c d e) d)
                    (= (f a b c d e) e)))
    (check-synth)"""

TABLE6 = """
    (set-logic LIA)
    (synth-fun f ((x Int) (y Int)) Int)
    (declare-var x Int)
    (declare-var y Int)
    (constraint (=> (and (= x (- 6)) (= y 3)) (= (f x y) 6)))
    (constraint (=> (and (= x (- 5)) (= y (- 2))) (= (f x y) (- 3))))
    (constraint (=> (and (= x (- 2)) (= y 2)) (= (f x y) 2)))
    (constraint (=> (and (= x 2) (= y (- 7))) (= (f x y) (- 2))))
    (constraint (=> (and (= x 5) (= y (- 4))) (= (f x y) 5)))
    (constraint (=> (and (= x 8) (= y 4)) (= (f x y) (- 4))))
    (check-synth)"""


@pytest.mark.parametrize("text,values", [
    (MAX5, range(-2, 3)),      # max over 5 arguments
    (TABLE6, range(-9, 10)),   # 6 example points over 2 arguments
], ids=["max5", "table6"])
def test_cegqi_solves_past_the_old_failure_boundary(text, values):
    # Splitting every disequality up front, one check_sat call of the
    # CEGQI loop ran out of its step budget on both (resource-limit).
    p = parse_problem(text)
    out = solve(p, SolverConfig())
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == "cegqi"
    spec = apply_solution(p, out.solution)
    names = [u.name for u in p.universals]
    for point in itertools.product(values, repeat=len(names)):
        assert evaluate(spec, dict(zip(names, point))), point


@pytest.mark.parametrize("text", [MAX5, TABLE6], ids=["max5", "table6"])
def test_verify_accepts_cegqi_answers_past_the_old_failure_boundary(text):
    # With Int ite compiled to fresh variables, the validity check of
    # the max-over-5 answer ran out of its step budget: resource-limit.
    out = solve(parse_problem(text), SolverConfig(verify=True))
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == "cegqi"


MAX6 = """
    (set-logic LIA)
    (synth-fun f ((a Int) (b Int) (c Int) (d Int) (e Int) (g Int)) Int)
    (declare-var a Int)
    (declare-var b Int)
    (declare-var c Int)
    (declare-var d Int)
    (declare-var e Int)
    (declare-var g Int)
    (constraint (>= (f a b c d e g) a))
    (constraint (>= (f a b c d e g) b))
    (constraint (>= (f a b c d e g) c))
    (constraint (>= (f a b c d e g) d))
    (constraint (>= (f a b c d e g) e))
    (constraint (>= (f a b c d e g) g))
    (constraint (or (= (f a b c d e g) a) (= (f a b c d e g) b)
                    (= (f a b c d e g) c) (= (f a b c d e g) d)
                    (= (f a b c d e g) e) (= (f a b c d e g) g)))
    (check-synth)"""


def test_learned_conflicts_move_the_failure_boundary_to_max_over_6():
    # Each check_sat call of the CEGQI loop searched from scratch, and
    # one of them ran out of its step budget: resource-limit.
    p = parse_problem(MAX6)
    out = solve(p, SolverConfig())
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == "cegqi"
    spec = apply_solution(p, out.solution)
    names = [u.name for u in p.universals]
    for point in itertools.product(range(-2, 3), repeat=len(names)):
        assert evaluate(spec, dict(zip(names, point))), point
    # The one validity check of that answer still runs out.
    out = solve(p, SolverConfig(verify=True))
    assert isinstance(out, GaveUp)
    assert out.reason == "cegqi-failed(verification-resource-limit)"


MAX7 = """
    (set-logic LIA)
    (synth-fun f ((a Int) (b Int) (c Int) (d Int) (e Int) (g Int) (h Int))
               Int)
    (declare-var a Int)
    (declare-var b Int)
    (declare-var c Int)
    (declare-var d Int)
    (declare-var e Int)
    (declare-var g Int)
    (declare-var h Int)
    (constraint (>= (f a b c d e g h) a))
    (constraint (>= (f a b c d e g h) b))
    (constraint (>= (f a b c d e g h) c))
    (constraint (>= (f a b c d e g h) d))
    (constraint (>= (f a b c d e g h) e))
    (constraint (>= (f a b c d e g h) g))
    (constraint (>= (f a b c d e g h) h))
    (constraint (or (= (f a b c d e g h) a) (= (f a b c d e g h) b)
                    (= (f a b c d e g h) c) (= (f a b c d e g h) d)
                    (= (f a b c d e g h) e) (= (f a b c d e g h) g)
                    (= (f a b c d e g h) h)))
    (check-synth)"""


def _fake_clock(monkeypatch):
    """One clock for the driver, the searches and the solver that
    advances by ``step`` seconds (0 at first) at every read."""
    now = SimpleNamespace(value=0.0, step=0.0)

    def monotonic():
        now.value += now.step
        return now.value

    for module in (synthlia.driver, enumsearch, qfsolver):
        monkeypatch.setattr(module, "time", SimpleNamespace(
            monotonic=monotonic))
    return now


def test_a_solver_call_stops_at_the_deadline(monkeypatch):
    # MAX7's loop makes a few iterations before one of its solver calls
    # runs out of steps (resource-limit); at one second per clock read
    # only a call that reads the clock itself sees 60 s pass.
    _fake_clock(monkeypatch).step = 1.0
    out = solve(parse_problem(MAX7), SolverConfig(timeout=60))
    assert isinstance(out, GaveUp)
    assert out.reason == "timeout(60s)"
    assert out.stats["cegqi_iterations"] < 60


def test_a_verification_stops_at_the_deadline(monkeypatch):
    # The clock stands still until verification starts, then advances
    # one second per read: the loop finds its answer, and only the
    # validity check, which otherwise runs out of steps, sees 60 s pass.
    now = _fake_clock(monkeypatch)
    real = synthlia.driver.verify_solution

    def ticking(*args):
        now.step = 1.0
        return real(*args)

    monkeypatch.setattr(synthlia.driver, "verify_solution", ticking)
    out = solve(parse_problem(MAX6), SolverConfig(verify=True, timeout=60))
    assert isinstance(out, GaveUp)
    assert out.reason == "timeout(60s)"


def test_reconstruction_gets_a_fifth_of_the_timeout(monkeypatch):
    # The clock advances only inside reconstruction, by 1% of the
    # timeout per read: reconstruction keys terms until its 20% slice
    # has passed, and enumeration then solves well within the rest.
    now = _fake_clock(monkeypatch)
    real = synthlia.driver.reconstruct

    def ticking(*args, **kwargs):
        now.step = 0.01
        try:
            return real(*args, **kwargs)
        finally:
            now.step = 0.0

    monkeypatch.setattr(synthlia.driver, "reconstruct", ticking)
    out = solve(load_golden("between_grammar.sy"), SolverConfig(timeout=1))
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == "enum"
    assert 0.2 < now.value < 1
    # Reconstruction's counts stay in the solve's one record.
    assert out.stats["recon_keyed"] > 0
    assert out.stats["enumerated"] > 0


def _out_of_budget(f, deadline=None):
    raise ResourceLimit("propositional search budget exceeded")


def test_a_verification_that_runs_out_gives_up_the_route(monkeypatch):
    monkeypatch.setattr(synthlia.driver, "check_valid", _out_of_budget)
    out = solve(load_golden("between.sy"), SolverConfig(verify=True))
    assert isinstance(out, GaveUp)
    assert out.reason == "cegqi-failed(verification-resource-limit)"
    out = solve(load_golden("max_sym.sy"), SolverConfig(verify=True))
    assert isinstance(out, GaveUp)
    assert out.reason == "verification-resource-limit"


def test_portfolio_falls_back_when_verification_runs_out(monkeypatch):
    real = synthlia.driver.check_valid
    calls = []

    def first_runs_out(f, deadline=None):
        calls.append(f)
        return _out_of_budget(f) if len(calls) == 1 else real(f, deadline)

    monkeypatch.setattr(synthlia.driver, "check_valid", first_runs_out)
    out = solve(load_golden("between_grammar.sy"), SolverConfig(verify=True))
    assert isinstance(out, Success), getattr(out, "reason", None)
    assert out.strategy == "enum"
    assert len(calls) == 2


def test_verify_solution_rejects_wrong_and_ungenerable():
    p = load_golden("between.sy")
    assert not verify_solution(p, {"f": Lambda((x, y), x)})
    q = load_golden("between_grammar.sy")
    good_but_ungenerable = {"f": Lambda(
        (x, y), ite(le(x, add(y, IntConst(1))), add(x, IntConst(1)),
                    add(y, IntConst(1))))}
    assert not verify_solution(q, good_but_ungenerable)


# ---------------------------------------------------------------------------
# CLI


def test_cli_success_exit_code(capsys):
    rc = cli_main([str(GOLDEN / "between.sy"), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("(define-fun f ((x Int) (y Int)) Int")


def test_cli_stats_on_stderr(capsys):
    rc = cli_main([str(GOLDEN / "max_sym.sy"), "--stats"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "strategy=enum" in captured.err
    assert "enumerated=" in captured.err
    assert "wall_time=" in captured.err


def test_cli_stats_count_reconstruction_s_work(capsys):
    # The portfolio keys fewer terms than its budget-level scan looks
    # at: the scan keys only the candidates whose values match.
    rc = cli_main([str(GOLDEN / "between_grammar.sy"), "--stats"])
    stats = dict(line.split("=", 1)
                 for line in capsys.readouterr().err.splitlines())
    assert rc == 0
    assert stats["strategy"] == "cegqi+reconstruction"
    assert 0 < int(stats["recon_keyed"]) < int(stats["recon_scanned"])
    for name in ("between.sy", "max_sym.sy"):  # cegqi and enum routes
        out = solve(load_golden(name))
        assert out.stats["recon_keyed"] == out.stats["recon_scanned"] == 0


def test_cli_stats_count_the_cegqi_loop_s_learned_conflicts(tmp_path,
                                                            capsys):
    path = tmp_path / "max5.sy"
    path.write_text(MAX5)
    rc = cli_main([str(path), "--stats"])
    stats = dict(line.split("=", 1)
                 for line in capsys.readouterr().err.splitlines())
    assert rc == 0
    assert stats["strategy"] == "cegqi"
    assert int(stats["cegqi_conflicts"]) > 0
    assert int(stats["cegqi_pruned"]) > 0
    out = solve(load_golden("max_sym.sy"))
    assert out.strategy == "enum"
    assert out.stats["cegqi_conflicts"] == out.stats["cegqi_pruned"] == 0


def test_stats_keep_the_conflicts_of_a_loop_that_runs_out(monkeypatch):
    # MAX5's loop makes 10 solver calls; the 9th runs out here.
    real = synthlia.cegqi.check_sat
    calls = []

    def ninth_runs_out(f, conflicts=None, deadline=None):
        calls.append(f)
        if len(calls) == 9:
            raise ResourceLimit("propositional search budget exceeded")
        return real(f, conflicts, deadline)

    monkeypatch.setattr(synthlia.cegqi, "check_sat", ninth_runs_out)
    out = solve(parse_problem(MAX5))
    assert isinstance(out, GaveUp)
    assert out.reason == "cegqi-failed(resource-limit)"
    assert out.stats["cegqi_conflicts"] > 0
    assert out.stats["cegqi_pruned"] > 0


def _second_check_runs_out(monkeypatch):
    # max_sym.sy's enumeration makes several solver calls; the second
    # runs out of its budget.
    real = enumsearch.check_sat
    calls = []

    def second_runs_out(f, deadline=None):
        calls.append(f)
        if len(calls) == 2:
            raise ResourceLimit("propositional search budget exceeded")
        return real(f, deadline=deadline)

    monkeypatch.setattr(enumsearch, "check_sat", second_runs_out)


def test_an_enumeration_that_runs_out_keeps_its_counts(monkeypatch):
    _second_check_runs_out(monkeypatch)
    out = solve(load_golden("max_sym.sy"))
    assert isinstance(out, GaveUp)
    assert out.reason == "resource-limit"
    assert out.stats["enumerated"] > 0
    assert out.stats["counterexample_points"] == 1


def test_a_cegqi_loop_stopped_by_the_deadline_keeps_its_iterations(
        monkeypatch):
    # The loop checks the deadline once per iteration: the first two
    # checks pass, the third stops MAX5's loop, which needs more.
    checks = itertools.count()
    monkeypatch.setattr(enumsearch, "time", SimpleNamespace(
        monotonic=lambda: 0.0 if next(checks) < 2 else float("inf")))
    out = solve(parse_problem(MAX5), SolverConfig(timeout=60))
    assert isinstance(out, GaveUp)
    assert out.reason == "timeout(60s)"
    assert out.stats["cegqi_iterations"] == 2
    assert out.stats["cegqi_conflicts"] > 0


@pytest.mark.parametrize("name,cfg,ends", [
    ("between.sy", SolverConfig(), "cegqi"),
    ("between_grammar.sy", SolverConfig(), "cegqi+reconstruction"),
    ("max_sym.sy", SolverConfig(), "enum"),
    ("max_sym.sy", SolverConfig(mode="enum", max_size=1),
     "exhausted(size=1)"),
    ("between.sy", SolverConfig(timeout=1e-9), "timeout(1e-09s)"),
    ("max_sym.sy", SolverConfig(timeout=1e-9), "timeout(1e-09s)"),
    ("max_sym.sy", SolverConfig(), "resource-limit"),
])
def test_every_exit_reports_the_same_counts(name, cfg, ends, monkeypatch):
    if ends == "resource-limit":
        _second_check_runs_out(monkeypatch)
    out = solve(load_golden(name), cfg)
    assert (out.strategy if isinstance(out, Success) else out.reason) == ends
    assert list(out.stats) == list(vars(SolveStats())) + ["wall_time"]


def test_cli_trace_on_stderr(capsys):
    rc = cli_main([str(GOLDEN / "max_sym.sy"), "--trace"])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 0
    assert any(s.startswith("trace: route enum") for s in lines)
    assert any(s.startswith("trace: pruned-rewriter ") for s in lines)
    # Candidates are printed as terms, in SyGuS syntax.
    assert "trace: pruned-rewriter (<= x x) -> true" in lines


def test_cli_gave_up_exit_code(capsys):
    rc = cli_main([str(GOLDEN / "max_sym.sy"),
                   "--mode", "enum", "--max-size", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("(fail ")


def test_cli_input_errors(tmp_path, capsys):
    rc = cli_main([str(tmp_path / "missing.sy")])
    assert rc == 2
    bad = tmp_path / "bad.sy"
    bad.write_text("(set-logic LIA)\n(oops)\n")
    assert cli_main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag,value", [("--max-size", "0"),
                                        ("--timeout", "0"),
                                        ("--timeout", "-1"),
                                        ("--timeout", "nan")])
def test_cli_rejects_nonpositive_caps(capsys, flag, value):
    rc = cli_main([str(GOLDEN / "between.sy"), flag, value])
    capsys.readouterr()
    assert rc == 2
