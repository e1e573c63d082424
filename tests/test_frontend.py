import time

import pytest

from synthlia.cli import main as cli_main
from synthlia.driver import GaveUp, SolverConfig, Success, solve, \
    verify_solution
from synthlia.rewrite import canonical_key
from synthlia.sygus import (
    ParseError,
    parse_problem,
    print_solution,
    print_term,
)
from synthlia.terms import (
    App,
    IntConst,
    Lambda,
    add,
    ge,
    gt,
    ite,
    ivar,
    le,
    not_,
    sub,
)

from helpers import GOLDEN, load_golden

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
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert fragment in str(exc.value)


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
    # whose size-6 level alone takes far longer than the timeout.
    p = parse_problem("""
        (set-logic LIA)
        (synth-fun f ((x Int) (y Int)) Int)
        (declare-var x Int)
        (declare-var y Int)
        (constraint (>= (f x y) (+ x 2)))
        (constraint (= (f x y) (f y x)))
        (check-synth)""")
    t0 = time.monotonic()
    out = solve(p, SolverConfig(timeout=2))
    assert time.monotonic() - t0 < 4.0
    assert isinstance(out, GaveUp)
    assert out.reason.startswith("timeout")
    assert out.stats["enumerated"] > 0


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


def test_cli_rejects_nonpositive_caps(capsys):
    rc = cli_main([str(GOLDEN / "between.sy"), "--max-size", "0"])
    capsys.readouterr()
    assert rc == 2
