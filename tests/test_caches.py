"""The work kept between solves: compiled grammars, the rewriter's
normalize memo and the class kept on each problem. Each grammar gets
its own family, each problem is classified once, and every
process-wide cache is bounded. That no cache changes an answer is
``test_rewrite.test_memo_state_never_changes_an_answer``."""

import functools
import importlib
import pkgutil

import pytest

import synthlia
import synthlia.classify
from synthlia import enumsearch
from synthlia.driver import SolverConfig, Success, solve
from synthlia.enumsearch import grammar_to_datatypes
from synthlia.problem import Grammar, GrammarError
from synthlia.sygus import parse_problem
from synthlia.terms import BOOL, INT, App, IntConst, Var

from helpers import GOLDEN


def test_one_grammar_text_compiles_once():
    text = (GOLDEN / "max_sym.sy").read_text()
    g1 = parse_problem(text).functions[0].grammar
    g2 = parse_problem(text).functions[0].grammar
    assert g1 is not g2
    enumsearch._compile.cache_clear()
    family = grammar_to_datatypes(g1)
    assert grammar_to_datatypes(g2) is family
    info = enumsearch._compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _variants() -> list[Grammar]:
    """Grammars that differ from the first in one part of their content
    each: the start, the order of the nonterminals, the rules and the
    parameters (their order, then one more)."""
    x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)
    i, b = Var("I", INT), Var("B", BOOL)
    rules = (("I", x), ("I", y), ("I", IntConst(0)),
             ("I", App("ite", (b, i, i))), ("B", App("<=", (i, i))))
    base = Grammar("I", {"I": INT, "B": BOOL}, rules, (x, y))
    return [base,
            Grammar("B", base.nonterminals, rules, (x, y)),
            Grammar("I", {"B": BOOL, "I": INT}, rules, (x, y)),
            Grammar("I", base.nonterminals, rules[1:], (x, y)),
            Grammar("I", base.nonterminals, rules, (y, x)),
            Grammar("I", base.nonterminals, rules, (x, y, z))]


def test_each_grammar_gets_the_family_compiled_from_it():
    grammars = _variants()
    enumsearch._compile.cache_clear()
    for g in grammars:
        grammar_to_datatypes(g)
    for g in grammars:
        uncached = enumsearch._compile.__wrapped__(
            g.start, tuple(g.nonterminals.items()), g.rules, g.params)
        assert grammar_to_datatypes(g) == uncached
    info = enumsearch._compile.cache_info()
    assert (info.misses, info.hits) == (len(grammars), len(grammars))


def test_a_grammar_that_fails_validation_fails_on_every_call():
    bad = Grammar("S", {"I": INT}, (("I", IntConst(0)),))
    enumsearch._compile.cache_clear()
    for _ in range(3):
        with pytest.raises(GrammarError, match="start symbol"):
            grammar_to_datatypes(bad)
    assert enumsearch._compile.cache_info().currsize == 0


def test_a_problem_is_classified_once(monkeypatch):
    seen = []
    original = synthlia.classify._classify

    def counted(p):
        seen.append(id(p))
        return original(p)
    monkeypatch.setattr(synthlia.classify, "_classify", counted)
    # max_aux is normalized to single invocation and solved by cegqi;
    # io_points is enumerated over its examples.
    for name, mode in (("max_aux.sy", "auto"), ("io_points.sy", "auto"),
                       ("max_sym.sy", "enum")):
        p = parse_problem((GOLDEN / name).read_text())
        seen.clear()
        assert isinstance(solve(p, SolverConfig(mode=mode)), Success)
        assert id(p) in seen
        assert len(seen) == len(set(seen))


def _process_caches() -> dict[str, object]:
    """Every lru_cache that lives at module or class level in synthlia,
    by qualified name. ``__main__`` is skipped: importing it runs the
    command line."""
    found = {}
    for info in pkgutil.iter_modules(synthlia.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"synthlia.{info.name}")
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)
                             and v.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if isinstance(value, functools._lru_cache_wrapper) \
                        and value.__module__.startswith("synthlia."):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_process_caches_are_bounded_and_known():
    caches = _process_caches()
    assert set(caches) == {"synthlia.rewrite.normalize",
                           "synthlia.enumsearch._compile"}
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
