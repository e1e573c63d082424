"""Parser and printer for the problem input format.

The input is a small SyGuS-style s-expression language::

    (set-logic LIA)
    (synth-fun <name> ((<param> <Sort>)*) <Sort> [<grammar>])
    (declare-var <name> <Sort>)*
    (constraint <term>)*
    (check-synth)

where the optional grammar is a nonterminal declaration list followed
by a production list::

    ((<NT> <Sort>)+) ((<NT> <Sort> (<production>+))+)
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .problem import Grammar, SynthFun, SynthProblem, Solution
from .terms import (
    BOOL,
    INT,
    App,
    BoolConst,
    FunSort,
    IntConst,
    Term,
    UFApp,
    Var,
    mul,
    neg,
    print_term,
    sub,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


class _List(list):
    """A parenthesized list, with the position of its '('."""

    __slots__ = ("line", "col")


SExpr = Union[_Tok, _List]

# A parenthesis, an atom, a comment or a newline; blanks (space, tab,
# carriage return) fall between matches.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, start = 1, 0
    for m in _TOKEN.finditer(text):
        s = m[0]
        if s == "\n":
            line += 1
            start = m.end()
        elif s[0] != ";":
            toks.append(_Tok(s, line, m.start() - start + 1))
    return toks


# The deepest parenthesis nesting the reader accepts. The parser and
# the solver walk terms recursively, and under Python's default limit of
# 1000 frames the most costly nesting, an ite over a binary minus per
# level, solves up to about 160 levels deep (about 490 for a + chain).
# The bound keeps a margin below that for the caller's own frames.
MAX_DEPTH = 128


def _read_sexprs(text: str) -> list[SExpr]:
    toks = _tokenize(text)
    out: list[SExpr] = []
    stack: list[list] = []
    for t in toks:
        if t.text == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                                 t.line, t.col)
            opened = _List()
            opened.line, opened.col = t.line, t.col
            stack.append(opened)
        elif t.text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", t.line, t.col)
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(t)
    if stack:
        raise ParseError("unbalanced '('", toks[-1].line, toks[-1].col)
    return out


def _where(e: SExpr) -> tuple[int, int]:
    """The position of ``e``'s first atom, or of the '(' of the empty
    list that stands first in ``e``."""
    while isinstance(e, list) and e:
        e = e[0]
    return (e.line, e.col)


def _expect_atom(e: SExpr, what: str) -> str:
    if not isinstance(e, _Tok):
        raise ParseError(f"expected {what}", *_where(e))
    return e.text


def _check_name(name: str, line: int, col: int) -> str:
    if name in _RESERVED:
        raise ParseError(f"{name!r} is a reserved symbol", line, col)
    if "!" in name:
        raise ParseError(f"'!' is reserved in names: {name!r}", line, col)
    if name and (name[0].isdigit() or name[0] == "-"):
        raise ParseError(f"invalid name {name!r}", line, col)
    return name


def _parse_sort(e: SExpr) -> str:
    s = _expect_atom(e, "a sort")
    if s not in (INT, BOOL):
        raise ParseError(f"unknown sort {s!r}", e.line, e.col)
    return s


_NARY = {"+", "and", "or"}
_BINARY = {"<=", "<", ">=", ">", "=", "=>"}
# Operator and constant symbols: a name spelled as one would be read as
# that operator or constant in a term.
_RESERVED = _NARY | _BINARY | {"-", "*", "not", "ite", "true", "false"}
# ASCII digits only: str.isdigit also accepts superscripts and other
# scripts' digits, and int() reads some of those.
_NUMERAL = re.compile(r"-?[0-9]+")


class _TermParser:
    def __init__(self, scope: dict[str, Term],
                 functions: dict[str, FunSort]):
        self.scope = scope
        self.functions = functions

    def parse(self, e: SExpr) -> Term:
        if isinstance(e, _Tok):
            t = e.text
            if t == "true":
                return BoolConst(True)
            if t == "false":
                return BoolConst(False)
            if _NUMERAL.fullmatch(t):
                return IntConst(int(t))
            if t in self.scope:
                return self.scope[t]
            raise ParseError(f"unknown symbol {t!r}", e.line, e.col)
        if not e:
            raise ParseError("empty application", e.line, e.col)
        head = _expect_atom(e[0], "an operator")
        args = [self.parse(a) for a in e[1:]]
        return self.apply(head, args, e[0].line, e[0].col)

    def apply(self, head: str, args: list[Term],
              line: int, col: int) -> Term:
        n = len(args)
        if head == "-":
            if n == 1:
                if isinstance(args[0], IntConst):
                    return IntConst(-args[0].value)
                return neg(args[0])
            if n == 2:
                return sub(args[0], args[1])
            raise ParseError("- expects one or two arguments", line, col)
        if head == "*":
            if n != 2:
                raise ParseError("* expects two arguments", line, col)
            a, b = args
            if isinstance(a, IntConst):
                return mul(a.value, b)
            if isinstance(b, IntConst):
                return mul(b.value, a)
            raise ParseError("* needs a literal constant factor", line, col)
        if head in _NARY:
            if n < 1:
                raise ParseError(f"{head} expects arguments", line, col)
            return args[0] if n == 1 else App(head, tuple(args))
        if head in _BINARY:
            if n != 2:
                raise ParseError(f"{head} expects two arguments", line, col)
            return App(head, tuple(args))
        if head == "not":
            if n != 1:
                raise ParseError("not expects one argument", line, col)
            return App("not", tuple(args))
        if head == "ite":
            if n != 3:
                raise ParseError("ite expects three arguments", line, col)
            return App("ite", tuple(args))
        if head in self.functions:
            fsort = self.functions[head]
            if n != len(fsort.params):
                raise ParseError(
                    f"{head} expects {len(fsort.params)} arguments",
                    line, col)
            return UFApp(head, fsort, tuple(args))
        raise ParseError(f"unknown operator {head!r}", line, col)


def _parse_grammar(decls: SExpr, groups: SExpr,
                   params: tuple[Var, ...], where) -> Grammar:
    if not isinstance(decls, list) or not isinstance(groups, list):
        raise ParseError("malformed grammar", *where)
    nts: dict[str, str] = {}
    for d in decls:
        if not (isinstance(d, list) and len(d) == 2):
            raise ParseError("nonterminal declaration must be (NT Sort)",
                             *_where(d))
        name = _check_name(_expect_atom(d[0], "a nonterminal"),
                           *_where(d[0]))
        if name in nts:
            raise ParseError(f"duplicate nonterminal {name!r}", *_where(d[0]))
        nts[name] = _parse_sort(d[1])
    if not nts:
        raise ParseError("grammar declares no nonterminals", *where)
    scope: dict[str, Term] = {p.name: p for p in params}
    scope.update({n: Var(n, s) for n, s in nts.items()})
    tp = _TermParser(scope, {})
    rules: list[tuple[str, Term]] = []
    seen: set[str] = set()
    for g in groups:
        if not (isinstance(g, list) and len(g) == 3
                and isinstance(g[2], list)):
            raise ParseError("production group must be (NT Sort (rhs+))",
                             *_where(g))
        name = _expect_atom(g[0], "a nonterminal")
        if name not in nts:
            raise ParseError(f"undeclared nonterminal {name!r}",
                             *_where(g[0]))
        if _parse_sort(g[1]) != nts[name]:
            raise ParseError(f"sort mismatch for {name}", *_where(g[1]))
        seen.add(name)
        for rhs in g[2]:
            rules.append((name, tp.parse(rhs)))
    missing = set(nts) - seen
    if missing:
        raise ParseError(f"no productions for {sorted(missing)}", *where)
    return Grammar(start=next(iter(nts)), nonterminals=nts,
                   rules=tuple(rules), params=params)


def parse_problem(text: str) -> SynthProblem:
    forms = _read_sexprs(text)
    functions: list[SynthFun] = []
    fsorts: dict[str, FunSort] = {}
    universals: list[Var] = []
    constraints: list[Term] = []
    saw_logic = False
    saw_check = False
    for form in forms:
        if not (isinstance(form, list) and form
                and isinstance(form[0], _Tok)):
            raise ParseError("expected a top-level command", *_where(form))
        cmd = form[0].text
        where = (form[0].line, form[0].col)
        if saw_check:
            raise ParseError("commands after (check-synth)", *where)
        if cmd == "set-logic":
            if len(form) != 2 or _expect_atom(form[1], "a logic") != "LIA":
                raise ParseError("only (set-logic LIA) is supported", *where)
            saw_logic = True
        elif cmd == "synth-fun":
            if len(form) not in (4, 6):
                raise ParseError(
                    "synth-fun expects name, params, sort, and an "
                    "optional grammar", *where)
            name = _check_name(_expect_atom(form[1], "a name"),
                               *_where(form[1]))
            if name in fsorts:
                raise ParseError(f"duplicate function {name!r}", *where)
            if not isinstance(form[2], list):
                raise ParseError("expected a parameter list", *_where(form[2]))
            pnames: list[str] = []
            psorts: list[str] = []
            for pr in form[2]:
                if not (isinstance(pr, list) and len(pr) == 2):
                    raise ParseError("parameter must be (name Sort)",
                                     *_where(pr))
                pname = _check_name(
                    _expect_atom(pr[0], "a parameter name"), *_where(pr[0]))
                if pname in pnames:
                    raise ParseError(f"duplicate parameter {pname!r}",
                                     *_where(pr[0]))
                pnames.append(pname)
                psorts.append(_parse_sort(pr[1]))
            ret = _parse_sort(form[3])
            fsort = FunSort(tuple(psorts), ret)
            grammar = None
            if len(form) == 6:
                params = tuple(Var(n, s) for n, s in zip(pnames, psorts))
                grammar = _parse_grammar(form[4], form[5], params, where)
            functions.append(SynthFun(name, fsort, tuple(pnames), grammar))
            fsorts[name] = fsort
        elif cmd == "declare-var":
            if len(form) != 3:
                raise ParseError("declare-var expects a name and a sort",
                                 *where)
            name = _check_name(_expect_atom(form[1], "a name"),
                               *_where(form[1]))
            if any(u.name == name for u in universals):
                raise ParseError(f"duplicate variable {name!r}", *where)
            universals.append(Var(name, _parse_sort(form[2])))
        elif cmd == "constraint":
            if len(form) != 2:
                raise ParseError("constraint expects one term", *where)
            scope = {u.name: u for u in universals}
            constraints.append(_TermParser(scope, fsorts).parse(form[1]))
        elif cmd == "check-synth":
            saw_check = True
        else:
            raise ParseError(f"unknown command {cmd!r}", *where)
    if not saw_logic:
        raise ParseError("missing (set-logic LIA)", 1, 1)
    if not saw_check:
        raise ParseError("missing (check-synth)", 1, 1)
    if not functions:
        raise ParseError("no synth-fun declared", 1, 1)
    if not constraints:
        raise ParseError("no constraints", 1, 1)
    body = constraints[0] if len(constraints) == 1 \
        else App("and", tuple(constraints))
    p = SynthProblem(tuple(functions), tuple(universals), body)
    p.validate()
    return p


# ---------------------------------------------------------------------------
# Printing


def print_solution(s: Solution, problem: SynthProblem) -> str:
    lines = []
    for f in problem.functions:
        lam = s[f.name]
        params = " ".join(f"({v.name} {v.sort})" for v in lam.params)
        lines.append("(define-fun {} ({}) {} {})".format(
            f.name, params, f.fsort.ret, print_term(lam.body)))
    return "\n".join(lines)
