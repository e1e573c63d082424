"""Independent checker for printed solutions.

It shares no code with synthlia: it has its own s-expression reader,
its own evaluator for the problem's constraints and the printed
``define-fun``, and its own grammar-derivation check. A solution is
accepted when

* the spec holds at every sample point the generator supplied
  (argument ties and offset boundaries included),
* the body is derivable from the grammar, when the problem has one, and
* the body agrees with the generator's reference function wherever the
  spec fixes the function (every sample point, or only the example
  points of a table).

Run ``python3 perfbench/check.py`` for the self-test.
"""

from __future__ import annotations

import sys


class CheckError(Exception):
    """A problem or solution text the checker cannot read."""


def read_sexprs(text: str) -> list:
    """Nested lists of atom strings, one entry per top-level form."""
    toks: list[str] = []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        toks.extend(line.replace("(", " ( ").replace(")", " ) ").split())
    stack: list[list] = [[]]
    for tok in toks:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise CheckError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise CheckError("unbalanced '('")
    return stack[0]


def _literal(e):
    """Integer value of a numeral or a negated numeral, else None."""
    if isinstance(e, str):
        if e.lstrip("-").isdigit():
            return int(e)
        return None
    if len(e) == 2 and e[0] == "-" and isinstance(e[1], str) \
            and e[1].isdigit():
        return -int(e[1])
    return None


def count_nodes(e) -> int:
    """Applications plus leaves; a negated numeral is one leaf."""
    if isinstance(e, str) or _literal(e) is not None:
        return 1
    return 1 + sum(count_nodes(a) for a in e[1:])


def evaluate(e, env: dict, funs: dict):
    """Value of expression ``e``; ``funs`` maps a name to (params, body)."""
    lit = _literal(e)
    if lit is not None:
        return lit
    if isinstance(e, str):
        if e == "true":
            return True
        if e == "false":
            return False
        if e not in env:
            raise CheckError(f"unbound symbol {e!r}")
        return env[e]
    head, args = e[0], e[1:]
    if head == "ite":
        return evaluate(args[1] if evaluate(args[0], env, funs) else args[2],
                        env, funs)
    vals = [evaluate(a, env, funs) for a in args]
    if head in funs:
        params, body = funs[head]
        if len(params) != len(vals):
            raise CheckError(f"{head} applied to {len(vals)} arguments")
        return evaluate(body, dict(zip(params, vals)), funs)
    if head == "+":
        return sum(vals)
    if head == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:])
    if head == "*":
        out = 1
        for v in vals:
            out *= v
        return out
    if head == "and":
        return all(vals)
    if head == "or":
        return any(vals)
    if head == "not":
        return not vals[0]
    if head == "=>":
        return (not vals[0]) or vals[1]
    if head == "=":
        return vals[0] == vals[1]
    if head == "<=":
        return vals[0] <= vals[1]
    if head == "<":
        return vals[0] < vals[1]
    if head == ">=":
        return vals[0] >= vals[1]
    if head == ">":
        return vals[0] > vals[1]
    raise CheckError(f"unknown operator {head!r}")


class Spec:
    """The parts of a problem text the checker needs."""

    def __init__(self, text: str):
        self.fname = None
        self.params: list[str] = []
        self.grammar = None  # (start, {nt: [rhs, ...]})
        self.constraints: list = []
        for form in read_sexprs(text):
            cmd = form[0]
            if cmd == "synth-fun":
                if self.fname is not None:
                    raise CheckError("the checker handles one synth-fun")
                self.fname = form[1]
                self.params = [p[0] for p in form[2]]
                if len(form) == 6:
                    order = [d[0] for d in form[4]]
                    rules = {g[0]: list(g[2]) for g in form[5]}
                    self.grammar = (order[0], rules)
            elif cmd == "constraint":
                self.constraints.append(form[1])
        if self.fname is None or not self.constraints:
            raise CheckError("problem has no synth-fun or no constraint")

    def holds(self, body, point: dict) -> bool:
        funs = {self.fname: (self.params, body)}
        return all(evaluate(c, point, funs) for c in self.constraints)


def derivable(body, grammar) -> bool:
    """Whether the grammar derives ``body`` from its start symbol."""
    start, rules = grammar
    memo: dict = {}

    def gen(e, nt, active):
        key = (repr(e), nt)
        if key in memo:
            return memo[key]
        if key in active:
            return False
        active = active | {key}
        ok = any(match(e, rhs, active) for rhs in rules[nt])
        memo[key] = ok
        return ok

    def match(e, rhs, active):
        if isinstance(rhs, str) and rhs in rules:
            return gen(e, rhs, active)
        if _literal(rhs) is not None or isinstance(rhs, str):
            lit = _literal(rhs)
            return e == rhs if lit is None else _literal(e) == lit
        if isinstance(e, str) or _literal(e) is not None:
            return False
        return (e[0] == rhs[0] and len(e) == len(rhs)
                and all(match(a, r, active) for a, r in zip(e[1:], rhs[1:])))

    return gen(body, start, frozenset())


def read_solution(spec: Spec, text: str):
    """Body of the printed define-fun, after checking its signature."""
    forms = read_sexprs(text)
    if len(forms) != 1 or not isinstance(forms[0], list) \
            or len(forms[0]) != 5 or forms[0][0] != "define-fun":
        raise CheckError("expected exactly one define-fun")
    _, name, params, _ret, body = forms[0]
    if name != spec.fname or [p[0] for p in params] != spec.params:
        raise CheckError("define-fun name or parameters differ from synth-fun")
    return body


def check(problem: dict, solution_text: str) -> str:
    """Empty string when the solution is accepted, else the reason."""
    try:
        spec = Spec(problem["text"])
        body = read_solution(spec, solution_text)
        return check_body(spec, problem, body)
    except (CheckError, IndexError, TypeError) as e:
        return f"unreadable: {e}"


def check_body(spec: Spec, problem: dict, body) -> str:
    for point in problem["points"]:
        if not spec.holds(body, point):
            return f"spec fails at {point}"
    if spec.grammar is not None and not derivable(body, spec.grammar):
        return "body is not derivable from the grammar"
    ref = read_sexprs(problem["ref"])[0]
    fixed = problem["points"] if problem["fixes"] == "all" \
        else problem["fixes"]
    if fixed:
        funs = {spec.fname: (spec.params, body),
                "ref!": (spec.params, ref)}
        for point in fixed:
            args = [point[p] for p in spec.params]
            call = [spec.fname] + [str(a) for a in args]
            want = evaluate(["ref!"] + [str(a) for a in args], {}, funs)
            if evaluate(call, {}, funs) != want:
                return f"differs from the reference at {point}"
    return ""


def selftest() -> None:
    """Reject known-bad bodies and accept known-good ones."""
    maxp = {"text": """(set-logic LIA)
(synth-fun f ((a Int) (b Int)) Int)
(declare-var a Int) (declare-var b Int)
(constraint (>= (f a b) a)) (constraint (>= (f a b) b))
(constraint (or (= (f a b) a) (= (f a b) b)))
(check-synth)""",
            "ref": "(ite (>= a b) a b)", "fixes": "all",
            "points": [{"a": a, "b": b} for a in (-2, 0, 3)
                       for b in (-2, 0, 3)]}
    between = {"text": """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
  ((I Int) (B Bool))
  ((I Int (0 1 x y (+ I I) (ite B I I)))
   (B Bool ((> I I) (= I I) (not B)))))
(declare-var x Int) (declare-var y Int)
(constraint (=> (> x (+ y 2)) (and (> x (f x y)) (> (f x y) y))))
(constraint (=> (> y (+ x 2)) (and (> y (f x y)) (> (f x y) x))))
(check-synth)""",
               "ref": "(ite (> x y) (+ y 1) (+ x 1))", "fixes": [],
               "points": [{"x": x, "y": y} for x in range(-1, 6)
                          for y in range(-1, 6)]}
    good = [(maxp, "(define-fun f ((a Int) (b Int)) Int (ite (<= a b) b a))"),
            (between, "(define-fun f ((x Int) (y Int)) Int "
                      "(ite (> x y) (+ y 1) (+ x 1)))")]
    bad = [(maxp, "(define-fun f ((a Int) (b Int)) Int (ite (<= a b) a b))"),
           # Off by one: y + 3 is not below x when x = y + 3.
           (between, "(define-fun f ((x Int) (y Int)) Int "
                     "(ite (> x y) (+ y 3) (+ x 3)))"),
           # Correct, but the grammar offers no <=.
           (between, "(define-fun f ((x Int) (y Int)) Int "
                     "(ite (<= x y) (+ x 1) (+ y 1)))"),
           # At offset 0 "between" is unrealizable (x = y + 1 leaves no
           # integer between), so even the reference must fail there.
           (dict(between, text=between["text"].replace(" 2)", " 0)")),
            "(define-fun f ((x Int) (y Int)) Int "
            "(ite (> x y) (+ y 1) (+ x 1)))")]
    for p, text in good:
        why = check(p, text)
        if why:
            raise AssertionError(f"checker rejects a good body: {why}")
    for p, text in bad:
        if not check(p, text):
            raise AssertionError(f"checker accepts a bad body: {text}")
    if count_nodes(read_sexprs("(ite (<= x (- 1)) y (+ x 1))")[0]) != 8:
        raise AssertionError("node count is wrong")


if __name__ == "__main__":
    selftest()
    print("checker self-test passed")
    sys.exit(0)
