"""Seeded generators for the four benchmark workloads.

Every problem is a dict with the SyGuS text handed to the solver and
what the independent checker needs: sample ``points`` (argument ties
and offset boundaries included), a reference body ``ref`` and the
points where the spec fixes the function (``fixes``: ``"all"``, or a
list of example points, or empty). ``make_workload`` confirms every
reference with the checker before a problem is emitted, so no
unrealizable problem enters a workload.

Each workload is a list of cells: a family with its variant (arity,
offset, grammar, target size) and a fixed number of problems. The seed
draws names, constants, table values, sample points and target terms;
the cells, the order of the problems and the relative order of each
problem's variable names are the same for every seed. That keeps the mix
of cheap and dear problems, and with it the cost of a workload, steady
from seed to seed.
"""

from __future__ import annotations

import itertools
import random

from check import Spec, check_body, evaluate, read_sexprs

NAME_POOL = [a + b for a in "abcdeghjkmnpqrstuvw" for b in "0123456789"]


class _Rng(random.Random):
    """The workload's random source, with fresh variable names whose
    relative order is fixed by the problem's place in its cell.

    The rewriter orders terms by variable name, so the order of the
    names, not the names themselves, picks the solver's path: under a
    ">" grammar, max of (a1, b2) costs about 1.5 times max of (b2, a1).
    Left to the seed, the share of dear orders would move a workload's
    cost from seed to seed. The k-th problem of a cell gets the k-th
    permutation of its sorted names instead.
    """

    place = 0

    def names(self, n: int) -> list[str]:
        names = sorted(self.sample(NAME_POOL, n))
        perms = list(itertools.permutations(names))
        return list(perms[self.place % len(perms)])


GRAMMAR_OPS = ("<=", ">", ">=")


def _decls(names):
    return "".join(f"(declare-var {n} Int)\n" for n in names)


def _problem(params, constraints, ref, points, fixes, grammar="",
             universals=None):
    sig = " ".join(f"({p} Int)" for p in params)
    text = ("(set-logic LIA)\n"
            f"(synth-fun f ({sig}) Int{grammar})\n"
            + _decls(universals or params)
            + "".join(f"(constraint {c})\n" for c in constraints)
            + "(check-synth)\n")
    return {"text": text, "ref": ref, "points": points, "fixes": fixes}


def _app(params):
    return "(f " + " ".join(params) + ")"


def _grid(names, values):
    combos = itertools.product(values, repeat=len(names))
    return [dict(zip(names, vs)) for vs in combos]


def _random_points(rng, names, n, lo=-30, hi=30):
    return [{v: rng.randint(lo, hi) for v in names} for _ in range(n)]


def _fold(params, op):
    """Nested-ite reference for max (op ">=") or min (op "<=")."""
    ref = params[0]
    for p in params[1:]:
        ref = f"(ite ({op} {p} {ref}) {p} {ref})"
    return ref


# ---------------------------------------------------------------------------
# Families


def extremum(rng, n, kind, names=None, grammar=""):
    params = names or rng.names(n)
    cmp = ">=" if kind == "max" else "<="
    fx = _app(params)
    cons = [f"({cmp} {fx} {p})" for p in params]
    cons.append("(or " + " ".join(f"(= {fx} {p})" for p in params) + ")")
    points = _grid(params, (-2, 0, 1)) + _random_points(rng, params, 20)
    return _problem(params, cons, _fold(params, cmp), points, "all",
                    grammar)


def absolute(rng):
    (x,) = rng.names(1)
    fx = _app([x])
    cons = [f"(>= {fx} {x})", f"(>= {fx} (- {x}))",
            f"(or (= {fx} {x}) (= {fx} (- {x})))"]
    points = _grid([x], range(-3, 4)) + _random_points(rng, [x], 10)
    return _problem([x], cons, f"(ite (>= {x} 0) {x} (- {x}))", points, "all")


def clamp(rng):
    (x,) = rng.names(1)
    lo = rng.randint(-6, 3)
    hi = lo + rng.randint(1, 6)
    fx = _app([x])
    cons = [f"(=> (< {x} {lo}) (= {fx} {lo}))",
            f"(=> (> {x} {hi}) (= {fx} {hi}))",
            f"(=> (and (<= {lo} {x}) (<= {x} {hi})) (= {fx} {x}))"]
    points = _grid([x], range(lo - 2, hi + 3)) + _random_points(rng, [x], 10)
    return _problem([x], cons, f"(ite (< {x} {lo}) {lo} (ite (> {x} {hi}) "
                               f"{hi} {x}))", points, "all")


def between(rng, d, names=None, grammar="", ref_op=">"):
    """f(x, y) strictly between x and y when they are more than d apart.

    Realizable only for d >= 1: at d = 0, x = y + 1 leaves no integer
    strictly between.
    """
    x, y = names or rng.names(2)
    fx = _app([x, y])
    cons = [f"(=> (> {x} (+ {y} {d})) (and (> {x} {fx}) (> {fx} {y})))",
            f"(=> (> {y} (+ {x} {d})) (and (> {y} {fx}) (> {fx} {x})))"]
    # Ties, the offset boundaries on both sides, and random points.
    points = [{x: v, y: v} for v in (-3, 0, 5)]
    points += [{x: b + k, y: b} for b in (-4, 0, 7) for k in
               (d - 1, d, d + 1, d + 2)]
    points += [{x: b, y: b + k} for b in (-4, 0, 7) for k in
               (d - 1, d, d + 1, d + 2)]
    points += _random_points(rng, [x, y], 20)
    if ref_op == ">":
        ref = f"(ite (> {x} {y}) (+ {y} 1) (+ {x} 1))"
    elif ref_op == ">=":
        ref = f"(ite (>= {x} {y}) (+ {y} 1) (+ {x} 1))"
    else:
        ref = f"(ite (<= {x} {y}) (+ {x} 1) (+ {y} 1))"
    return _problem([x, y], cons, ref, points, [], grammar)


def aux_max(rng):
    """max of two arguments through an auxiliary output variable."""
    x, y, z = rng.names(3)
    cons = [f"(=> (or (and (>= {x} {y}) (= {x} {z})) "
            f"(and (>= {y} {x}) (= {y} {z}))) (= {_app([x, y])} {z}))"]
    points = []
    for pt in _grid([x, y], (-2, 0, 3)) + _random_points(rng, [x, y], 15):
        best = max(pt[x], pt[y])
        points += [dict(pt, **{z: best}), dict(pt, **{z: best + 1})]
    return _problem([x, y], cons, _fold([x, y], ">="), points, "all",
                    universals=[x, y, z])


def _table(rng, params, n, target=None, lo=-9, hi=9):
    """Example constraints at ``n`` distinct input points."""
    inputs = set()
    while len(inputs) < n:
        inputs.add(tuple(rng.randint(lo, hi) for _ in params))
    examples = []
    for ins in sorted(inputs):
        env = dict(zip(params, ins))
        out = rng.randint(lo, hi) if target is None \
            else evaluate(target, env, {})
        examples.append((env, out))
    cons = []
    for env, out in examples:
        guard = " ".join(f"(= {p} {v})" for p, v in env.items())
        if len(params) > 1:
            guard = f"(and {guard})"
        cons.append(f"(=> {guard} (= {_app(params)} {out}))")
    return examples, cons


def _num(v):
    return str(v) if v >= 0 else f"(- {-v})"


def table(rng, n, arity):
    """Example table without a grammar; the reference is the table."""
    params = rng.names(arity)
    examples, cons = _table(rng, params, n)
    ref = "0"
    for env, out in reversed(examples):
        guard = " ".join(f"(= {p} {_num(v)})" for p, v in env.items())
        ref = f"(ite (and {guard} true) {_num(out)} {ref})"
    fixes = [env for env, _ in examples]
    points = fixes + _random_points(rng, params, 10, -9, 9)
    return _problem(params, cons, ref, points, fixes)


def restricted(rng, kind, op, consts, extra, offset=1):
    """max, min or "between" under one grammar variant: the condition
    operator, the constants offered and the other Bool productions."""
    x, y = rng.names(2)
    grammar = (f"\n  ((I Int) (B Bool))\n  ((I Int ({consts} {x} {y} "
               f"(+ I I) (ite B I I)))\n   (B Bool (({op} I I) {extra})))")
    if kind == "between":
        return between(rng, offset, [x, y], grammar, ref_op=op)
    p = extremum(rng, 2, kind, [x, y], grammar)
    hi, lo = (x, y) if kind == "max" else (y, x)
    p["ref"] = f"(ite (<= {x} {y}) {lo} {hi})" if op == "<=" \
        else f"(ite ({op} {x} {y}) {hi} {lo})"
    return p


EXTRAS = ("(= I I) (not B)", "(not B)", "(= I I)")


def _portfolio_cells():
    cells = []
    # max and min: every operator, constant set and Bool variant. Under
    # > with the constants 0 and 1 reconstruction is dearest: three
    # each, so that more than a tenth of the problems take over 250 ms
    # and the p90 lies among them. A garbage collection of the
    # rewriter's memo (up to 200 ms) lands on a cheap problem chosen by
    # the seed and lifts it to 200-250 ms; with the p90 at the edge of
    # the dear problems, that moved it by a third between seeds.
    for kind in ("max", "min"):
        for op in GRAMMAR_OPS:
            for consts in ("1", "0 1"):
                for extra in EXTRAS:
                    n = 3 if op != ">" or consts == "0 1" else 2
                    cells.append((kind, n, _restricted(kind, op, consts,
                                                       extra)))
    for op in GRAMMAR_OPS:
        for extra in EXTRAS:
            cells.append(("between1", 2, _restricted("between", op, "1",
                                                     extra, 1)))
            if op != ">":
                cells.append(("between1", 1, _restricted(
                    "between", op, "0 1", extra, 1)))
        # Offset 2 still reconstructs under <= and >= ...
        if op != ">":
            cells.append(("between2", 1, _restricted("between", op, "1",
                                                     "(= I I) (not B)", 2)))
    # ... but exhausts the reconstruction budget at offset 3, and under
    # > already at offset 2: these fall back to enumeration.
    cells.append(("between-fallback", 1, _restricted(
        "between", "<=", "1", "(not B)", 3)))
    cells.append(("between-fallback", 1, _restricted(
        "between", ">", "1", "(not B)", 2)))
    return cells


def _restricted(*variant):
    return lambda rng: restricted(rng, *variant)


NSI_GRAMMARS = {
    # The grammar of the classic symmetric-max problem: offsets only
    # through (+ I 1).
    "step": ("\n  ((I Int) (B Bool))\n  ((I Int (0 {x} {y} (+ I 1) "
             "(ite B I I)))\n   (B Bool ((<= I I) (>= I I) (= I I) "
             "(not B))))"),
    "sum": ("\n  ((I Int) (B Bool))\n  ((I Int (0 1 {x} {y} (+ I I) "
            "(ite B I I)))\n   (B Bool ((<= I I) (not B))))"),
}


def symmetric(rng, kind, c=0, grammar_name=None):
    """f(x, y) = f(y, x) with a one-sided bound at offset ``c``.

    Offsets stay small: without a grammar, ``f >= max + 2`` already
    needs a size-6 term of the default grammar, and ``f <= min - 1``
    needs a negative constant, which the default grammar lacks.
    """
    x, y = rng.names(2)
    grammar = NSI_GRAMMARS[grammar_name].format(x=x, y=y) \
        if grammar_name else ""
    fxy, fyx = _app([x, y]), _app([y, x])
    if kind == "ge":
        bound = f"(>= {fxy} (+ {x} {c}))"
        ref = f"(ite (>= {x} {y}) {_plus(x, c)} {_plus(y, c)})"
    elif kind == "le":
        bound = f"(<= {fxy} {x})"
        ref = f"(ite (<= {x} {y}) {x} {y})"
    else:
        bound = f"(>= {fxy} (+ {x} {y} {c}))"
        ref = f"(+ {x} {y})" if c == 0 else f"(+ (+ {x} {y}) 1)"
    points = _grid([x, y], (-3, 0, 2, 5)) + _random_points(rng, [x, y], 20)
    return _problem([x, y], [bound, f"(= {fxy} {fyx})"], ref, points, [],
                    grammar)


def _plus(v, c):
    """v + c spelled with (+ I 1) steps, as the "step" grammar offers."""
    for _ in range(c):
        v = f"(+ {v} 1)"
    return v


IO_GRAMMARS = (
    ("\n  ((I Int) (B Bool))\n  ((I Int (0 1 x y (+ I I) (ite B I I)))"
     "\n   (B Bool ((<= I I) (= I I) (not B))))"),
    ("\n  ((I Int) (B Bool))\n  ((I Int (0 1 2 x y (+ I I) (ite B I I)))"
     "\n   (B Bool ((< I I) (not B))))"),
    ("\n  ((I Int) (B Bool))\n  ((I Int (1 x y (+ I I) (ite B I I)))"
     "\n   (B Bool ((>= I I) (= I I))))"),
)


def _grammar_rules(grammar):
    return Spec("(synth-fun f ((x Int) (y Int)) Int" + grammar
                + ") (constraint true)").grammar


def _terms_of_size(rules, nt, size, memo):
    """Every term ``nt`` derives with exactly ``size`` applications."""
    key = (nt, size)
    if key not in memo:
        out = []
        for rhs in rules[nt]:
            if isinstance(rhs, str):
                if size == 0:
                    out.append(rhs)
                continue
            holes = [a for a in rhs[1:] if a in rules]
            for split in _splits(size - 1, len(holes)):
                parts = iter([_terms_of_size(rules, a, k, memo)
                              for a, k in zip(holes, split)])
                choices = [next(parts) if a in rules else [a]
                           for a in rhs[1:]]
                out.extend([rhs[0]] + list(kids)
                           for kids in itertools.product(*choices))
        memo[key] = out
    return memo[key]


def _splits(total, n):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _splits(total - first, n - 1):
            yield (first,) + rest


def _show(e):
    if isinstance(e, str):
        return e
    return "(" + " ".join(_show(a) for a in e) + ")"


def io_examples(rng, grammar, size, npoints, head=None):
    """Examples at ``npoints`` points of a seeded target term of ``size``
    applications (with operator ``head``, when given), such that no
    smaller term of the grammar fits them: every problem of a cell needs
    the search to reach the same size."""
    rules = _grammar_rules(grammar)
    memo: dict = {}
    smaller = [t for k in range(size)
               for t in _terms_of_size(rules[1], rules[0], k, memo)]
    targets = [t for t in _terms_of_size(rules[1], rules[0], size, memo)
               if head is None or t[0] == head]
    while True:
        target = rng.choice(targets)
        examples, cons = _table(rng, ["x", "y"], npoints, target, -5, 5)
        if not any(all(evaluate(t, env, {}) == out for env, out in examples)
                   for t in smaller):
            break
    fixes = [env for env, _ in examples]
    points = fixes + _random_points(rng, ["x", "y"], 6, -5, 5)
    return _problem(["x", "y"], cons, _show(target), points, fixes, grammar)


# ---------------------------------------------------------------------------
# Workloads


def _cells(label, gen, counts):
    """One cell per (count, argument) pair of ``counts``."""
    return [(label, n, (lambda rng, a=a: gen(rng, a))) for n, a in counts]


# Every workload is a list of cells (family label, count, generator).
WORKLOADS = {
    "si-cegqi": (
        _cells("max", lambda r, n: extremum(r, n, "max"),
               [(20, 2), (20, 3), (16, 4)])
        + _cells("min", lambda r, n: extremum(r, n, "min"),
                 [(20, 2), (20, 3), (16, 4)])
        + _cells("between", between,
                 [(8, 1), (8, 2), (8, 3)])
        + _cells("table", lambda r, na: table(r, *na),
                 [(8, (n, a)) for n in (3, 4, 5) for a in (1, 2)])
        + [("abs", 20, absolute), ("clamp", 20, clamp),
           ("aux-max", 20, aux_max)]),
    "si-portfolio": _portfolio_cells(),
    "nonsi-enum": (
        _cells("sym-ge", lambda r, c: symmetric(r, "ge", c),
               [(24, 0), (2, 1)])
        + _cells("sym-le", lambda r, c: symmetric(r, "le", c), [(30, 0)])
        + _cells("sym-sum", lambda r, c: symmetric(r, "sum", c),
                 [(6, 0), (6, 1)])
        + _cells("sym-ge-step", lambda r, c: symmetric(r, "ge", c, "step"),
                 [(8, 0), (22, 1), (2, 2)])
        + _cells("sym-le-step", lambda r, c: symmetric(r, "le", c, "step"),
                 [(8, 0)])
        + _cells("sym-sum-g", lambda r, c: symmetric(r, "sum", c, "sum"),
                 [(6, 0), (6, 1)])),
    # The cost of an example problem grows with the target's size, the
    # number of points and, at size 2, with an ite at the top: each
    # combination is a cell of its own.
    "io-enum": [(f"io-size{size}", n, (lambda r, v=(g, size, k, head):
                                         io_examples(r, *v)))
                for g in IO_GRAMMARS for k in (2, 3, 4)
                for n, size, head in ((7, 0, None), (17, 1, None),
                                      (5, 2, "+"), (5, 2, "ite"))],
}


def make_workload(name: str, seed: int) -> list[dict]:
    """The problems of one workload, the cells taken in turn.

    The order is the same for every seed: the rewriter's memo carries
    over from problem to problem, so a seeded order would move the
    cost of a workload from seed to seed. Raises ValueError when a
    generated reference fails the checker, which would make the problem
    unrealizable or mis-specified.
    """
    rng = _Rng(f"{name}:{seed}")
    cells = []
    for label, count, gen in WORKLOADS[name]:
        cell = []
        for k in range(count):
            rng.place = k
            p = gen(rng)
            p["family"] = label
            why = check_body(Spec(p["text"]), p, read_sexprs(p["ref"])[0])
            if why:
                raise ValueError(f"{name}/{label} reference rejected: {why}\n"
                                 f"{p['text']}{p['ref']}")
            cell.append(p)
        cells.append(cell)
    out = [cell[k] for k in range(max(map(len, cells))) for cell in cells
           if k < len(cell)]
    for i, p in enumerate(out):
        p["id"] = i
    return out
