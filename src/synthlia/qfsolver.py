"""Exact satisfiability for quantifier-free LIA+Bool ground formulas.

Architecture: boolean search over the atom skeleton (atoms branched in
creation order, true branch first), with an exact integer feasibility
check per satisfying conjunction of literals. Integer feasibility is the
omega test: equality elimination with the symmetric-modulus trick, then
Fourier-Motzkin elimination with dark-shadow certification and splinter
enumeration where the shadow is inexact. All arithmetic is exact.

Disequalities (false Int ``=`` literals) are split on demand (Barrett,
Nieuwenhuis, Oliveras, Tinelli, "Splitting on Demand in SAT Modulo
Theories", LPAR 2006): the equalities and inequalities are solved
first, and only a disequality ``e != 0`` that the model violates is
split, into ``e >= 1`` and then ``-e >= 1``. An infeasible relaxation
refutes the whole conjunction.

Int-sorted ite is lifted into the boolean skeleton: a comparison ``A``
that holds ``ite(c, a, b)`` is read as the boolean ``ite(c, A[a], A[b])``
at the cost of one propositional step. So every atom is over the
formula's own variables: ``d <= 0`` or ``d = 0`` over the linear form
``rewrite.atom_diff`` gives the comparison, the same form the rewriter
normalizes it to.

Theory conflicts are learned and kept (Nieuwenhuis, Oliveras, Tinelli,
"Solving SAT and SAT Modulo Theories", JACM 2006). When the omega test
refutes a leaf, the leaf's arithmetic literals are recorded in a
``Conflicts`` store, and the search skips every branch whose literal
would complete a recorded conflict. Calls that share a store, as the
CEGQI loop's do, skip what earlier calls refuted. Only branches with
no feasible leaf are cut, and nothing is propagated: the decisions,
their order and the first feasible leaf stay the same, so a shared
store never changes a model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Union

from .rewrite import atom_diff
from .terms import (
    BOOL,
    COMPARISONS,
    INT,
    App,
    BoolConst,
    SortError,
    Term,
    Var,
    eq,
    fresh_name,
    free_vars,
    not_,
    sort_of,
    uf_names,
)

Assignment = dict


class ResourceLimit(Exception):
    """The solver exceeded its iteration budget; never silently wrong."""


class TimedOut(Exception):
    """The solve's deadline passed, inside a solver call or between calls."""


# Steps one check_sat call may take in its propositional search, and
# again in each omega test it runs, before it raises ResourceLimit.
STEP_BUDGET = 200000


@dataclass(frozen=True)
class Sat:
    model: Assignment


@dataclass(frozen=True)
class Unsat:
    pass


SatResult = Union[Sat, Unsat]

UNSAT = Unsat()

# A linear expression over integer variables: ({var: coeff}, constant).
LinExpr = tuple[dict, int]


# ---------------------------------------------------------------------------
# Omega test. Constraints are LinExpr with the convention expr >= 0 for
# inequalities and expr == 0 for equalities.


def _eval_expr(e: LinExpr, model: dict) -> int:
    return e[1] + sum(c * model.get(v, 0) for v, c in e[0].items())


def _pick_value(lo: Optional[int], hi: Optional[int]) -> int:
    # Prefer small models: 0 when the bounds allow it.
    if lo is not None and hi is not None:
        assert lo <= hi
        return min(max(0, lo), hi)
    if lo is not None:
        return max(0, lo)
    if hi is not None:
        return min(0, hi)
    return 0


def _symmetric_mod(a: int, m: int) -> int:
    r = a % m
    if 2 * r >= m:
        r -= m
    return r


class _Omega:
    def __init__(self):
        self.budget = STEP_BUDGET

    def _tick(self):
        self.budget -= 1
        if self.budget <= 0:
            raise ResourceLimit("omega test budget exceeded")

    def solve(self, eqs: list[LinExpr], ineqs: list[LinExpr]) -> Optional[dict]:
        """A model of the conjunction, or None if none exists."""
        self._tick()
        substs: list[tuple[str, LinExpr]] = []
        eqs = list(eqs)
        ineqs = list(ineqs)
        while eqs:
            e = eqs.pop()
            coeffs, const = e
            if not coeffs:
                if const != 0:
                    return None
                continue
            g = math.gcd(*coeffs.values())
            if const % g != 0:
                return None
            coeffs = {v: c // g for v, c in coeffs.items()}
            const //= g
            unit = min((v for v, c in coeffs.items() if abs(c) == 1),
                       default=None)
            if unit is not None:
                # v = -(rest)/coeff  with coeff = +-1
                c = coeffs[unit]
                rest = ({w: -cw * c for w, cw in coeffs.items() if w != unit},
                        -const * c)
                substs.append((unit, rest))
                eqs = [self._subst(x, unit, rest) for x in eqs]
                ineqs = [self._subst(x, unit, rest) for x in ineqs]
                continue
            # No unit coefficient: symmetric-modulus reduction (omega
            # test equality step). The derived equation has coefficient
            # -+1 on vk, so vk is eliminated in favour of a fresh sigma,
            # shrinking the coefficients of the original equation.
            vk = min(coeffs, key=lambda v: (abs(coeffs[v]), v))
            m = abs(coeffs[vk]) + 1
            sigma = fresh_name("omega")
            newc = {v: _symmetric_mod(c, m) for v, c in coeffs.items()}
            newc[sigma] = -m
            newc = {v: c for v, c in newc.items() if c}
            newk = _symmetric_mod(const, m)
            s = newc[vk]  # +-1
            rest = ({w: -cw * s for w, cw in newc.items() if w != vk},
                    -newk * s)
            substs.append((vk, rest))
            eqs.append(self._subst((coeffs, const), vk, rest))
            eqs = [self._subst(x, vk, rest) for x in eqs]
            ineqs = [self._subst(x, vk, rest) for x in ineqs]
        model = self._solve_ineqs([x for x in ineqs])
        if model is None:
            return None
        for v, rest in reversed(substs):
            model[v] = _eval_expr(rest, model)
        return model

    def _subst(self, e: LinExpr, v: str, repl: LinExpr) -> LinExpr:
        coeffs, const = e
        if v not in coeffs:
            return e
        c = coeffs[v]
        out = {w: cw for w, cw in coeffs.items() if w != v}
        for w, cw in repl[0].items():
            out[w] = out.get(w, 0) + c * cw
            if out[w] == 0:
                del out[w]
        return (out, const + c * repl[1])

    def _tighten(self, ineqs: list[LinExpr]) -> Optional[list[LinExpr]]:
        out = []
        for coeffs, const in ineqs:
            if not coeffs:
                if const < 0:
                    return None
                continue
            g = math.gcd(*coeffs.values())
            if g > 1:
                coeffs = {v: c // g for v, c in coeffs.items()}
                const = math.floor(const / g)
            out.append((coeffs, const))
        return out

    def _solve_ineqs(self, ineqs: list[LinExpr]) -> Optional[dict]:
        self._tick()
        tight = self._tighten(ineqs)
        if tight is None:
            return None
        ineqs = tight
        if not ineqs:
            return {}
        # Prefer a variable whose elimination is exact, then few pairs:
        # per variable, its lower and upper bound counts and whether
        # all of either side have unit coefficients, in one pass.
        counts: dict[str, list] = {}
        for coeffs, _ in ineqs:
            for v, c in coeffs.items():
                k = counts.get(v)
                if k is None:
                    k = counts[v] = [0, 0, True, True]
                if c > 0:
                    k[0] += 1
                    k[2] = k[2] and c == 1
                elif c < 0:
                    k[1] += 1
                    k[3] = k[3] and c == -1

        def rank(v):
            lows, ups, unit_lows, unit_ups = counts[v]
            return (not (unit_lows or unit_ups), lows * ups, v)

        var = min(counts, key=rank)
        lowers = []   # (a, rest): a*var + rest >= 0, a > 0  ->  var >= -rest/a
        uppers = []   # (b, rest): -b*var + rest >= 0, b > 0 ->  var <= rest/b
        rest_cs = []
        for coeffs, const in ineqs:
            c = coeffs.get(var, 0)
            others = ({w: cw for w, cw in coeffs.items() if w != var}, const)
            if c > 0:
                lowers.append((c, others))
            elif c < 0:
                uppers.append((-c, others))
            else:
                rest_cs.append((coeffs, const))

        def assemble(model):
            lo = hi = None
            for a, e in lowers:
                b = -(_eval_expr(e, model) // a)  # ceil(-e/a)
                lo = b if lo is None else max(lo, b)
            for b_, e in uppers:
                u = _eval_expr(e, model) // b_  # floor(e/b)
                hi = u if hi is None else min(hi, u)
            model[var] = _pick_value(lo, hi)
            return model

        if not lowers or not uppers:
            model = self._solve_ineqs(rest_cs)
            return None if model is None else assemble(model)

        exact = (all(a == 1 for a, _ in lowers)
                 or all(b == 1 for b, _ in uppers))
        real = list(rest_cs)
        dark = list(rest_cs)
        for a, e in lowers:       # var >= -e/a
            for b, f in uppers:   # var <= f/b
                # real: a*f + b*e >= 0 ; dark subtracts (a-1)(b-1)
                comb = self._combine(a, e, b, f, 0)
                real.append(comb)
                dark.append(self._combine(a, e, b, f, (a - 1) * (b - 1)))
        if exact:
            model = self._solve_ineqs(real)
            return None if model is None else assemble(model)
        model = self._solve_ineqs(dark)
        if model is not None:
            return assemble(model)
        if self._solve_ineqs(real) is None:
            return None
        # Shadow gap: enumerate splinters a*var = -e + i.
        bmax = max(b for b, _ in uppers)
        for a, e in lowers:
            top = (a * bmax - a - bmax) // bmax
            for i in range(top + 1):
                eq_c = dict(e[0])
                eq_c[var] = eq_c.get(var, 0) + a
                model = self.solve([(eq_c, e[1] - i)], ineqs)
                if model is not None:
                    return model
        return None

    @staticmethod
    def _combine(a: int, e: LinExpr, b: int, f: LinExpr, slack: int) -> LinExpr:
        coeffs = {v: a * c for v, c in f[0].items()}
        for v, c in e[0].items():
            coeffs[v] = coeffs.get(v, 0) + b * c
            if coeffs[v] == 0:
                del coeffs[v]
        return (coeffs, a * f[1] + b * e[1] - slack)


# ---------------------------------------------------------------------------
# Boolean layer


def _lift_ite(t: App) -> Optional[tuple]:
    """``(c, t[a], t[b])`` for the first Int ``ite(c, a, b)`` on the
    arithmetic spine of ``t`` (reached through ``+`` and ``*`` alone),
    with that occurrence replaced by each branch; None if there is none."""
    for i, a in enumerate(t.args):
        if not isinstance(a, App):
            continue
        split = a.args if a.op == "ite" else _lift_ite(a)
        if split is not None:
            c, x, y = split
            head, tail = t.args[:i], t.args[i + 1:]
            return (c, App(t.op, head + (x,) + tail),
                    App(t.op, head + (y,) + tail))
    return None


class Conflicts:
    """Theory conflicts learned by the ``check_sat`` calls that share
    this store: conjunctions of arithmetic literals that the omega test
    refuted.

    Each atom key ``(kind, payload)`` gets an id fixed for the store,
    and the literal that sets atom ``i`` to ``v`` is bit ``2 * i + v``.
    A conflict is the mask of its literals' bits, listed under each of
    those bits. ``pruned`` counts the branches a conflict cut.
    """

    def __init__(self):
        self.ids: dict = {}
        self.by_bit: dict[int, list[int]] = {}
        self.masks: set[int] = set()
        self.pruned = 0

    @property
    def learned(self) -> int:
        return len(self.masks)

    def atom_id(self, key) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.ids)
        return got

    def add(self, mask: int) -> None:
        if mask in self.masks:
            return
        self.masks.add(mask)
        rest = mask
        while rest:
            low = rest & -rest
            self.by_bit.setdefault(low.bit_length() - 1, []).append(mask)
            rest ^= low

    def completes(self, bit: int, cur: int) -> bool:
        """Whether ``cur``, which holds literal ``bit``, holds all of a
        conflict that contains it; a true answer counts as a prune."""
        for m in self.by_bit.get(bit, ()):
            if m & cur == m:
                self.pruned += 1
                return True
        return False


@dataclass(frozen=True)
class _Atom:
    kind: str          # "le" (expr <= 0), "eq" (expr == 0), "bvar"
    expr: tuple        # frozen LinExpr or variable name
    bit: int           # the store bit of its false literal; +1 is true


class _Checker:
    def __init__(self, f: Term, conflicts: Conflicts,
                 deadline: Optional[float]):
        self.budget = STEP_BUDGET
        self.deadline = deadline
        self.conflicts = conflicts
        self.atoms: list[_Atom] = []
        self.atom_ids: dict = {}
        # One walk's simplified shared nodes, by the id of their marker.
        self.walked: dict[int, tuple] = {}
        # condition -> its node: every lift path of an Int ite repeats
        # its condition, which is built once.
        self.conds: dict[Term, object] = {}
        self.root = self._build(f)

    # boolean AST: True/False, int atom index, ("not", n), ("and"/"or",
    # tuple), and ("share", n) around a node that occurs more than once.
    def _atom(self, kind: str, payload) -> int:
        # Atoms are decided in the order of their per-call index, which
        # picks the models; the store id only names their literals.
        key = (kind, payload)
        if key not in self.atom_ids:
            self.atom_ids[key] = len(self.atoms)
            bit = 2 * self.conflicts.atom_id(key)
            self.atoms.append(_Atom(kind, payload, bit))
        return self.atom_ids[key]

    def _build(self, t: Term):
        if isinstance(t, BoolConst):
            return t.value
        if isinstance(t, Var):
            return self._atom("bvar", t.name)
        assert isinstance(t, App)
        op = t.op
        if op == "not":
            return _neg(self._build(t.args[0]))
        if op in ("and", "or"):
            return (op, tuple(self._build(a) for a in t.args))
        if op == "=>":
            return ("or", (_neg(self._build(t.args[0])),
                           self._build(t.args[1])))
        if op == "ite":  # boolean ite
            c = self._cond(t.args[0])
            return ("and", (("or", (_neg(c), self._build(t.args[1]))),
                            ("or", (c, self._build(t.args[2])))))
        if op in COMPARISONS or (op == "=" and sort_of(t.args[0]) == INT):
            lifted = _lift_ite(t)
            if lifted is not None:
                self._charge(1)
                return self._build(App("ite", lifted))
            const, monos = atom_diff(t)
            kind = "eq" if op == "=" else "le"
            if not monos:
                return const == 0 if kind == "eq" else const <= 0
            # Int ite is lifted, so every monomial is a variable.
            names = tuple((m.name, c) for m, c in monos)
            return self._atom(kind, (names, const))
        if op == "=":
            x = _shared(self._build(t.args[0]))
            y = _shared(self._build(t.args[1]))
            return ("and", (("or", (_neg(x), y)), ("or", (x, _neg(y)))))
        raise SortError(f"unexpected operator {op!r}")

    def _cond(self, t: Term):
        got = self.conds.get(t)
        if got is None:
            got = self.conds[t] = _shared(self._build(t))
        return got

    # -- search ------------------------------------------------------------

    def check(self) -> SatResult:
        lits: dict[int, bool] = {}
        model = self._dpll(self.root, lits, 0)
        if model is None:
            return UNSAT
        return Sat(model)

    def _simplify(self, node, lits):
        """``node`` under ``lits``, and the smallest atom left in the
        result (None when the result is a constant). A shared node is
        simplified once per walk, and its result is shared in turn."""
        if isinstance(node, bool):
            return node, None
        if isinstance(node, int):
            val = lits.get(node)
            return (node, node) if val is None else (val, None)
        op, parts = node
        if op == "not":
            s, first = self._simplify(parts, lits)
            return _neg(s), first
        if op == "share":
            got = self.walked.get(id(node))
            if got is None:
                self._charge(0)
                s, first = self._simplify(parts, lits)
                got = self.walked[id(node)] = _shared(s), first
            return got
        out = []
        first = None
        for p in parts:
            s, a = self._simplify(p, lits)
            if a is None:
                if (s and op == "or") or (not s and op == "and"):
                    return s, None
                continue
            out.append(s)
            if first is None or a < first:
                first = a
        if not out:
            return op == "and", None
        if len(out) == 1:
            return out[0], first
        return (op, tuple(out)), first

    def _charge(self, n: int) -> None:
        self.budget -= n
        if self.budget <= 0:
            raise ResourceLimit("propositional search budget exceeded")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimedOut("deadline passed")

    def _dpll(self, node, lits, cur: int) -> Optional[Assignment]:
        """The first model below ``lits``; ``cur`` is the mask of their
        store bits. A branch that completes a learned conflict is
        skipped: no leaf below it is feasible."""
        self._charge(1)
        self.walked = {}
        node, a = self._simplify(node, lits)
        if node is False:
            return None
        if node is True:
            return self._theory_model(lits)
        bit = self.atoms[a].bit
        for val in (True, False):
            b = bit + val
            nxt = cur | (1 << b)
            if self.conflicts.completes(b, nxt):
                continue
            lits[a] = val
            m = self._dpll(node, lits, nxt)
            if m is not None:
                return m
            del lits[a]
        return None

    def _theory_model(self, lits) -> Optional[Assignment]:
        eqs: list[LinExpr] = []
        ineqs: list[LinExpr] = []
        diseqs: list[LinExpr] = []
        bools: dict[str, bool] = {}
        conflict = 0
        for idx, val in lits.items():
            atom = self.atoms[idx]
            if atom.kind == "bvar":
                bools[atom.expr] = val
                continue
            conflict |= 1 << (atom.bit + val)
            items, const = atom.expr
            e = (dict(items), const)
            if atom.kind == "le":
                if val:
                    ineqs.append(_negate_ge(e))       # e <= 0 -> -e >= 0
                else:
                    ineqs.append((e[0], e[1] - 1))    # e >= 1
            else:
                if val:
                    eqs.append(e)
                else:
                    diseqs.append(e)
        m = self._with_diseqs(eqs, ineqs, diseqs, bools)
        if m is None:
            self.conflicts.add(conflict)
        return m

    def _with_diseqs(self, eqs, ineqs, diseqs, bools) -> Optional[Assignment]:
        # Split on demand: solve without the disequalities, then split
        # only the first one the model violates. A relaxation with no
        # model refutes the whole conjunction.
        self._charge(50)
        m = _Omega().solve(eqs, ineqs)
        if m is None:
            return None
        i = next((i for i, e in enumerate(diseqs) if _eval_expr(e, m) == 0),
                 None)
        if i is None:
            out: Assignment = dict(bools)
            for v, x in m.items():
                # omega! variables are solver-internal
                if not v.startswith("omega!"):
                    out[v] = x
            return out
        head, rest = diseqs[i], diseqs[:i] + diseqs[i + 1:]
        for branch in ((head[0], head[1] - 1),                       # e >= 1
                       ({v: -c for v, c in head[0].items()},
                        -head[1] - 1)):                              # -e >= 1
            m = self._with_diseqs(eqs, ineqs + [branch], rest, bools)
            if m is not None:
                return m
        return None


def _neg(node):
    if isinstance(node, bool):
        return not node
    if isinstance(node, tuple) and node[0] == "not":
        return node[1]
    return ("not", node)


def _shared(node):
    """``node`` marked for a second occurrence: ``_simplify`` walks a
    marked node once per walk, not once per occurrence."""
    if isinstance(node, tuple) and node[0] != "share":
        return ("share", node)
    return node


def _negate_ge(e: LinExpr) -> LinExpr:
    return ({v: -c for v, c in e[0].items()}, -e[1])


# ---------------------------------------------------------------------------
# Public interface


def check_sat(f: Term, conflicts: Optional[Conflicts] = None,
              deadline: Optional[float] = None) -> SatResult:
    """Decide satisfiability of a ground formula; free variables are
    treated as existential and a satisfying assignment is returned.
    Raises TimedOut at the first step past ``deadline`` (monotonic time).

    The theory conflicts the search learns go into ``conflicts``, and
    the search skips the branches that any conflict in it refutes.
    Calls that share a store return the same results as calls that do
    not; they only take fewer steps. Without a store the call learns
    into one of its own."""
    if sort_of(f) != BOOL:
        raise SortError("check_sat expects a boolean formula")
    if uf_names(f):
        raise SortError("check_sat cannot handle unknown functions")
    if conflicts is None:
        conflicts = Conflicts()
    result = _Checker(f, conflicts, deadline).check()
    if isinstance(result, Sat):
        # Total model over the formula's variables.
        model = dict(result.model)
        for v in free_vars(f):
            model.setdefault(v.name, 0 if v.sort == INT else False)
        return Sat(model)
    return result


def check_valid(f: Term, deadline: Optional[float] = None) -> bool:
    return isinstance(check_sat(not_(f), deadline=deadline), Unsat)


def are_equivalent(t1: Term, t2: Term,
                   deadline: Optional[float] = None) -> bool:
    """Theory equivalence of two terms of equal base sort, with free
    variables read universally."""
    s1, s2 = sort_of(t1), sort_of(t2)
    if s1 != s2:
        raise SortError("cannot compare terms of different sorts")
    return isinstance(check_sat(not_(eq(t1, t2)), deadline=deadline), Unsat)
