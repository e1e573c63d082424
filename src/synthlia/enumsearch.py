"""Syntax-guided enumerative search.

Grammars are compiled into families of algebraic datatypes (flattening
non-atomic productions through auxiliary single-constructor datatypes
and dropping rules made redundant by the rewriter). Candidate solutions
are datatype values enumerated in order of non-nullary constructor
count; duplicate candidates — same simplified analog, or same
evaluation on the conjecture's example points — are pruned and turned
into blocking patterns, the explicit-store counterpart of
symmetry-breaking clauses. Patterns are generalized by replacing
subtrees with fresh annotated variables whenever the justification for
the pruning does not depend on them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .classify import IOExamples, classify
from .problem import (
    Grammar,
    GrammarError,
    Solution,
    SynthProblem,
    apply_solution,
)
from .qfsolver import Unsat, check_sat
from .rewrite import canonical_key, normalize
from .terms import (
    BOOL,
    INT,
    App,
    BoolConst,
    FunSort,
    IntConst,
    Lambda,
    Term,
    Value,
    Var,
    evaluate,
    free_vars,
    not_,
    sort_of,
    substitute,
)


class Exhausted(Exception):
    """The enumeration hit its size cap without finding a solution."""

    def __init__(self, size_cap: int, stats: "EnumStats"):
        super().__init__(f"search exhausted at size {size_cap}")
        self.size_cap = size_cap
        self.stats = stats


class TimedOut(Exception):
    """The deadline passed while candidates were being enumerated."""

    def __init__(self, stats: Optional["EnumStats"] = None):
        super().__init__("deadline passed")
        self.stats = stats


# ---------------------------------------------------------------------------
# Datatype families


@dataclass(frozen=True)
class Constructor:
    """Flattened constructor: a leaf term, or one operator over children."""

    name: str
    children: tuple[str, ...]  # child datatype names, in order
    op: Optional[str] = None   # builtin operator, None for leaves
    leaf: Optional[Term] = None

    def arity(self) -> int:
        return len(self.children)


@dataclass(frozen=True)
class Datatype:
    name: str
    sort: str
    constructors: tuple[Constructor, ...]


@dataclass(frozen=True)
class DatatypeFamily:
    datatypes: tuple[Datatype, ...]
    start: str
    params: tuple[Var, ...]

    def datatype(self, name: str) -> Datatype:
        for d in self.datatypes:
            if d.name == name:
                return d
        raise KeyError(name)

    def constructor(self, dtname: str, cname: str) -> Constructor:
        for c in self.datatype(dtname).constructors:
            if c.name == cname:
                return c
        raise KeyError((dtname, cname))


@dataclass(frozen=True)
class DtValue:
    dtype: str
    ctor: str
    children: tuple["DtValue", ...] = ()


def dt_size(v: DtValue) -> int:
    """Non-nullary constructor count."""
    n = 1 if v.children else 0
    return n + sum(dt_size(c) for c in v.children)


_OP_NAMES = {"+": "plus", "*": "mult", "ite": "if", "<=": "leq", "<": "lt",
             ">=": "geq", ">": "gt", "=": "eq", "not": "not", "and": "and",
             "or": "or", "=>": "implies"}


def _leaf_name(t: Term) -> str:
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    assert isinstance(t, Var)
    return t.name


class _Builder:
    def __init__(self, g: Grammar):
        self.g = g
        self.dts: dict[str, list[Constructor]] = {
            nt: [] for nt in g.nonterminals}
        self.sorts: dict[str, str] = dict(g.nonterminals)
        self.aux_count: dict[str, int] = {}

    def _fresh_dt(self, parent: str) -> str:
        n = self.aux_count.get(parent, 0)
        while True:
            n += 1
            name = f"{parent}{n}"
            if name not in self.dts:
                self.aux_count[parent] = n
                return name

    def _unique_cname(self, dt: str, base: str) -> str:
        used = {c.name for c in self.dts[dt]}
        if base not in used:
            return base
        i = 2
        while f"{base}_{i}" in used:
            i += 1
        return f"{base}_{i}"

    def _child_dt(self, parent: str, arg: Term) -> str:
        if isinstance(arg, Var) and arg.name in self.g.nonterminals:
            return arg.name
        aux = self._fresh_dt(parent)
        self.dts[aux] = []
        self.sorts[aux] = sort_of(arg)
        self.add_rule(aux, arg, parent_for_aux=parent)
        return aux

    def add_rule(self, dt: str, rhs: Term, parent_for_aux: str = "") -> None:
        owner = parent_for_aux or dt
        if isinstance(rhs, Var) and rhs.name in self.g.nonterminals:
            # A unit production N -> M: splice M's rules in directly so
            # every constructor stays one symbol deep.
            for sub in self.g.rules_of(rhs.name):
                self.add_rule(dt, sub, parent_for_aux=owner)
            return
        if isinstance(rhs, (IntConst, BoolConst, Var)):
            name = self._unique_cname(dt, _leaf_name(rhs))
            self.dts[dt].append(Constructor(name, (), leaf=rhs))
            return
        assert isinstance(rhs, App)
        kids = tuple(self._child_dt(owner, a) for a in rhs.args)
        name = self._unique_cname(dt, _OP_NAMES[rhs.op])
        self.dts[dt].append(Constructor(name, kids, op=rhs.op))


def _ctor_analog_skeleton(c: Constructor, child_vars: tuple[Var, ...]) -> Term:
    if c.op is None:
        return c.leaf
    return App(c.op, child_vars)


def _minimize(dts: dict[str, list[Constructor]],
              sorts: dict[str, str]) -> None:
    """Drop constructors whose fresh-variable analog duplicates an
    earlier constructor of the same datatype up to a type-respecting
    permutation of the children."""
    for dt, ctors in dts.items():
        kept: list[Constructor] = []
        for cand in ctors:
            cvars = tuple(Var(f"_m{i}", sorts[d])
                          for i, d in enumerate(cand.children))
            cform = normalize(_ctor_analog_skeleton(cand, cvars))
            redundant = False
            for prev in kept:
                if sorted(prev.children) != sorted(cand.children):
                    continue
                kvars = tuple(Var(f"_m{i}", sorts[d])
                              for i, d in enumerate(prev.children))
                kform = normalize(_ctor_analog_skeleton(prev, kvars))
                for perm in itertools.permutations(range(cand.arity())):
                    if any(cand.children[i] != prev.children[perm[i]]
                           for i in range(cand.arity())):
                        continue
                    renamed = substitute(
                        _ctor_analog_skeleton(cand, cvars),
                        {cvars[i].name: kvars[perm[i]]
                         for i in range(cand.arity())})
                    if normalize(renamed) == kform:
                        redundant = True
                        break
                if redundant:
                    break
            if not redundant:
                kept.append(cand)
        dts[dt] = kept


def grammar_to_datatypes(g: Grammar) -> DatatypeFamily:
    g.validate()
    b = _Builder(g)
    for lhs, rhs in g.rules:
        b.add_rule(lhs, rhs)
    _minimize(b.dts, b.sorts)
    order = list(g.nonterminals) + [d for d in b.dts
                                    if d not in g.nonterminals]
    datatypes = tuple(Datatype(d, b.sorts[d], tuple(b.dts[d]))
                      for d in order)
    fam = DatatypeFamily(
        datatypes=datatypes,
        start=g.start,
        params=g.params)
    for d in fam.datatypes:
        if not d.constructors:
            raise GrammarError(f"datatype {d.name} has no constructors")
    return fam


def default_grammar(fsort: FunSort, param_names: tuple[str, ...]) -> Grammar:
    """The unrestricted-search grammar over the function's parameters."""
    taken = set(param_names)
    iname = next(n for n in ("I", "I_", "I__") if n not in taken)
    bname = next(n for n in ("B", "B_", "B__") if n not in taken)
    inode, bnode = Var(iname, INT), Var(bname, BOOL)
    params = tuple(Var(n, s) for n, s in zip(param_names, fsort.params))
    rules: list[tuple[str, Term]] = [
        (iname, IntConst(0)), (iname, IntConst(1))]
    rules.extend((iname, v) for v in params if v.sort == INT)
    rules.append((iname, App("+", (inode, inode))))
    rules.append((iname, App("ite", (bnode, inode, inode))))
    rules.append((bname, App("<=", (inode, inode))))
    rules.append((bname, App("=", (inode, inode))))
    rules.extend((bname, v) for v in params if v.sort == BOOL)
    rules.append((bname, App("not", (bnode,))))
    start = iname if fsort.ret == INT else bname
    g = Grammar(start=start,
                nonterminals={iname: INT, bname: BOOL},
                rules=tuple(rules),
                params=params)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Analogs and evaluation


def to_analog(v: DtValue, family: DatatypeFamily) -> Term:
    c = family.constructor(v.dtype, v.ctor)
    if c.op is None:
        return c.leaf
    return App(c.op, tuple(to_analog(ch, family) for ch in v.children))


def eval_dt(v: DtValue, family: DatatypeFamily,
            point: tuple[Value, ...]) -> Value:
    if len(point) != len(family.params):
        raise ValueError("point arity does not match the formal parameters")
    env = {p.name: a for p, a in zip(family.params, point)}

    def rec(u: DtValue) -> Value:
        c = family.constructor(u.dtype, u.ctor)
        if c.op is None:
            return evaluate(c.leaf, env)
        if c.op == "ite":
            return rec(u.children[1] if rec(u.children[0])
                       else u.children[2])
        if c.op == "and":
            return all(rec(ch) for ch in u.children)
        if c.op == "or":
            return any(rec(ch) for ch in u.children)
        if c.op == "not":
            return not rec(u.children[0])
        if c.op == "=>":
            return (not rec(u.children[0])) or bool(rec(u.children[1]))
        vals = [rec(ch) for ch in u.children]
        if c.op == "+":
            return sum(vals)
        if c.op == "*":
            return vals[0] * vals[1]
        if c.op == "<=":
            return vals[0] <= vals[1]
        if c.op == "<":
            return vals[0] < vals[1]
        if c.op == ">=":
            return vals[0] >= vals[1]
        if c.op == ">":
            return vals[0] > vals[1]
        if c.op == "=":
            return vals[0] == vals[1]
        raise ValueError(f"unknown operator {c.op!r}")

    return rec(v)


def signature_of(v: DtValue, family: DatatypeFamily,
                 points: list) -> tuple:
    """Evaluation vector of the candidate on the example input points."""
    if not points:
        raise ValueError("signature requires at least one point")
    return tuple(eval_dt(v, family, tuple(p)) for p in points)


# ---------------------------------------------------------------------------
# Blocking patterns

SelectorPath = tuple[tuple[str, int], ...]  # (child datatype, n-th), 1-based


@dataclass(frozen=True)
class BlockingPattern:
    """Negation of a symmetry-breaking clause: blocks a value iff every
    (path, constructor) constraint resolves and matches."""

    anchor: str
    constraints: frozenset[tuple[SelectorPath, str]]


def _resolve(v: DtValue, path: SelectorPath) -> Optional[DtValue]:
    cur = v
    for tau, n in path:
        seen = 0
        nxt = None
        for ch in cur.children:
            if ch.dtype == tau:
                seen += 1
                if seen == n:
                    nxt = ch
                    break
        if nxt is None:
            return None
        cur = nxt
    return cur


def pattern_matches(p: BlockingPattern, v: DtValue) -> bool:
    if v.dtype != p.anchor:
        return False
    for path, cname in p.constraints:
        node = _resolve(v, path)
        if node is None or node.ctor != cname:
            return False
    return True


def _node_paths(v: DtValue) -> list[tuple[SelectorPath, DtValue]]:
    """All (selector path, node) pairs of a value, preorder."""
    out: list[tuple[SelectorPath, DtValue]] = [((), v)]
    counts: dict[str, int] = {}
    for ch in v.children:
        counts[ch.dtype] = counts.get(ch.dtype, 0) + 1
        step = (ch.dtype, counts[ch.dtype])
        out.extend(((step,) + sub, node) for sub, node in _node_paths(ch))
    return out


def make_blocking_pattern(v: DtValue) -> BlockingPattern:
    return BlockingPattern(
        anchor=v.dtype,
        constraints=frozenset((path, node.ctor)
                              for path, node in _node_paths(v)))


@dataclass(frozen=True)
class RewriterDup:
    key: str


@dataclass(frozen=True)
class SignatureDup:
    vector: tuple
    points: tuple


Justification = Union[RewriterDup, SignatureDup]


def _analog_with_holes(v: DtValue, family: DatatypeFamily,
                       dropped: set[SelectorPath]) -> tuple[Term, dict]:
    """Analog of ``v`` with each dropped subtree replaced by a fresh
    variable annotated (via the returned map) with its datatype."""
    annot: dict[str, str] = {}
    counter = itertools.count()

    def rec(u: DtValue, path: SelectorPath) -> Term:
        if path in dropped:
            name = f"_g{next(counter)}"
            annot[name] = u.dtype
            return Var(name, family.datatype(u.dtype).sort)
        c = family.constructor(u.dtype, u.ctor)
        if c.op is None:
            return c.leaf
        counts: dict[str, int] = {}
        args = []
        for ch in u.children:
            counts[ch.dtype] = counts.get(ch.dtype, 0) + 1
            args.append(rec(ch, path + ((ch.dtype, counts[ch.dtype]),)))
        return App(c.op, tuple(args))

    return rec(v, ()), annot


def _justified(v: DtValue, family: DatatypeFamily, just: Justification,
               dropped: set[SelectorPath]) -> bool:
    term, annot = _analog_with_holes(v, family, dropped)
    fresh = set(annot)
    if isinstance(just, RewriterDup):
        n = normalize(term)
        fv = {w.name for w in free_vars(n)} & fresh
        if not fv:
            return canonical_key(n) == just.key
        # The value collapses to one of its own subtrees; that subtree
        # must be admissible at the anchor position.
        return (isinstance(n, Var) and n.name in fresh
                and annot[n.name] == v.dtype)
    # Signature justification: the evaluation on every example point
    # must stay a constant equal to the recorded vector entry.
    for point, want in zip(just.points, just.vector):
        env = {p.name: (IntConst(a) if p.sort == INT else BoolConst(a))
               for p, a in zip(family.params, point)}
        r = normalize(substitute(term, env))
        if isinstance(r, IntConst):
            got: Value = r.value
        elif isinstance(r, BoolConst):
            got = r.value
        else:
            return False
        if got != want:
            return False
    return True


def generalize_pattern(v: DtValue, family: DatatypeFamily,
                       just: Justification) -> BlockingPattern:
    """Blocking pattern for ``v``, greedily widened by dropping every
    subtree the justification does not depend on."""
    paths = [path for path, _ in _node_paths(v) if path]
    paths.sort(key=lambda p: (-len(p), p))
    dropped: set[SelectorPath] = set()
    for cand in paths:
        if any(cand[:len(d)] == d for d in dropped):
            continue
        trial = dropped | {cand}
        if _justified(v, family, just, trial):
            dropped = trial
    constraints = []
    for path, node in _node_paths(v):
        if any(path[:len(d)] == d for d in dropped):
            continue
        constraints.append((path, node.ctor))
    return BlockingPattern(anchor=v.dtype,
                           constraints=frozenset(constraints))


def eager_patterns(family: DatatypeFamily) -> list[BlockingPattern]:
    """Startup symmetry breaking from static constructor analysis:
    additive identities and constant ite conditions."""
    out: list[BlockingPattern] = []
    for d in family.datatypes:
        for c in d.constructors:
            if c.op == "+" and c.arity() == 2:
                for zpos in (0, 1):
                    other = c.children[1 - zpos]
                    if other != d.name:
                        continue  # collapse would change the datatype
                    zdt = c.children[zpos]
                    occ = 1 + sum(1 for ch in c.children[:zpos]
                                  if ch == zdt)
                    for zc in family.datatype(zdt).constructors:
                        if zc.leaf == IntConst(0):
                            out.append(BlockingPattern(
                                anchor=d.name,
                                constraints=frozenset([
                                    ((), c.name),
                                    (((zdt, occ),), zc.name)])))
            if c.op == "ite" and c.arity() == 3:
                conddt, thendt, elsedt = c.children
                for cc in family.datatype(conddt).constructors:
                    if not isinstance(cc.leaf, BoolConst):
                        continue
                    branch = thendt if cc.leaf.value else elsedt
                    if branch != d.name:
                        continue
                    out.append(BlockingPattern(
                        anchor=d.name,
                        constraints=frozenset([
                            ((), c.name),
                            (((conddt, 1),), cc.name)])))
    return out


# ---------------------------------------------------------------------------
# Size-indexed pools


def _compositions(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


class Pools:
    """The grammar enumerator: the values of each datatype by size
    (non-nullary constructor count), each level composed from smaller
    levels of the children's datatypes, in constructor, size-split and
    child order. ``admit`` sees every composed value once and decides
    whether it joins its level; an exception it raises stops the
    enumeration."""

    def __init__(self, family: DatatypeFamily,
                 admit: Callable[[DtValue], bool]):
        self.family = family
        self.admit = admit
        self._levels: dict[tuple[str, int], list[DtValue]] = {}

    def level(self, dtname: str, size: int) -> list[DtValue]:
        got = self._levels.get((dtname, size))
        if got is not None:
            return got
        out: list[DtValue] = []
        for c in self.family.datatype(dtname).constructors:
            if c.arity() == 0:
                if size == 0:
                    v = DtValue(dtname, c.name)
                    if self.admit(v):
                        out.append(v)
                continue
            if size == 0:
                continue
            for split in _compositions(size - 1, c.arity()):
                parts = [self.level(d, s)
                         for d, s in zip(c.children, split)]
                if any(not p for p in parts):
                    continue
                for combo in itertools.product(*parts):
                    v = DtValue(dtname, c.name, combo)
                    if self.admit(v):
                        out.append(v)
        self._levels[(dtname, size)] = out
        return out

    def upto(self, dtname: str, max_size: int) -> Iterator[DtValue]:
        for size in range(max_size + 1):
            yield from self.level(dtname, size)


def _check_deadline(deadline: Optional[float],
                    stats: Optional[EnumStats] = None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimedOut(stats)


def smallest_terms(g: Grammar, max_size: int, nt: str,
                   deadline: Optional[float] = None) -> dict[str, Term]:
    """Canonical key -> the smallest term ``nt`` derives with that key,
    over the terms with at most ``max_size`` non-nullary applications.

    A value is admitted only when its key is new for its datatype, so
    each level is composed from one representative per normal form.
    Every level below ``max_size`` is built before any larger one, so
    the representative a key keeps is one of its smallest terms.
    Raises TimedOut once ``deadline`` (a time.monotonic() value) passes.
    """
    family = grammar_to_datatypes(g)
    terms: dict[str, dict[str, Term]] = \
        {d.name: {} for d in family.datatypes}

    def admit(v: DtValue) -> bool:
        _check_deadline(deadline)
        t = to_analog(v, family)
        key = canonical_key(t)
        seen = terms[v.dtype]
        if key in seen:
            return False
        seen[key] = t
        return True

    pools = Pools(family, admit)
    for size in range(max_size):
        for d in family.datatypes:
            pools.level(d.name, size)
    pools.level(nt, max_size)
    return terms[nt]


# ---------------------------------------------------------------------------
# Enumeration session


@dataclass
class EnumStats:
    enumerated: int = 0
    retained: int = 0
    pruned_rewriter: int = 0
    pruned_signature: int = 0
    blocked_exact: int = 0
    counterexample_points: int = 0

    def consistent(self) -> bool:
        return self.enumerated == (self.retained + self.pruned_rewriter
                                   + self.pruned_signature
                                   + self.blocked_exact)


class EnumSession:
    """State of one enumerative search: the candidate database and the
    blocking-pattern store, which decide what the search's pools admit."""

    def __init__(self, family: DatatypeFamily, *,
                 sb_rewriter: bool = True,
                 points: Optional[list] = None,
                 eager: bool = True,
                 trace: Optional[Callable[[str], None]] = None):
        self.family = family
        self.sb_rewriter = sb_rewriter
        self.points = points
        self.trace = trace or (lambda msg: None)
        self.stats = EnumStats()
        self.patterns: list[BlockingPattern] = \
            eager_patterns(family) if eager else []
        self.keys: dict[str, dict[str, DtValue]] = \
            {d.name: {} for d in family.datatypes}
        self.sigs: dict[str, dict[tuple, str]] = \
            {d.name: {} for d in family.datatypes}

    # -- candidate admission ------------------------------------------------

    def blocked(self, v: DtValue) -> bool:
        return any(pattern_matches(p, v) for p in self.patterns
                   if p.anchor == v.dtype)

    def process(self, v: DtValue) -> str:
        """Admit or prune one composed value; returns the decision."""
        self.stats.enumerated += 1
        if self.blocked(v):
            self.stats.blocked_exact += 1
            self.trace(f"blocked {self._show(v)}")
            return "blocked"
        analog = to_analog(v, self.family)
        key = canonical_key(analog)
        if self.sb_rewriter and key in self.keys[v.dtype]:
            self.stats.pruned_rewriter += 1
            self.trace(f"pruned-rewriter {self._show(v)} -> {key}")
            self.patterns.append(generalize_pattern(
                v, self.family, RewriterDup(key)))
            return "pruned_rewriter"
        if self.points is not None:
            sig = signature_of(v, self.family, self.points)
            if sig in self.sigs[v.dtype]:
                self.stats.pruned_signature += 1
                self.trace(f"pruned-signature {self._show(v)} -> {sig}")
                self.patterns.append(generalize_pattern(
                    v, self.family,
                    SignatureDup(sig, tuple(tuple(p)
                                            for p in self.points))))
                return "pruned_signature"
            self.sigs[v.dtype][sig] = key
        self.stats.retained += 1
        self.keys[v.dtype][key] = v
        return "retained"

    def _show(self, v: DtValue) -> str:
        if not v.children:
            return v.ctor
        return "{}({})".format(v.ctor,
                               ", ".join(self._show(c) for c in v.children))

    def candidates(self, max_size: int,
                   deadline: Optional[float] = None) -> Iterator[DtValue]:
        """Retained start-datatype values in size order. Raises TimedOut
        once ``deadline`` (a time.monotonic() value) passes while a
        level is being built."""

        def admit(v: DtValue) -> bool:
            _check_deadline(deadline, self.stats)
            return self.process(v) == "retained"

        return Pools(self.family, admit).upto(self.family.start, max_size)


# ---------------------------------------------------------------------------
# The solve loop


@dataclass
class EnumOptions:
    max_size: int = 6
    sb_rewriter: bool = True
    sb_examples: bool = True
    trace: Optional[Callable[[str], None]] = None
    deadline: Optional[float] = None  # time.monotonic() cutoff


def solve_enum(p: SynthProblem, family: DatatypeFamily,
               opts: Optional[EnumOptions] = None
               ) -> tuple[Solution, EnumStats]:
    """Enumerate candidates until one satisfies the conjecture.

    Raises Exhausted when the size cap is reached and TimedOut when
    ``opts.deadline`` passes.
    """
    opts = opts or EnumOptions()
    if len(p.functions) != 1:
        raise ValueError("enumeration handles a single function")
    f = p.functions[0]
    points = None
    if opts.sb_examples:
        cls = classify(p)
        if isinstance(cls, IOExamples) and cls.points:
            points = [ins for ins, _ in cls.points]
    session = EnumSession(family, sb_rewriter=opts.sb_rewriter,
                          points=points, trace=opts.trace)
    cex: list[dict] = []
    params = f.param_vars()
    for v in session.candidates(opts.max_size, opts.deadline):
        _check_deadline(opts.deadline, session.stats)
        body = to_analog(v, family)
        sol = {f.name: Lambda(params, body)}
        spec = apply_solution(p, sol)
        ok = True
        for env in cex:
            if not evaluate(spec, env):
                ok = False
                break
        if not ok:
            continue
        res = check_sat(normalize(not_(spec)))
        if isinstance(res, Unsat):
            return sol, session.stats
        model = dict(res.model)
        for u in p.universals:
            model.setdefault(u.name, 0 if u.sort == INT else False)
        cex.append({u.name: model[u.name] for u in p.universals})
        session.stats.counterexample_points += 1
    raise Exhausted(opts.max_size, session.stats)
