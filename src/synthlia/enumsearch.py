"""Syntax-guided enumerative search.

Grammars are compiled into families of algebraic datatypes (flattening
non-atomic productions through auxiliary single-constructor datatypes
and dropping rules made redundant by the rewriter). Candidate solutions
are the terms of each datatype, enumerated bottom-up in order of
non-nullary constructor count: a composed term is one constructor's
operator applied to retained terms of its children's datatypes, so
subterms are shared. A candidate joins its level only when its
canonical key (simplified term) is new for its datatype, and, on an
example conjecture, its signature (its values at the example points,
composed from its children's) is new too. Levels hold retained terms
only, so these two tests are the whole of the symmetry breaking.

An input-output example conjecture is decided by the candidates'
signatures, with no solver call. Every other conjecture is
decided by counterexample-guided checks: a candidate is first evaluated
at the counterexample points under the interpretation of the unknown
function by the candidate, and only one that holds at all of them is
substituted into the conjecture and handed to the QF solver.
Reconstruction reads the same pools through ``KeyedPool``, which keeps
the smallest term per canonical key and samples by ``values_at`` too.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from .classify import IOExamples, classify
from .problem import (
    Grammar,
    GrammarError,
    Solution,
    SynthProblem,
    apply_solution,
)
from .qfsolver import TimedOut, Unsat, check_sat
from .rewrite import canonical_key, normalize
from .terms import (
    BOOL,
    INT,
    OP_VALUES,
    App,
    BoolConst,
    EvalError,
    FunSort,
    IntConst,
    Lambda,
    Term,
    Value,
    Var,
    evaluate,
    free_vars,
    not_,
    print_term,
    sort_of,
    substitute,
)


class Exhausted(Exception):
    """The enumeration hit its size cap without finding a solution."""

    def __init__(self, size_cap: int):
        super().__init__(f"search exhausted at size {size_cap}")
        self.size_cap = size_cap


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

    def __post_init__(self):
        # Lookup maps, built once; not dataclass fields, so equality and
        # hashing still see only the declared fields.
        object.__setattr__(self, "_datatypes",
                           {d.name: d for d in self.datatypes})
        object.__setattr__(self, "_constructors",
                           {(d.name, c.name): c for d in self.datatypes
                            for c in d.constructors})

    def datatype(self, name: str) -> Datatype:
        return self._datatypes[name]

    def constructor(self, dtname: str, cname: str) -> Constructor:
        return self._constructors[(dtname, cname)]


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


# The cache is sized by the grammars a process reuses. In the seed-1
# benchmark workloads io-enum's 306 solves compile 3 distinct grammars,
# so 303 compiles become hits; nonsi-enum's 120 grammars (fresh names)
# and si-portfolio's 85 are all distinct, so every lookup there misses
# and only the last 64 families stay held.
GRAMMAR_ENTRIES = 64


def grammar_to_datatypes(g: Grammar) -> DatatypeFamily:
    """The datatype family of ``g``, validated and minimized. Families
    are kept by the grammar's content in declaration order, so grammars
    that read alike share one family: it must not be mutated. Raises
    GrammarError when ``g`` fails validation, on every call."""
    return _compile(g.start, tuple(g.nonterminals.items()), g.rules,
                    g.params)


@lru_cache(maxsize=GRAMMAR_ENTRIES)
def _compile(start: str, nonterminals: tuple[tuple[str, str], ...],
             rules: tuple[tuple[str, Term], ...],
             params: tuple[Var, ...]) -> DatatypeFamily:
    g = Grammar(start, dict(nonterminals), rules, params)
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
# Evaluation


def values_at(t: Term, rows: list[dict[str, Value]],
              known: dict[int, tuple[Term, tuple]]) -> tuple:
    """The values of ``t`` at ``rows``: a leaf's evaluated, an App's
    composed from its arguments'. Each is kept in ``known``, one table
    per list of rows, by id with its term: no id is reused while kept."""
    got = known.get(id(t))
    if got is None:
        values = (map(OP_VALUES[t.op], *[values_at(a, rows, known)
                                          for a in t.args])
                  if isinstance(t, App) else
                  (evaluate(t, row) for row in rows))
        got = known[id(t)] = (t, tuple(values))
    return got[1]


def signature_of(t: Term, family: DatatypeFamily, points: list,
                 known: Optional[dict] = None) -> tuple:
    """Values of a candidate term at the example input points, composed
    in ``known``, ``values_at``'s table at these points (or a new one)."""
    if not points:
        raise ValueError("signature requires at least one point")
    names = [p.name for p in family.params]
    if any(len(point) != len(names) for point in points):
        raise ValueError("point arity does not match the formal parameters")
    return values_at(t, [dict(zip(names, point)) for point in points],
                     {} if known is None else known)


# ---------------------------------------------------------------------------
# Blocking patterns

# Unused by the search: kept while the benchmark's tracer wraps them.


@dataclass(frozen=True)
class DtValue:
    # The search enumerates terms, not constructor trees; this stays only
    # as the input type of the pattern functions the tracer wraps.
    dtype: str
    ctor: str
    children: tuple["DtValue", ...] = ()


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


@dataclass(frozen=True)
class RewriterDup:
    key: Term


@dataclass(frozen=True)
class SignatureDup:
    vector: tuple
    points: tuple


Justification = Union[RewriterDup, SignatureDup]


def _analog_with_holes(v: DtValue, analog: Term, family: DatatypeFamily,
                       dropped: set[SelectorPath]) -> tuple[Term, dict]:
    """``analog`` (the analog of ``v``) with each dropped subtree
    replaced by a fresh variable annotated (via the returned map) with
    its datatype; subterms with no hole below are shared, not copied."""
    annot: dict[str, str] = {}
    counter = itertools.count()
    above = {d[:i] for d in dropped for i in range(len(d))}

    def rec(u: DtValue, t: Term, path: SelectorPath) -> Term:
        if path in dropped:
            name = f"_g{next(counter)}"
            annot[name] = u.dtype
            return Var(name, family.datatype(u.dtype).sort)
        if path not in above:
            return t
        counts: dict[str, int] = {}
        args = []
        for ch, a in zip(u.children, t.args):
            counts[ch.dtype] = counts.get(ch.dtype, 0) + 1
            args.append(rec(ch, a, path + ((ch.dtype, counts[ch.dtype]),)))
        return App(t.op, tuple(args))

    return rec(v, analog, ()), annot


def _justified(v: DtValue, analog: Term, family: DatatypeFamily,
               just: Justification, dropped: set[SelectorPath]) -> bool:
    term, annot = _analog_with_holes(v, analog, family, dropped)
    if isinstance(just, RewriterDup):
        n = normalize(term)
        fresh = set(annot)
        fv = {w.name for w in free_vars(n)} & fresh
        if not fv:
            return canonical_key(n) == just.key
        # The value collapses to one of its own subtrees; that subtree
        # must be admissible at the anchor position.
        return (isinstance(n, Var) and n.name in fresh
                and annot[n.name] == v.dtype)
    # Signature justification: the evaluation on every example point
    # must equal the recorded vector entry. A hole is an unbound
    # variable, so an evaluation that reaches one fails.
    names = [p.name for p in family.params]
    for point, want in zip(just.points, just.vector):
        try:
            if evaluate(term, dict(zip(names, point))) != want:
                return False
        except EvalError:
            return False
    return True


def generalize_pattern(v: DtValue, analog: Term, family: DatatypeFamily,
                       just: Justification) -> BlockingPattern:
    """Blocking pattern for ``v`` (whose analog is ``analog``), greedily
    widened by dropping every subtree the justification does not
    depend on."""
    paths = [path for path, _ in _node_paths(v) if path]
    paths.sort(key=lambda p: (-len(p), p))
    dropped: set[SelectorPath] = set()
    for cand in paths:
        if any(cand[:len(d)] == d for d in dropped):
            continue
        trial = dropped | {cand}
        if _justified(v, analog, family, just, trial):
            dropped = trial
    constraints = []
    for path, node in _node_paths(v):
        if any(path[:len(d)] == d for d in dropped):
            continue
        constraints.append((path, node.ctor))
    return BlockingPattern(anchor=v.dtype,
                           constraints=frozenset(constraints))


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
    """The grammar enumerator: the terms of each datatype by size
    (non-nullary constructor count), each level composed from smaller
    levels of the children's datatypes, in constructor, size-split and
    child order. A composed term is built once over its children's
    terms, so subterms are shared. ``admit`` sees every composed
    (datatype name, term) once and decides whether the term joins its
    level; an exception it raises stops the enumeration."""

    def __init__(self, family: DatatypeFamily,
                 admit: Callable[[str, Term], bool]):
        self.family = family
        self.admit = admit
        self._levels: dict[tuple[str, int], list[Term]] = {}

    def level(self, dtname: str, size: int) -> list[Term]:
        got = self._levels.get((dtname, size))
        if got is not None:
            return got
        out: list[Term] = []
        if size == 0:
            for c in self.family.datatype(dtname).constructors:
                if c.arity() == 0 and self.admit(dtname, c.leaf):
                    out.append(c.leaf)
        for c, parts in self.compositions(dtname, size):
            for combo in itertools.product(*parts):
                t = App(c.op, combo)
                if self.admit(dtname, t):
                    out.append(t)
        self._levels[(dtname, size)] = out
        return out

    def compositions(self, dtname: str, size: int
                     ) -> Iterator[tuple[Constructor, list[list[Term]]]]:
        """What level ``size`` of ``dtname`` composes, in level order:
        per operator constructor and size split, the constructor and its
        children's levels; its candidates are the constructor over their
        product, in product order. Empty at size 0."""
        if size == 0:
            return
        for c in self.family.datatype(dtname).constructors:
            if c.arity() == 0:
                continue
            for split in _compositions(size - 1, c.arity()):
                parts = [self.level(d, s)
                         for d, s in zip(c.children, split)]
                if all(parts):
                    yield c, parts

    def upto(self, dtname: str, max_size: int) -> Iterator[Term]:
        for size in range(max_size + 1):
            yield from self.level(dtname, size)


Sample = tuple[list[dict[str, Value]], tuple]  # rows, values at the rows


class KeyedPool:
    """One grammar's keyed pool, grown as it is asked for sizes: the
    grammar's family is looked up on the first call (it is compiled
    once per process), and each (datatype, size) level is built and
    keyed once. A term is admitted only when its canonical key is new
    for its datatype, so each level is composed from one
    representative per normal form. The pool adds to the record of
    ``ctx`` as it works: ``recon_keyed`` counts the terms keyed,
    ``recon_scanned`` the budget-level candidates whose values a
    sampled call composed."""

    def __init__(self, g: Grammar, ctx: Optional[Context] = None):
        self.grammar = g
        self.ctx = ctx or Context()
        self._pools: Optional[Pools] = None
        # Per datatype: canonical key -> term, in level order; and the
        # number of keys after each built (datatype, size) level.
        self._keys: dict[str, dict[Term, Term]] = {}
        self._ends: dict[tuple[str, int], int] = {}
        self._layers = 0  # sizes below it are built for every datatype
        # values_at's tables, one per row set, by the rows' parameter
        # values: grammar terms mention no other variable.
        self._values: dict[tuple, dict[int, tuple[Term, tuple]]] = {}

    def smallest(self, max_size: int, nt: str,
                 sample: Optional[Sample] = None) -> dict[Term, Term]:
        """Canonical key -> the smallest term ``nt`` derives with that
        key, over the terms with at most ``max_size`` non-nullary
        applications, in level order. Every level below a size is built
        for every datatype before that size, so the representative a
        key keeps is one of its smallest terms, and the result does not
        depend on what earlier calls built.

        With ``sample`` = ``(rows, vector)``, only the terms whose values
        at the rows equal ``vector``. Below ``max_size``, the kept terms'
        values are composed by ``values_at`` in one table per row set, so
        each is composed once. At ``max_size``, each candidate's values
        are composed from its children's before any term is built: only
        a matching candidate becomes an ``App`` and is keyed, and the
        filtered level is not kept. Terms with equal keys are
        equivalent, so they agree at every row: the result is the
        unfiltered one restricted to the matching terms, in the same
        order. Every row binds the grammar's parameters.

        Raises TimedOut at the deadline of the pool's context.
        """
        if self._pools is None:
            family = grammar_to_datatypes(self.grammar)
            self._keys = {d.name: {} for d in family.datatypes}
            self._pools = Pools(family, self._admit)
        keys = self._keys[nt]
        if sample is None:
            self._complete(max_size)
            self._level(nt, max_size)
            return dict(itertools.islice(keys.items(),
                                         self._ends[(nt, max_size)]))
        rows, want = sample
        # Size 0 holds only leaves: they are filtered like the levels
        # below the budget, and nothing is composed at it.
        self._complete(max(max_size, 1))
        known = self._values.setdefault(
            tuple(tuple(row.get(p.name) for p in self.grammar.params)
                  for row in rows), {})
        below = self._ends[(nt, max(max_size - 1, 0))]
        out = {key: t for key, t in itertools.islice(keys.items(), below)
               if values_at(t, rows, known) == want}
        check, stats = self.ctx.check, self.ctx.stats
        for c, parts in self._pools.compositions(nt, max_size):
            values = OP_VALUES[c.op]
            value_parts = [[values_at(a, rows, known) for a in part]
                           for part in parts]
            for combo, vectors in zip(itertools.product(*parts),
                                      itertools.product(*value_parts)):
                check()
                stats.recon_scanned += 1
                if tuple(map(values, *vectors)) != want:
                    continue
                t = App(c.op, combo)
                stats.recon_keyed += 1
                out.setdefault(canonical_key(t), t)
        return out

    def _admit(self, dtname: str, t: Term) -> bool:
        self.ctx.check()
        self.ctx.stats.recon_keyed += 1
        key = canonical_key(t)
        seen = self._keys[dtname]
        if key in seen:
            return False
        seen[key] = t
        return True

    def _level(self, dtname: str, size: int) -> None:
        if (dtname, size) in self._ends:
            return
        keys = self._keys[dtname]
        mark = len(keys)
        try:
            self._pools.level(dtname, size)
        except BaseException:
            # A level the deadline cut short leaves no keys behind.
            for key in list(keys)[mark:]:
                del keys[key]
            raise
        self._ends[(dtname, size)] = len(keys)

    def _complete(self, layers: int) -> None:
        for size in range(self._layers, layers):
            for d in self._pools.family.datatypes:
                self._level(d.name, size)
            self._layers = size + 1


# ---------------------------------------------------------------------------
# Enumeration session


@dataclass
class SolveStats:
    """One solve's counts, in the order ``solve`` reports them. Each
    layer adds to the record where the counted event happens."""

    enumerated: int = 0
    pruned_rewriter: int = 0
    pruned_signature: int = 0
    # Always 0: the enumeration keeps no blocking patterns. The key
    # stays because perfbench/run.py reads it, and
    # tests/test_stats_keys.py pins what run.py reads.
    blocked_exact: int = 0
    retained: int = 0
    cegqi_iterations: int = 0
    counterexample_points: int = 0
    recon_keyed: int = 0
    recon_scanned: int = 0
    cegqi_conflicts: int = 0
    cegqi_pruned: int = 0

    def consistent(self) -> bool:
        return self.enumerated == (self.retained + self.pruned_rewriter
                                   + self.pruned_signature)


@dataclass
class Context:
    """One solve's deadline (a time.monotonic() value, or None), trace
    callback and count record. ``driver.solve`` makes one per solve;
    every layer takes it, and makes a fresh one when given none. A
    ``dataclasses.replace`` copy shares the trace and the record."""

    deadline: Optional[float] = None
    trace: Optional[Callable[[str], None]] = None
    stats: SolveStats = field(default_factory=SolveStats)

    def check(self) -> None:
        """Raise TimedOut once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimedOut("deadline passed")


class EnumSession:
    """State of one enumerative search: the canonical keys and example
    signatures retained per datatype, which decide what the search's
    pools admit. A composed term is retained only when its key is new
    for its datatype and, when there are example ``points``, so is its
    signature; there is no other pruning. ``sb_rewriter`` and
    ``sb_examples`` switch the two tests. The session adds its counts
    to the record of ``ctx``, traces each pruned term to its trace and
    stops at its deadline."""

    def __init__(self, family: DatatypeFamily,
                 ctx: Optional[Context] = None, *,
                 sb_rewriter: bool = True,
                 sb_examples: bool = True,
                 points: Optional[list] = None):
        self.family = family
        self.sb_rewriter = sb_rewriter
        self.sb_examples = sb_examples
        self.points = points
        self.ctx = ctx = ctx or Context()
        self.stats, self.trace = ctx.stats, ctx.trace
        # Per datatype: the canonical keys retained, and each signature
        # retained with its first retained term.
        self.keys: dict[str, set[Term]] = \
            {d.name: set() for d in family.datatypes}
        self.sigs: dict[str, dict[tuple, Term]] = \
            {d.name: {} for d in family.datatypes}
        # values_at's table at the points: a candidate's signature is
        # composed from its retained children's values.
        self.values: dict[int, tuple[Term, tuple]] = {}

    # -- candidate admission ------------------------------------------------

    def process(self, dtname: str, term: Term) -> str:
        """Admit or prune one composed term of datatype ``dtname``;
        returns the decision."""
        self.stats.enumerated += 1
        key = canonical_key(term)
        if self.sb_rewriter and key in self.keys[dtname]:
            self.stats.pruned_rewriter += 1
            if self.trace:
                self.trace(f"pruned-rewriter {print_term(term)} -> "
                           f"{print_term(key)}")
            return "pruned_rewriter"
        if self.points is not None:
            sig = signature_of(term, self.family, self.points, self.values)
            seen = self.sigs[dtname]
            if self.sb_examples and sig in seen:
                self.stats.pruned_signature += 1
                if self.trace:
                    self.trace(
                        f"pruned-signature {print_term(term)} -> {sig}")
                return "pruned_signature"
            seen.setdefault(sig, term)
        self.stats.retained += 1
        self.keys[dtname].add(key)
        return "retained"

    def candidates(self, max_size: int) -> Iterator[Term]:
        """Retained start-datatype terms, in size order. Raises TimedOut
        once the deadline passes while a level is being built."""
        check = self.ctx.check

        def admit(dtname: str, term: Term) -> bool:
            check()
            return self.process(dtname, term) == "retained"

        return Pools(self.family, admit).upto(self.family.start, max_size)


# ---------------------------------------------------------------------------
# The solve loop


def solve_enum(p: SynthProblem, family: DatatypeFamily,
               ctx: Optional[Context] = None, *,
               max_size: int = 6, sb_rewriter: bool = True,
               sb_examples: bool = True) -> tuple[Solution, SolveStats]:
    """Enumerate candidates of up to ``max_size`` until one satisfies
    the conjecture. ``sb_rewriter`` and ``sb_examples`` switch the
    rewriter and the example-signature pruning. The search adds its
    counts to the record of ``ctx`` and returns the record with the
    solution.

    An input-output example conjecture is decided by the candidates'
    signatures at its points, with no solver call; every other
    conjecture by counterexample-guided checks. A candidate is first
    evaluated at each counterexample point under the interpretation of
    the function by the candidate; only one that holds at every point
    is substituted into the conjecture (``apply_solution``) and checked
    by the solver.

    Raises Exhausted when the size cap is reached and TimedOut when
    the deadline of ``ctx`` passes, also inside a solver call.
    """
    if len(p.functions) != 1:
        raise ValueError("enumeration handles a single function")
    f = p.functions[0]
    cls = classify(p)
    points = want = None
    if isinstance(cls, IOExamples) and cls.points:
        points = [ins for ins, _ in cls.points]
        want = tuple(outs[0] for _, outs in cls.points)
    session = EnumSession(family, ctx, sb_rewriter=sb_rewriter,
                          sb_examples=sb_examples, points=points)
    cex: list[dict] = []
    params = f.param_vars()
    for body in session.candidates(max_size):
        session.ctx.check()
        if points is not None:
            # A level is admitted whole before its first term is
            # yielded, so the first match of the level is recorded.
            body = session.sigs[family.start].get(want)
            if body is None:
                continue
            return {f.name: Lambda(params, body)}, session.stats
        sol = {f.name: Lambda(params, body)}
        if any(not evaluate(p.constraint, env, sol) for env in cex):
            continue
        spec = apply_solution(p, sol)
        res = check_sat(normalize(not_(spec)), deadline=session.ctx.deadline)
        if isinstance(res, Unsat):
            return sol, session.stats
        model = dict(res.model)
        for u in p.universals:
            model.setdefault(u.name, 0 if u.sort == INT else False)
        cex.append({u.name: model[u.name] for u in p.universals})
        session.stats.counterexample_points += 1
    raise Exhausted(max_size)
