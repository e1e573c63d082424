"""Spans around the calls into each synthlia module, from outside.

Each wrapped function is replaced under the name its calling module
imported it by (``synthlia.cegqi.check_sat``, ...), so only calls that
cross a module boundary are traced; recursion inside one module is
not. A span records its name, start, end, parent span and problem id
in flat arrays, kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array


def _sat_label(result) -> str:
    return "unsat" if type(result).__name__ == "Unsat" else "sat"


def _bool_label(result) -> str:
    # are_equivalent / check_valid answer True when the negation is unsat.
    return "unsat" if result else "sat"


# (layer.function@caller, owner attribute path, attribute). The owner is
# the importing module, or the class whose method is wrapped.
SPANS = [
    ("classify.classify@driver", "driver", "classify"),
    ("classify.to_single_invocation@driver", "driver",
     "to_single_invocation"),
    ("classify.to_first_order@driver", "driver", "to_first_order"),
    ("classify.classify@enumsearch", "enumsearch", "classify"),
    ("cegqi.solve_cegqi@driver", "driver", "solve_cegqi"),
    ("cegqi.select_terms@cegqi", "cegqi", "select_terms"),
    ("cegqi.extract_solution@driver", "driver", "extract_solution"),
    ("cegqi.reconstruct@driver", "driver", "reconstruct"),
    ("problem.terms_upto@cegqi", "problem.Grammar", "terms_upto"),
    ("problem.apply_solution@enumsearch", "enumsearch", "apply_solution"),
    ("enumsearch.default_grammar@driver", "driver", "default_grammar"),
    ("enumsearch.grammar_to_datatypes@driver", "driver",
     "grammar_to_datatypes"),
    ("enumsearch.solve_enum@driver", "driver", "solve_enum"),
    ("enumsearch.process@enumsearch", "enumsearch.EnumSession", "process"),
    ("enumsearch.generalize_pattern@enumsearch", "enumsearch",
     "generalize_pattern"),
    ("enumsearch.signature_of@enumsearch", "enumsearch", "signature_of"),
    ("qfsolver.check_sat@cegqi", "cegqi", "check_sat"),
    ("qfsolver.are_equivalent@cegqi", "cegqi", "are_equivalent"),
    ("qfsolver.check_sat@enumsearch", "enumsearch", "check_sat"),
    ("qfsolver.check_valid@driver", "driver", "check_valid"),
    ("rewrite.normalize@cegqi", "cegqi", "normalize"),
    ("rewrite.canonical_key@cegqi", "cegqi", "canonical_key"),
    ("rewrite.normalize@enumsearch", "enumsearch", "normalize"),
    ("rewrite.canonical_key@enumsearch", "enumsearch", "canonical_key"),
    ("terms.evaluate@cegqi", "cegqi", "evaluate"),
    ("terms.evaluate@enumsearch", "enumsearch", "evaluate"),
]
# Spans whose result is tallied as "<span name>!<label>".
LABELS = [
    ("qfsolver.check_sat@cegqi", _sat_label),
    ("qfsolver.are_equivalent@cegqi", _bool_label),
    ("qfsolver.check_sat@enumsearch", _sat_label),
    ("qfsolver.check_valid@driver", _bool_label),
]
# Called once per pattern per candidate: counted, not spanned.
COUNTS = [("enumsearch.pattern_matches", "enumsearch", "pattern_matches")]

ROOT = "driver.solve"
PARSE = "sygus.parse_problem"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.problem = array("i")
        self.stack = [-1]
        self.problem_id = -1
        self.counts: dict[str, int] = {}
        self.outcomes: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span and return its result. An exception
        is tallied as "<name>!<exception class>" and re-raised."""
        nid = self._id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.problem.append(self.problem_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            key = f"{name}!{type(e).__name__}"
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, label=None):
        if label is None:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self.note(f"{name}!{label(result)}")
                return result
        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        self.counts[name] = 0
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        counted.__wrapped__ = fn
        return counted

    def note(self, key: str, n: int = 1) -> None:
        self.outcomes[key] = self.outcomes.get(key, 0) + n

    def install(self, modules: dict) -> None:
        """Replace every seam in ``modules`` (short name -> module)."""
        labels = dict(LABELS)
        for name, owner, attr in SPANS:
            obj = _resolve(modules, owner)
            setattr(obj, attr, self.wrap(name, getattr(obj, attr),
                                         labels.get(name)))
        for name, owner, attr in COUNTS:
            obj = _resolve(modules, owner)
            setattr(obj, attr, self.counter(name, getattr(obj, attr)))

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans nest strictly (one thread), so the part of a span its
        children cover is the sum of their durations.
        """
        n = len(self.start)
        child = [0.0] * n
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            if parent[i] >= 0:
                child[parent[i]] += d
            k = name[i]
            calls[k] += 1
            incl[k] += d
            own[k] += d - child[i]
        return {self.names[k]: {"calls": calls[k], "s": incl[k],
                                "self_s": own[k]}
                for k in range(len(self.names))}

    def write(self, path: str) -> None:
        """Spans as JSON lines: one header, then one span per line."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names,
                                "fields": ["name", "start", "end",
                                           "parent", "problem"]}) + "\n")
            for i in range(len(self.start)):
                f.write(f"{self.name[i]} {self.start[i]:.9f} "
                        f"{self.end[i]:.9f} {self.parent[i]} "
                        f"{self.problem[i]}\n")


def _resolve(modules: dict, path: str):
    head, *rest = path.split(".")
    obj = modules[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj
