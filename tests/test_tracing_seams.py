"""The benchmark's tracer wraps synthlia functions by name from outside
(perfbench/tracing.py); every name it wraps must exist, so a rename
fails here instead of in a traced benchmark run."""

import importlib.util
from pathlib import Path

import synthlia.cegqi
import synthlia.driver
import synthlia.enumsearch
import synthlia.problem
import synthlia.rewrite

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The modules perfbench/child.py hands to Tracer.install, by short name.
MODULES = {"driver": synthlia.driver, "cegqi": synthlia.cegqi,
           "enumsearch": synthlia.enumsearch, "problem": synthlia.problem}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_seam_resolves():
    tracing = load_tracing()
    seams = tracing.SPANS + tracing.COUNTS
    assert len(seams) > 20
    # The owner is resolved as Tracer.install resolves it.
    missing = [f"{owner}.{attr}" for _, owner, attr in seams
               if not callable(getattr(tracing._resolve(MODULES, owner),
                                       attr, None))]
    assert not missing


def test_normalize_memo_is_readable():
    # perfbench/child.py reports the memo's size through cache_info().
    info = synthlia.rewrite.normalize.cache_info()
    assert info.currsize >= 0
