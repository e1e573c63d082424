"""The benchmark reads the solver's counters out of ``solve(...).stats``
by name (perfbench/run.py); every name it reads must be there on each
route, so a renamed counter fails here instead of silently zeroing a
per-layer metric."""

import re
from pathlib import Path

import pytest

from synthlia.driver import solve

from helpers import load_golden

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def read_keys() -> list[str]:
    return sorted(set(re.findall(r'stats\.get\("([^"]+)"',
                                 RUN.read_text())))


@pytest.mark.parametrize("name,strategy", [
    ("between.sy", "cegqi"),
    ("between_grammar.sy", "cegqi+reconstruction"),
    ("max_sym.sy", "enum"),
    ("io_points.sy", "enum"),
])
def test_every_counter_the_benchmark_reads_is_reported(name, strategy):
    keys = read_keys()
    assert len(keys) > 5
    out = solve(load_golden(name))
    assert out.strategy == strategy
    assert not [k for k in keys if k not in out.stats]
