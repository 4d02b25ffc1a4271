"""Benchmark harness configuration.

Each benchmark checks one table or figure from the paper: it prints
the paper-style table and asserts the shape claims — who wins, by
roughly what factor, where the crossovers are.

Registry experiments are read from the committed ``bench-timings.json``
rather than simulated again: ``scripts/perf_gate.py`` proves a fresh
serial run reproduces those rows exactly, so the claims below hold for
the current tree.  A test that passes a callable instead of a registry
name runs it here: the ablations, experiments cheap enough to rebuild,
and Table 2, whose line counts the gate does not pin.
"""

from pathlib import Path

import pytest

from repro.bench.report import ResultTable
from repro.obs.timings import load_timings

RECORD = Path(__file__).resolve().parent.parent / "bench-timings.json"


@pytest.fixture(scope="session")
def recorded_tables():
    """Registry name -> the committed record's table dict."""
    return {e["experiment"]: e["table"]
            for e in load_timings(RECORD)["experiments"]}


@pytest.fixture
def experiment(recorded_tables):
    """``experiment("fig6-write")`` loads a registry experiment's
    table from the record; ``experiment(fn)`` runs ``fn()``."""
    def load(source):
        if callable(source):
            table = source()
        else:
            table = ResultTable.from_dict(recorded_tables[source])
        table.show()
        return table

    return load
