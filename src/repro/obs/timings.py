"""Machine-readable benchmark timing records (``bench-timings.json``).

The experiment runner (:mod:`repro.bench.runner`) measures two clocks
per job: host wall time (how long the orchestrator waited) and
simulated time (the sum of ``machine.now`` over every machine the
experiment built).  The first is host-dependent and gated within a
band; the second is the deterministic "size" of the experiment and is
identical across hosts.

A registry run also records each experiment's result table
(``ResultTable.to_dict()``; ``null`` for a failed experiment) and the
interpreter minor that computed it, since float sums may differ across
minors.  That makes the committed ``bench-timings.json`` the one
record of every figure: ``scripts/perf_gate.py`` compares a fresh run
with it exactly, ``benchmarks/`` asserts the paper's shape claims on
its rows, and ``scripts/generate_experiments.py`` renders
EXPERIMENTS.md from it.  Sweep timing records carry no tables.

The on-disk schema is versioned and deliberately flat so shell tooling
(``jq``, ``scripts/perf_gate.py``, ``scripts/ci_summary.py``) can
consume it without importing the simulator::

    {
      "schema": 1,
      "tree": "<sha256 of src/repro>",
      "jobs": 1,
      "start_method": "",
      "python": "3.11",
      "total_wall_s": 12.5,
      "experiments": [
        {"experiment": "fig6", "wall_s": 3.1, "sim_time_ns": 812000,
         "machines": 30, "cached": false, "ok": true,
         "table": {"title": ..., "headers": [...], "rows": [...],
                   "notes": ..., "counters": {...}}},
        ...
      ]
    }

``experiments`` is sorted by experiment name, so two dumps of the same
run diff cleanly; only the ``wall_s``/``total_wall_s`` fields are
host-dependent.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

__all__ = ["TIMINGS_SCHEMA", "JobTiming", "write_timings",
           "load_timings", "slowest"]

TIMINGS_SCHEMA = 1


@dataclass(frozen=True)
class JobTiming:
    """One experiment's cost, as measured by the runner."""

    experiment: str
    wall_s: float          # host wall-clock (0.0 for cache hits)
    sim_time_ns: int       # total simulated time across built machines
    machines: int          # machines the experiment constructed
    cached: bool           # served from the result cache
    ok: bool               # experiment completed without raising

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["wall_s"] = round(self.wall_s, 4)
        return d


def write_timings(path: Union[str, Path],
                  timings: Sequence[JobTiming], *,
                  tree: str = "",
                  jobs: int = 1,
                  start_method: str = "",
                  total_wall_s: float = 0.0,
                  tables: Optional[Mapping[str, Optional[dict]]] = None
                  ) -> str:
    """Write a timings dump; returns the path written.

    ``tables`` maps each experiment to its ``ResultTable.to_dict()``
    (None when it failed); given, every entry carries its ``table``
    and the header the interpreter minor.
    """
    entries = []
    for t in sorted(timings, key=lambda t: t.experiment):
        entry = t.to_dict()
        if tables is not None:
            entry["table"] = tables.get(t.experiment)
        entries.append(entry)
    payload = {
        "schema": TIMINGS_SCHEMA,
        "tree": tree,
        "jobs": jobs,
        "start_method": start_method,
        "total_wall_s": round(total_wall_s, 4),
        "experiments": entries,
    }
    if tables is not None:
        payload["python"] = (f"{sys.version_info.major}."
                             f"{sys.version_info.minor}")
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                 encoding="utf-8")
    return str(p)


def load_timings(path: Union[str, Path]) -> Dict[str, object]:
    """Load a timings dump, validating the schema version."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != TIMINGS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported timings schema {schema!r} "
            f"(expected {TIMINGS_SCHEMA})")
    return data


def slowest(data: Dict[str, object], n: int = 10) -> List[dict]:
    """The ``n`` slowest experiment entries by wall time (ties by
    name, so the listing is deterministic)."""
    experiments: List[dict] = list(data.get("experiments", []))  # type: ignore
    experiments.sort(key=lambda e: (-float(e.get("wall_s", 0.0) or 0.0),
                                    str(e.get("experiment", ""))))
    return experiments[:n]
