#!/usr/bin/env python3
"""perf_gate — fail CI when an experiment's results move or its wall
time regresses.

    python scripts/perf_gate.py fresh-timings.json \
        --baseline bench-timings.json [--markdown]

Compares a fresh ``--timings`` record (``python -m repro.bench all
--timings PATH`` writes one) against the committed baseline, experiment
by experiment.  Two checks run on the same record:

- **exact**: the deterministic fields — ``sim_time_ns``, ``machines``
  and the whole result table (title, headers, rows, notes, counters) —
  must equal the baseline.  Each difference is printed with its
  experiment, row, column and old → new value.  Table 2's rows are
  exempt (:data:`UNPINNED_ROWS`).
- **wall clock**: an experiment regresses when ``fresh > baseline *
  (1 + tolerance) + floor``; the floor keeps sub-second experiments
  (pure jitter) from tripping the gate, the relative band covers the
  real ones.  Per-experiment overrides in
  :data:`PER_EXPERIMENT_TOLERANCE` widen the band for known-noisy
  entries.  Improvements never fail the gate — they are listed so a
  deliberate speedup is visible and the baseline gets refreshed.

Exit status: 0 when no experiment moved, regressed, failed or went
missing, 1 otherwise.  With ``--markdown`` the comparison table is
printed as GitHub-flavoured markdown (for ``$GITHUB_STEP_SUMMARY``);
default output is plain text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.timings import load_timings  # noqa: E402

# Relative band every experiment gets.  Shared runners show ~2x wall
# time windows for the *same* experiment back to back (measured on the
# dev VM), so the band is +100%: loose enough to absorb host noise,
# tight enough to catch the accidental-O(n^2) class of regression.
DEFAULT_TOLERANCE = 1.00
# Absolute slack added on top — keeps millisecond experiments from
# failing on scheduler jitter alone.
DEFAULT_FLOOR_S = 0.50

# Wider bands for entries whose wall time is dominated by process
# fan-out or host I/O rather than the simulation loop.
PER_EXPERIMENT_TOLERANCE: Dict[str, float] = {
    "table4": 2.0,     # sub-millisecond: pure noise
    "fig5": 2.0,       # sub-millisecond: pure noise
    "table2": 2.0,     # milliseconds: pure noise
}


# Table 2 counts the lines of the source tree, which every change moves.
UNPINNED_ROWS = {"table2"}

FAILING = ("regressed", "failed", "missing", "moved")


def table_diffs(name: str, old: Optional[dict],
                new: Optional[dict]) -> List[str]:
    """Every difference between two ``ResultTable.to_dict()`` records,
    one line each, naming the experiment, row, column and values."""
    if old is None or new is None:
        side = "fresh run" if new is None else "baseline"
        return [f"{name}: no table in the {side}"]
    out = []
    for key in ("title", "headers", "notes", "counters"):
        if old.get(key) != new.get(key):
            out.append(f"{name}: {key}: {json.dumps(old.get(key))} -> "
                       f"{json.dumps(new.get(key))}")
    if name in UNPINNED_ROWS:
        return out
    old_rows, new_rows = old.get("rows", []), new.get("rows", [])
    if len(old_rows) != len(new_rows):
        out.append(f"{name}: {len(old_rows)} rows -> {len(new_rows)}")
    # A changed header count is reported above; cells pair by position.
    for i, (o, n) in enumerate(zip(old_rows, new_rows)):
        for col, ov, nv in zip(new.get("headers", []), o, n):
            if ov != nv:
                out.append(f"{name}: row {i} ({json.dumps(o[0])}), "
                           f"column {json.dumps(col)}: "
                           f"{json.dumps(ov)} -> {json.dumps(nv)}")
    return out


def pinned_diffs(name: str, fresh: dict, base: dict) -> List[str]:
    """Differences in an experiment's deterministic fields."""
    out = [f"{name}: {key}: {base.get(key)} -> {fresh.get(key)}"
           for key in ("sim_time_ns", "machines")
           if fresh.get(key) != base.get(key)]
    return out + table_diffs(name, base.get("table"), fresh.get("table"))


def compare(fresh: dict, baseline: dict, tolerance: float,
            floor_s: float) -> List[dict]:
    """Per-experiment verdicts, sorted by experiment name."""
    fresh_by = {e["experiment"]: e for e in fresh.get("experiments", [])}
    base_by = {e["experiment"]: e for e in baseline.get("experiments", [])}
    rows = []
    for name in sorted(set(fresh_by) | set(base_by)):
        f, b = fresh_by.get(name), base_by.get(name)
        if f is None or b is None:
            rows.append({"experiment": name, "status": "missing",
                         "fresh_s": f and f.get("wall_s"),
                         "base_s": b and b.get("wall_s"),
                         "detail": "fresh run" if f is None
                         else "baseline"})
            continue
        fw = float(f.get("wall_s", 0.0) or 0.0)
        bw = float(b.get("wall_s", 0.0) or 0.0)
        tol = PER_EXPERIMENT_TOLERANCE.get(name, tolerance)
        limit = bw * (1.0 + tol) + floor_s
        ratio = fw / bw if bw > 0 else float("inf")
        ok = f.get("ok", True)
        diffs = pinned_diffs(name, f, b) if ok else []
        if not ok:
            status = "failed"
        elif fw > limit:
            status = "regressed"
        elif diffs:
            status = "moved"
        elif fw < bw * 0.8:
            status = "improved"
        else:
            status = "ok"
        rows.append({"experiment": name, "status": status,
                     "fresh_s": fw, "base_s": bw, "ratio": ratio,
                     "limit_s": limit, "diffs": diffs})
    return rows


def render(rows: List[dict], markdown: bool,
           minors: Tuple[str, str] = ("", "")) -> str:
    """The comparison table, every moved field, a summary line and,
    when anything fails, a ``FAIL:`` line naming each experiment;
    ``minors`` is the (baseline, fresh) interpreter minor."""
    def fmt(x):
        return "-" if x is None else f"{x:.2f}"

    lines = []
    if markdown:
        lines += ["### perf gate", "",
                  "| experiment | baseline (s) | fresh (s) | ratio "
                  "| limit (s) | status |",
                  "|---|---:|---:|---:|---:|---|"]
        for r in rows:
            lines.append(
                f"| {r['experiment']} | {fmt(r.get('base_s'))} "
                f"| {fmt(r.get('fresh_s'))} "
                f"| {fmt(r.get('ratio'))} | {fmt(r.get('limit_s'))} "
                f"| {r['status']} |")
    else:
        for r in rows:
            lines.append(
                f"{r['experiment']:<12} base={fmt(r.get('base_s')):>8} "
                f"fresh={fmt(r.get('fresh_s')):>8} "
                f"ratio={fmt(r.get('ratio')):>6}  {r['status']}")
    diffs = [d for r in rows for d in r.get("diffs", [])]
    if diffs:
        lines += ["", "moved:"]
        if markdown:
            # Markdown joins plain lines into one paragraph.
            lines += [""] + [f"- {d}" for d in diffs]
        else:
            lines += [f"  {d}" for d in diffs]

    def count(*statuses):
        return sum(1 for r in rows if r["status"] in statuses)

    lines += ["", f"{len(rows)} experiments: "
                  f"{count('regressed', 'failed')} regressed/failed, "
                  f"{count('moved')} moved, {count('missing')} missing, "
                  f"{count('improved')} improved"]
    bad = [r["experiment"] for r in rows if r["status"] in FAILING]
    if bad:
        lines.append("FAIL: " + ", ".join(bad))
        if minors[0] != minors[1]:
            lines.append(f"baseline written by Python {minors[0]}, "
                         f"fresh run by Python {minors[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perf_gate", description=__doc__)
    ap.add_argument("fresh", type=Path,
                    help="timings JSON from the fresh run under test")
    ap.add_argument("--baseline", type=Path,
                    default=REPO_ROOT / "bench-timings.json",
                    help="committed baseline timings "
                         "(default: bench-timings.json)")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="relative band (0.5 = +50%% allowed)")
    ap.add_argument("--floor-s", type=float, default=DEFAULT_FLOOR_S,
                    help="absolute slack in seconds added to every band")
    ap.add_argument("--markdown", action="store_true",
                    help="GitHub-flavoured markdown output")
    args = ap.parse_args(argv)

    fresh = load_timings(args.fresh)
    baseline = load_timings(args.baseline)
    rows = compare(fresh, baseline, args.tolerance, args.floor_s)
    print(render(rows, args.markdown,
                 (baseline.get("python", "?"), fresh.get("python", "?"))))
    return 1 if any(r["status"] in FAILING for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
