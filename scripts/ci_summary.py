#!/usr/bin/env python3
"""Merge sharded CI results into one GitHub Actions job summary.

    python scripts/ci_summary.py results/**/*.xml \
        --timings bench-timings.json >> "$GITHUB_STEP_SUMMARY"

Reads the junit XML files the shard jobs uploaded (one per shard; the
label is derived from the file name), renders a per-shard pass/fail
table, and appends the slowest experiments — from the runner's
``bench-timings.json`` when available, otherwise from the junit test
durations.  Plain GitHub-flavoured markdown on stdout; exits 0 even
for red shards (the shard jobs themselves carry the failure status —
this tool only reports).
"""

from __future__ import annotations

import argparse
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.timings import load_timings, slowest  # noqa: E402


def parse_junit(path: Path) -> Dict[str, object]:
    """Totals + per-test durations from one junit XML file."""
    root = ET.parse(path).getroot()
    suites = root.iter("testsuite") if root.tag == "testsuites" else [root]
    totals = {"tests": 0, "failures": 0, "errors": 0, "skipped": 0,
              "time": 0.0}
    cases: List[Dict[str, object]] = []
    for suite in suites:
        for key in ("tests", "failures", "errors", "skipped"):
            totals[key] += int(suite.get(key, 0) or 0)
        totals["time"] += float(suite.get("time", 0.0) or 0.0)
        for case in suite.iter("testcase"):
            cases.append({
                "name": f"{case.get('classname', '')}::"
                        f"{case.get('name', '')}",
                "time": float(case.get("time", 0.0) or 0.0),
                "failed": case.find("failure") is not None
                or case.find("error") is not None,
            })
    return {"label": path.stem, "totals": totals, "cases": cases}


def shard_table(shards: List[Dict[str, object]]) -> List[str]:
    lines = ["| shard | tests | failed | errors | skipped | time (s) "
             "| status |",
             "|---|---:|---:|---:|---:|---:|---|"]
    for s in shards:
        t = s["totals"]
        red = t["failures"] + t["errors"]
        status = "✅ pass" if red == 0 else "❌ fail"
        lines.append(
            f"| {s['label']} | {t['tests']} | {t['failures']} "
            f"| {t['errors']} | {t['skipped']} | {t['time']:.1f} "
            f"| {status} |")
    return lines


def slowest_from_timings(path: Path, n: int) -> List[str]:
    data = load_timings(path)
    lines = [f"| experiment | wall (s) | sim time (ms) | machines "
             "| cached |",
             "|---|---:|---:|---:|---|"]
    for e in slowest(data, n):
        lines.append(
            f"| {e.get('experiment')} | {e.get('wall_s', 0.0):.2f} "
            f"| {float(e.get('sim_time_ns', 0)) / 1e6:.1f} "
            f"| {e.get('machines', 0)} "
            f"| {'yes' if e.get('cached') else 'no'} |")
    return lines


def slowest_from_junit(shards: List[Dict[str, object]],
                       n: int) -> List[str]:
    cases: List[Dict[str, object]] = []
    for s in shards:
        for c in s["cases"]:
            cases.append({**c, "shard": s["label"]})
    cases.sort(key=lambda c: (-float(c["time"]), str(c["name"])))
    lines = ["| test | shard | time (s) |", "|---|---|---:|"]
    for c in cases[:n]:
        lines.append(f"| `{c['name']}` | {c['shard']} "
                     f"| {float(c['time']):.1f} |")
    return lines


def engine_bench_section(path: Path) -> List[str]:
    """Render the ``benchmarks/bench_engine.py --json`` artifact: hot-path
    ops/sec for the overhauled engine vs the frozen reference."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"_could not read engine bench {path}: {exc}_"]
    lines = ["### Engine hot-path ops/sec", "",
             "| loop | ops | new (ops/s) | reference (ops/s) "
             "| speedup |",
             "|---|---:|---:|---:|---:|"]
    for b in data.get("benchmarks", []):
        lines.append(
            f"| {b.get('name')} | {b.get('ops', 0):,} "
            f"| {float(b.get('new_ops_per_sec', 0.0)):,.0f} "
            f"| {float(b.get('ref_ops_per_sec', 0.0)):,.0f} "
            f"| {float(b.get('speedup', 0.0)):.2f}x |")
    return lines


def exemplars_section(path: Path, n: int = 3) -> List[str]:
    """Render the top tail exemplars from a ``*.exemplars.json``
    artifact (per-tenant dumps from
    :func:`repro.obs.exemplar.exemplars_json`)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"_could not read exemplars {path}: {exc}_"]
    merged = [ex for tid in sorted(data) for ex in data[tid]]
    merged.sort(key=lambda ex: (-int(ex.get("duration_ns", 0)),
                                int(ex.get("start_ns", 0)),
                                int(ex.get("tid", 0))))
    lines = [f"### Top {n} tail exemplars", ""]
    if not merged:
        lines.append("_no ops crossed the tail threshold_")
        return lines
    lines += ["| op | tenant | duration (ns) | threshold (ns) "
              "| wait (ns) |",
              "|---|---:|---:|---:|---:|"]
    for ex in merged[:n]:
        by_kind = (ex.get("waterfall") or {}).get("by_kind", {})
        wait = sum(v for k, v in by_kind.items() if k != "service")
        lines.append(
            f"| `{ex.get('op')}` | {ex.get('tid')} "
            f"| {int(ex.get('duration_ns', 0)):,} "
            f"| {int(ex.get('threshold_ns', 0)):,} | {wait:,} |")
    return lines


def lint_section(path: Path) -> List[str]:
    """Render simlint counts (``simlint --json`` output) so the
    baseline burn-down trend is visible per run."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"_could not read lint report {path}: {exc}_"]
    violations = data.get("violations", [])
    by_rule: Dict[str, int] = {}
    for v in violations:
        by_rule[v.get("rule", "?")] = by_rule.get(v.get("rule", "?"), 0) + 1
    lines = ["### simlint", "",
             f"- files checked: {data.get('files_checked', 0)}",
             f"- new violations: {len(violations)}",
             f"- baselined (burn-down backlog): "
             f"{data.get('baselined', 0)}"]
    if by_rule:
        lines += ["", "| rule | new violations |", "|---|---:|"]
        for rule in sorted(by_rule):
            lines.append(f"| {rule} | {by_rule[rule]} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ci_summary", description=__doc__)
    ap.add_argument("junit", nargs="+", type=Path,
                    help="junit XML files, one per shard")
    ap.add_argument("--timings", type=Path, default=None,
                    help="bench-timings.json for the slowest-N table")
    ap.add_argument("--lint", type=Path, default=None,
                    help="simlint --json report for the lint/baseline "
                         "counts section")
    ap.add_argument("--engine-bench", type=Path, default=None,
                    help="bench_engine.py JSON artifact for the "
                         "hot-path ops/sec section")
    ap.add_argument("--exemplars", type=Path, default=None,
                    help="*.exemplars.json artifact for the top tail "
                         "exemplars section")
    ap.add_argument("--title", default="Sharded CI results")
    ap.add_argument("--slowest", type=int, default=10)
    args = ap.parse_args(argv)

    shards = []
    for path in sorted(args.junit):
        if not path.exists():
            print(f"warning: missing junit file {path}", file=sys.stderr)
            continue
        shards.append(parse_junit(path))
    out = [f"## {args.title}", ""]
    if shards:
        out.extend(shard_table(shards))
    else:
        out.append("_no junit results found_")
    out.append("")
    out.append(f"### Slowest {args.slowest} experiments")
    out.append("")
    if args.timings is not None and args.timings.exists():
        out.extend(slowest_from_timings(args.timings, args.slowest))
    elif shards:
        out.extend(slowest_from_junit(shards, args.slowest))
    else:
        out.append("_no timing data_")
    if args.engine_bench is not None:
        out.append("")
        out.extend(engine_bench_section(args.engine_bench))
    if args.exemplars is not None:
        out.append("")
        out.extend(exemplars_section(args.exemplars))
    if args.lint is not None:
        out.append("")
        out.extend(lint_section(args.lint))
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
