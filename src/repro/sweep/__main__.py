"""CLI for the scenario sweep engine.

::

    python -m repro.sweep list     [--manifest M] [--grid G]
    python -m repro.sweep run      [--grid G] [--jobs N] [--out F] ...
    python -m repro.sweep baseline [--from-results F] [--out F] ...
    python -m repro.sweep compare  --baseline F --results F ...
    python -m repro.sweep gate     --baseline F [--grid G] ...

``run`` executes a grid through the bench runner's cache-aware pool
(``--jobs N`` is byte-identical to serial; a warm cache executes zero
simulations) and dumps one record per cell.  ``gate`` is the CI
entry: run, compare against the committed baseline, write dashboard
artifacts, and exit non-zero on any out-of-tolerance cell — with the
per-layer blame line on stderr.

Exit codes: 0 clean; 1 regression/missing cell (gate); 2 a cell
failed to execute.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..bench import runner
from ..obs.timings import write_timings
from . import compare as cmp_mod
from .grid import SweepManifest, apply_injections, load_manifest, \
    parse_injection
from .jobs import build_job, run_sweep_point

RESULTS_SCHEMA = cmp_mod.RESULTS_SCHEMA


def _manifest(args: argparse.Namespace) -> SweepManifest:
    path = Path(args.manifest) if args.manifest else None
    return load_manifest(path)


def run_grid(manifest: SweepManifest, grid: str, *,
             jobs: Any = 1,
             cache_dir: Optional[str] = runner.DEFAULT_CACHE_DIR,
             injections: Optional[List[str]] = None,
             cells: Optional[List[str]] = None,
             start_method: Optional[str] = None,
             err=None) -> Tuple[Dict[str, Any], List[runner.JobResult],
                                int]:
    """Execute every cell of ``grid`` (or the ``cells`` subset — how a
    sharded CI job runs its ``ci_shard.py --kind cells`` slice);
    returns (results_doc, job_results, n_workers).

    The results document is deterministic — records only, no tree
    hash, fingerprints, or wall-clock — so two runs of an unchanged
    grid (serial, parallel, or warm-cache) dump identical bytes.
    """
    err = sys.stderr if err is None else err
    parsed = [parse_injection(text) for text in (injections or [])]
    expanded = manifest.expand(grid)
    if cells is not None:
        wanted = set(cells)
        unknown = wanted - {p.cell for p in expanded}
        if unknown:
            raise KeyError(
                f"cells not in grid {grid!r}: "
                f"{', '.join(sorted(unknown))}")
        expanded = [p for p in expanded if p.cell in wanted]
    points = apply_injections(expanded, parsed)
    tree = runner.source_tree_hash()
    payloads = [build_job(point, tree, effective_faults=spec)
                for point, spec in points]
    cache = (runner.ResultCache(cache_dir)
             if cache_dir is not None else None)
    results, n_workers = runner.execute_jobs(
        payloads, worker=run_sweep_point, cache=cache, jobs=jobs,
        start_method=start_method)
    cells: Dict[str, Dict[str, Any]] = {}
    for (point, _), job, res in zip(points, payloads, results):
        if res.ok:
            cells[point.cell] = res.payload["record"]
            if cache is not None and not res.cached:
                cache.put(res.fingerprint, res.payload)
        status = "cached" if res.cached else (
            f"{res.payload.get('timing', {}).get('wall_s', 0.0):.1f}s"
            if res.ok else "ERROR")
        err.write(f"[{point.cell}: {status}]\n")
    doc = {
        "schema": RESULTS_SCHEMA,
        "grid": grid,
        "cells": {cell: cells[cell] for cell in sorted(cells)},
    }
    return doc, results, n_workers


def _report_failures(results: List[runner.JobResult], err) -> int:
    failed = [r for r in results if not r.ok]
    for r in failed:
        err.write(f"error: sweep cell {r.experiment} failed\n")
        err.write(r.payload["error"])
    return len(failed)


def _write_timings(path, results: List[runner.JobResult], *,
                   jobs: int, start_method: str,
                   total_wall_s: float) -> None:
    tree = results[0].payload.get("tree", "") if results else ""
    write_timings(path, [r.timing for r in results], tree=tree,
                  jobs=jobs, start_method=start_method,
                  total_wall_s=total_wall_s)


def _cmd_list(args: argparse.Namespace) -> int:
    manifest = _manifest(args)
    grids = [args.grid] if args.grid else manifest.grid_names()
    for grid in grids:
        cells = manifest.cells(grid)
        print(f"{grid}: {len(cells)} cells")
        for cell in cells:
            print(f"  {cell}")
    return 0


def _run_common(args: argparse.Namespace, err
                ) -> Tuple[int, Dict[str, Any],
                           List[runner.JobResult]]:
    """Shared run step for ``run``/``baseline``/``gate``; returns
    (exit_code, results_doc, job_results)."""
    manifest = _manifest(args)
    cache_dir = None if args.no_cache else args.cache
    t0 = time.monotonic()  # simlint: ignore[SIM001]
    doc, results, n_workers = run_grid(
        manifest, args.grid, jobs=args.jobs, cache_dir=cache_dir,
        injections=args.inject, cells=args.cell or None,
        start_method=args.start_method, err=err)
    if args.timings:
        _write_timings(args.timings, results, jobs=n_workers,
                       start_method=args.start_method or "",
                       total_wall_s=time.monotonic() - t0)  # simlint: ignore[SIM001]
    if _report_failures(results, err):
        return 2, doc, results
    cached = sum(1 for r in results if r.cached)
    err.write(f"[sweep {args.grid}: {len(results)} cells, "
              f"{cached} cached, {len(results) - cached} executed]\n")
    return 0, doc, results


def _cmd_run(args: argparse.Namespace) -> int:
    code, doc, _ = _run_common(args, sys.stderr)
    if args.out:
        cmp_mod.write_json(args.out, doc)
    else:
        cmp_mod.write_json("/dev/stdout", doc)
    return code


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.from_results:
        doc = cmp_mod.load_json(args.from_results)
        manifest = _manifest(args)
        # Filter to the target grid so a wider run (nightly) can
        # refresh a narrower committed baseline.
        wanted = set(manifest.cells(args.grid))
        have = set(doc.get("cells", {}))
        missing = sorted(wanted - have)
        if missing:
            sys.stderr.write(
                "error: results are missing grid cells:\n" + "".join(
                    f"  {cell}\n" for cell in missing))
            return 2
        doc = {"schema": RESULTS_SCHEMA, "grid": args.grid,
               "cells": {cell: doc["cells"][cell]
                         for cell in sorted(wanted)}}
        code = 0
    else:
        code, doc, _ = _run_common(args, sys.stderr)
        if code:
            return code
    cmp_mod.write_json(args.out, cmp_mod.baseline_from_results(doc))
    sys.stderr.write(f"[baseline: {len(doc['cells'])} cells -> "
                     f"{args.out}]\n")
    return code


def _finish_compare(report: Dict[str, Any],
                    args: argparse.Namespace) -> None:
    if args.report:
        cmp_mod.write_json(args.report, report)
    if args.markdown:
        Path(args.markdown).write_text(
            cmp_mod.render_markdown(report), encoding="utf-8")


def _cmd_compare(args: argparse.Namespace) -> int:
    manifest = _manifest(args)
    baseline = cmp_mod.load_json(args.baseline)
    current = cmp_mod.load_json(args.results)
    report = cmp_mod.compare_results(baseline, current,
                                     manifest.tolerances)
    _finish_compare(report, args)
    sys.stdout.write(cmp_mod.render_text(report))
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    manifest = _manifest(args)
    code, doc, _ = _run_common(args, sys.stderr)
    if code:
        return code
    if args.out:
        cmp_mod.write_json(args.out, doc)
    baseline = cmp_mod.load_json(args.baseline)
    report = cmp_mod.compare_results(baseline, doc,
                                     manifest.tolerances)
    _finish_compare(report, args)
    if not report["ok"]:
        sys.stderr.write(cmp_mod.render_text(report))
        return 1
    sys.stdout.write(cmp_mod.render_text(report))
    return 0


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", default="default",
                   help="grid name from the manifest")
    p.add_argument("--jobs", default=1,
                   help="worker processes: N or 'auto'")
    p.add_argument("--cache", default=runner.DEFAULT_CACHE_DIR,
                   help="result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate; never read or write cache")
    p.add_argument("--start-method", default=None,
                   choices=("fork", "spawn", "forkserver"))
    p.add_argument("--timings", default=None,
                   help="write sweep timing records (JSON)")
    p.add_argument("--inject", action="append", default=[],
                   metavar="AXES:FAULTSPEC",
                   help="seeded regression: replace the fault plan of "
                        "matching cells, e.g. "
                        "'engine=bypassd:seed=7,media_read_error_nth=12'")
    p.add_argument("--cell", action="append", default=[],
                   metavar="CELL_ID",
                   help="run only this grid cell (repeatable; the "
                        "ci_shard.py --kind cells slice)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="scenario sweeps with baseline compare and "
                    "per-layer regression blame")
    parser.add_argument("--manifest", default=None,
                        help="sweep manifest JSON (default: "
                             "./sweep-manifest.json, else the committed one)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list grids and their cells")
    p.add_argument("--grid", default=None)
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="execute a grid, dump records")
    _add_run_args(p)
    p.add_argument("--out", default=None,
                   help="results JSON path (default: stdout)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("baseline",
                       help="write a baseline manifest from a run")
    _add_run_args(p)
    p.add_argument("--from-results", default=None,
                   help="shape the baseline from an existing results "
                        "dump instead of running")
    p.add_argument("--out", default="sweep-baseline.json")
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("compare",
                       help="diff a results dump against a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--report", default=None,
                   help="write the full compare report (JSON)")
    p.add_argument("--markdown", default=None,
                   help="write the dashboard heat table (markdown)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("gate",
                       help="run + compare; exit 1 on regression")
    _add_run_args(p)
    p.add_argument("--baseline", default="sweep-baseline.json")
    p.add_argument("--out", default=None,
                   help="also dump the run's results JSON")
    p.add_argument("--report", default=None)
    p.add_argument("--markdown", default=None)
    p.set_defaults(fn=_cmd_gate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
