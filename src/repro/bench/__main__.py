"""Command-line benchmark runner.

    python -m repro.bench list
    python -m repro.bench table1 fig6 fig9
    python -m repro.bench all

Parallel + cached regeneration (see docs/bench_runner.md):

    python -m repro.bench all --jobs auto --cache
    python -m repro.bench fig6 fig9 --jobs 4 --timings bench-timings.json

``--jobs N`` fans experiments out over N worker processes; the merged
output is byte-identical to a serial run.  ``--cache`` keeps results in
``.bench-cache/`` keyed by a content fingerprint (source tree + config)
so an unchanged experiment is replayed instead of re-simulated;
``--no-cache`` forces fresh simulation.  ``--timings`` writes the
per-experiment record — wall time, simulated time and result table —
that ``scripts/perf_gate.py`` compares against the committed
``bench-timings.json``.

Fault injection applies to any experiment without code changes:

    python -m repro.bench --faults seed=7,media_error_rate=0.001 fig6

arms a per-job injector (same plan seed in every job, so the schedule
is deterministic regardless of --jobs) and prints the summed fault
totals after the runs (the counters also land in each table's footer
when the experiment attaches machine stats).

Continuous telemetry works the same way:

    python -m repro.bench --monitor fig10

installs an ambient monitor config (queue-depth and backlog SLOs) so
every Machine the experiments build attaches a sampler; after each
experiment a telemetry section — representative sparklines plus the
SLO breach table — is appended to the report.

A failing experiment no longer takes the exit status down with it
silently: every failure is reported on stderr, the remaining targets
still run, and the process exits nonzero.

Parameter *sweeps* — engine × workload × fault-plan grids with a
baseline-compare gate and per-layer regression blame — live in the
sibling CLI ``python -m repro.sweep`` (see docs/sweeps.md); its cells
flow through this runner's cache and worker pool.
"""

from __future__ import annotations

import argparse
import sys

from ..faults import FaultPlan
from . import runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures from the BypassD paper.")
    parser.add_argument("targets", nargs="+",
                        help="experiment names, 'list', or 'all'")
    parser.add_argument(
        "--jobs", default="1", metavar="N",
        help="worker processes ('auto' = CPU count; default 1). The "
             "merged output is byte-identical to a serial run.")
    parser.add_argument(
        "--cache", nargs="?", const=runner.DEFAULT_CACHE_DIR,
        default=None, metavar="DIR",
        help="enable the content-addressed result cache "
             f"(default dir: {runner.DEFAULT_CACHE_DIR})")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="force fresh simulation even if --cache is given")
    parser.add_argument(
        "--timings", default=None, metavar="PATH",
        help="write per-experiment wall/sim-time records and result "
             "tables (bench-timings.json schema) to PATH")
    parser.add_argument(
        "--start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for --jobs > 1 "
             "(default: platform default)")
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault-injection spec applied to every machine the "
             "experiments build, e.g. "
             "seed=7,media_error_rate=0.001,drop_rate=0.0001 "
             "(see repro.faults.FaultPlan.parse)")
    parser.add_argument(
        "--monitor", action="store_true",
        help="attach a telemetry sampler (with queue-depth/backlog "
             "SLOs) to every machine and append a telemetry section "
             "per experiment")
    args = parser.parse_args(argv)

    if args.targets == ["list"]:
        for name in runner.registry_names():
            print(name)
        return 0

    targets = (runner.registry_names() if args.targets == ["all"]
               else args.targets)
    known = set(runner.registry_names(include_hidden=True))
    unknown = [t for t in targets if t not in known]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(runner.registry_names())}",
              file=sys.stderr)
        return 2

    if args.faults is not None:
        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
    try:
        jobs = runner.resolve_jobs(args.jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    cache_dir = None if args.no_cache else args.cache
    report = runner.run_experiments(
        targets,
        jobs=jobs,
        cache_dir=cache_dir,
        faults=args.faults,
        monitor=args.monitor,
        start_method=args.start_method,
        timings_path=args.timings,
    )
    if not report.ok:
        failed = ", ".join(r.experiment for r in report.failures)
        print(f"{len(report.failures)} experiment(s) failed: {failed}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
