#!/usr/bin/env python3
"""perf_track — span-measured latency regression tracking.

Runs the pinned workload matrix (``repro.obs.perf.PERF_MATRIX``)
through the hierarchical tracer, aggregates per-layer latency
attribution, and writes or checks ``BENCH_perf.json`` at the repo
root.  The simulation is deterministic, so ``--check`` compares the
committed baseline *exactly* by default — any drift in the measured
timeline (a layer got slower, a retry appeared, attribution moved
between user/kernel/device) fails CI.

Usage:
    python scripts/perf_track.py --write            # refresh baseline
    python scripts/perf_track.py --check            # compare (CI)
    python scripts/perf_track.py --check --tolerance 0.01
    python scripts/perf_track.py --write --only sync-4k-randread
    python scripts/perf_track.py --write --quick --json /tmp/q.json

Exit status: 0 on success / no drift, 1 on drift or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.perf import (  # noqa: E402
    PERF_MATRIX,
    QUICK_MATRIX,
    collect_perf,
    compare_perf,
)

DEFAULT_JSON = REPO_ROOT / "BENCH_perf.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_track.py",
        description="Write or check the span-measured perf baseline.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="run the matrix and (re)write the baseline")
    mode.add_argument("--check", action="store_true",
                      help="run the matrix and compare to the baseline")
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON,
                        metavar="PATH",
                        help=f"baseline path (default {DEFAULT_JSON})")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="restrict to named configs (repeatable)")
    parser.add_argument("--quick", action="store_true",
                        help="use the tiny smoke-test matrix")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        metavar="REL",
                        help="relative tolerance for --check "
                             "(default 0.0: exact)")
    args = parser.parse_args(argv)

    matrix = QUICK_MATRIX if args.quick else PERF_MATRIX
    try:
        payload = collect_perf(matrix, names=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, wl in payload["workloads"].items():
        print(f"{name}: mean {wl['mean_ns']:.0f} ns  "
              f"p99 {wl['p99_ns']} ns  "
              f"user/kernel/device "
              f"{wl['user_ns']:.0f}/{wl['kernel_ns']:.0f}/"
              f"{wl['device_ns']:.0f} ns")

    if args.write:
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {args.json}")
        return 0

    if not args.json.exists():
        print(f"error: baseline {args.json} not found "
              "(run with --write first)", file=sys.stderr)
        return 1
    expected = json.loads(args.json.read_text(encoding="utf-8"))
    if args.only:
        expected = {**expected,
                    "workloads": {k: v
                                  for k, v in expected["workloads"].items()
                                  if k in set(args.only)}}
    problems = compare_perf(expected, payload,
                            tolerance=args.tolerance)
    if problems:
        print(f"perf drift vs {args.json}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        print("If intentional, refresh with: "
              "python scripts/perf_track.py --write", file=sys.stderr)
        return 1
    print(f"no drift vs {args.json} "
          f"({len(payload['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
