#!/usr/bin/env python3
"""trace_diff — attribute a latency regression between two runs.

Loads two Chrome traces (``Machine.write_chrome_trace``), aligns
their ops, and reports where the latency delta lives: per-layer
(span category) self-time deltas — each split by stamped wait state
(``wait.arbiter``, ``wait.journal_commit``, ...) versus service —
plus the synthetic ``retry`` layer that captures extra device
attempts and their backoff gaps.

Usage:
    python scripts/trace_diff.py baseline.trace.json current.trace.json
    python scripts/trace_diff.py --json out.json base.json cur.json
    python scripts/trace_diff.py --machine base.json cur.json  # JSON to stdout

Exit status: 0 on success, 1 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.diff import diff_dumps, render_diff  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace_diff.py",
        description="Diff two Chrome traces and attribute the "
                    "latency delta per layer.")
    parser.add_argument("baseline", type=Path,
                        help="baseline Chrome trace")
    parser.add_argument("current", type=Path,
                        help="current Chrome trace of the same workload")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the machine-readable result here")
    parser.add_argument("--machine", action="store_true",
                        help="print the JSON result instead of the "
                             "human summary")
    parser.add_argument("--top", type=int, default=None, metavar="N",
                        help="show only the N largest layer deltas")
    args = parser.parse_args(argv)

    try:
        result = diff_dumps(args.baseline, args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    if args.machine:
        print(text)
    else:
        print(render_diff(result, top=args.top))
        if args.json:
            print(f"machine-readable result: {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
