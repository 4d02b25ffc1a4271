#!/usr/bin/env python3
"""event_sites — engine events posted per op, by posting call site.

    python scripts/event_sites.py --workload ycsb-a-wiredtiger [--seed 101]

Runs one rep of a perfbench workload (``perfbench/workloads.py``, read
only) under a profile hook that counts the events the engine posts from
the start gate to the rep's return, keyed by the innermost caller of the
engine's posting primitives (``timeout``, ``succeed``, ``process``...)
after the innermost frame outside ``repro.sim`` that led there.  Prints
events per op; the total is perfbench's ``sim.events_per_op``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from probes import RepProbe  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIM = ROOT / "src" / "repro" / "sim"
PRIMITIVES = {"_post_fast", "_post_slow", "succeed", "fail", "timeout",
              "event", "__init__"}
RUN_LOOP = {"_run_fast", "_run_slow"}
# Every posted event goes through one of these (Simulator._seq += 1).
POSTS = {Simulator._post_fast.__code__, Simulator._post_slow.__code__}


def call_site(frame) -> str:
    """``origin > site`` for the frame that called the engine's post."""
    site = origin = None
    while frame is not None and frame.f_code.co_name not in RUN_LOOP:
        code = frame.f_code
        path = Path(code.co_filename).resolve()
        where = f"{path.parent.name}/{path.name}:{code.co_name}"
        if site is None and not (path.parent == SIM
                                 and code.co_name in PRIMITIVES):
            site = where
        if path.parent != SIM:
            origin = where
            break
        frame = frame.f_back
    return site if origin in (None, site) else f"{origin} > {site}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="event_sites", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sites: Counter = Counter()

    def on_call(frame, event, _arg) -> None:
        if event == "call" and frame.f_code in POSTS:
            sites[call_site(frame.f_back)] += 1

    with RepProbe(on_gate=lambda: sys.setprofile(on_call)) as probe:
        try:
            workload.rep(args.seed, probe)
        finally:
            sys.setprofile(None)
    ops = workload.ops
    print(f"{args.workload} seed {args.seed}: {ops} ops")
    for site, n in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n / ops:9.3f}  {site}")
    print(f"{sum(sites.values()) / ops:9.3f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
