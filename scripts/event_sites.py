#!/usr/bin/env python3
"""event_sites — engine events posted per op, by posting call site.

    python scripts/event_sites.py --workload ycsb-a-wiredtiger [--seed 101]

Runs one rep of a perfbench workload (``perfbench/workloads.py``, read
only) under a profile hook that watches ``Simulator._seq`` (bumped once
per posted event) from the start gate to the rep's return.  Each bump
is charged to the innermost frame outside the engine's posting
primitives (``timeout``, ``succeed``, ``process``...), after the
innermost frame outside ``repro.sim`` that led there.  The fast path
posts inline in ``timeout`` and ``succeed``, so counting bumps rather
than calls into one post function misses none.  Prints events per op;
the total is the ``_seq`` delta, perfbench's ``sim.events_per_op``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from probes import RepProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIM = ROOT / "src" / "repro" / "sim"
PRIMITIVES = {"_post_fast", "_post_slow", "_place", "succeed", "fail",
              "timeout", "event", "__init__"}
RUN_LOOP = {"_run_fast", "_run_slow"}


def call_site(frame) -> str:
    """``origin > site`` for the frame that posted (or its primitive)."""
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


def count_sites(workload, seed: int) -> Tuple[Counter, int]:
    """Events posted per call site over one rep's timed window, and the
    ``Simulator._seq`` delta over the same window."""
    sites: Counter = Counter()
    sim = start = last = None

    def on_event(frame, _event, _arg) -> None:
        nonlocal last
        if sim._seq != last:
            # The first profile event after a bump still runs inside
            # the posting primitive (its next call, or its return).
            sites[call_site(frame)] += sim._seq - last
            last = sim._seq

    def on_gate() -> None:
        nonlocal sim, start, last
        sim = probe.machine.sim
        start = last = sim._seq
        sys.setprofile(on_event)

    with RepProbe(on_gate=on_gate) as probe:
        try:
            workload.rep(seed, probe)
        finally:
            sys.setprofile(None)
    return sites, sim._seq - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="event_sites", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sites, events = count_sites(workload, args.seed)
    ops = workload.ops
    print(f"{args.workload} seed {args.seed}: {ops} ops")
    for site, n in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n / ops:9.3f}  {site}")
    print(f"{events / ops:9.3f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
