#!/usr/bin/env python3
"""Engine microbenchmark: hot-path ops/sec, new engine vs reference.

    python benchmarks/bench_engine.py [--ops N] [--json engine-bench.json]

Times three pure simulator loops on both the overhauled
:mod:`repro.sim.engine` and the frozen pre-overhaul copy in
:mod:`repro.sim.engine_reference` (imported directly — no environment
switch needed), plus one full-stack loop (fio ops through a whole
``Machine``) on each engine via a ``REPRO_ENGINE`` subprocess:

- ``pure-timeout``   — one process yielding a constant timeout N times:
  the no-observer fast path plus the current-bucket queue, nothing else;
- ``timer-wheel``    — N timers with delays straddling every queue
  boundary (instant / bucket / ring / far-heap), posted in batches and
  drained: the calendar-queue placement and migration paths;
- ``event-churn``    — N bare events succeeded and drained in batches:
  the freelist recycle rate;
- ``full-stack``     — fio 4k random reads on the bypassd engine through
  the whole machine model, reported as simulated IOs per wall second.

Each loop is timed ``REPEATS`` times per engine, the engine that goes
first alternating round by round, and the best timing of each engine is
reported: contention only ever slows a timing.  The range of the
per-round ratios is printed beside the ratio of the bests, so a change
smaller than that range reads as noise.

Not a pytest suite on purpose: CI runs it as a standalone step and
uploads the JSON artifact, which ``scripts/ci_summary.py
--engine-bench`` renders into the job summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim import engine, engine_reference  # noqa: E402

SCHEMA = "engine-bench/v1"
REPEATS = 9  # timings per loop and engine


def pure_timeout(sim_cls, n: int) -> int:
    sim = sim_cls()

    def body():
        for _ in range(n):
            yield sim.timeout(100)

    sim.process(body())
    sim.run()
    return n


def timer_wheel(sim_cls, n: int) -> int:
    # Deterministic LCG so both engines see the same delay sequence.
    delays = (0, 1, 17, 1023, 1024, 2048, 9973, 262_143, 262_145,
              1_000_000)
    sim = sim_cls()
    state = 0x2545F491
    posted = 0
    while posted < n:
        for _ in range(min(256, n - posted)):
            state = (state * 6364136223846793005 + 1442695040888963407) \
                % (1 << 64)
            sim.timeout(delays[state % len(delays)])
            posted += 1
        sim.run()
    return n


def event_churn(sim_cls, n: int) -> int:
    sim = sim_cls()
    done = 0
    while done < n:
        for _ in range(min(512, n - done)):
            sim.event().succeed()
            done += 1
        sim.run()
    return n


def full_stack(n: int) -> int:
    """fio ops through the whole machine on the *active* engine (the
    one ``REPRO_ENGINE`` selects for this interpreter)."""
    from repro import GiB, Machine
    from repro.apps.fio import FioJob, run_fio

    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False)
    job = FioJob(engine="bypassd", rw="randread", block_size=4096,
                 file_size=8 << 20, threads=2, processes=2,
                 ops_per_thread=n // 4, seed=7)
    run_fio(m, job)
    return (n // 4) * 4


def _time(fn, *args) -> float:
    """ops/sec of one call of ``fn(*args)``, which returns its ops."""
    t0 = time.perf_counter()
    ops = fn(*args)
    dt = time.perf_counter() - t0
    return ops / dt if dt > 0 else float("inf")


def _best_of(time_new, time_ref) -> dict:
    """Best rate of each engine over ``REPEATS`` rounds, alternating
    which engine runs first, and the range of the per-round ratios."""
    new, ref = [], []
    for i in range(REPEATS):
        sides = [(time_new, new), (time_ref, ref)]
        for timer, rates in sides[::-1] if i % 2 else sides:
            rates.append(timer())
    ratios = [n / r for n, r in zip(new, ref)]
    return {"new_ops_per_sec": round(max(new), 1),
            "ref_ops_per_sec": round(max(ref), 1),
            "speedup": round(max(new) / max(ref), 2),
            "speedup_min": round(min(ratios), 2),
            "speedup_max": round(max(ratios), 2)}


def _full_stack_subprocess(reference: bool, n: int) -> float:
    """ops/sec for the full-stack loop in a fresh interpreter, so the
    ``REPRO_ENGINE`` switch can select the engine Machine binds to."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_ENGINE", None)
    if reference:
        env["REPRO_ENGINE"] = "reference"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--inner-full-stack", str(n)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=1800, check=True)
    return float(proc.stdout.strip())


PURE_LOOPS = [
    ("pure-timeout", pure_timeout),
    ("timer-wheel", timer_wheel),
    ("event-churn", event_churn),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench_engine", description=__doc__)
    ap.add_argument("--ops", type=int, default=200_000,
                    help="operations per pure loop (default 200000)")
    ap.add_argument("--full-stack-ops", type=int, default=40_000,
                    help="fio ops for the full-stack loop (short runs "
                         "are warmup-dominated and read as noise)")
    ap.add_argument("--json", type=Path, default=None,
                    help="write the artifact JSON here as well")
    ap.add_argument("--inner-full-stack", type=int, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.inner_full_stack is not None:
        print(f"{_time(full_stack, args.inner_full_stack):.1f}")
        return 0

    rows = []
    for name, fn in PURE_LOOPS:
        rows.append({"name": name, "ops": args.ops, **_best_of(
            lambda: _time(fn, engine.Simulator, args.ops),
            lambda: _time(fn, engine_reference.Simulator, args.ops))})
    n = args.full_stack_ops
    rows.append({"name": "full-stack", "ops": n, **_best_of(
        lambda: _full_stack_subprocess(False, n),
        lambda: _full_stack_subprocess(True, n))})

    doc = {"schema": SCHEMA, "benchmarks": rows}
    for r in rows:
        print(f"{r['name']:<14} new={r['new_ops_per_sec']:>12,.0f}/s "
              f"ref={r['ref_ops_per_sec']:>12,.0f}/s "
              f"speedup={r['speedup']:.2f}x "
              f"(rounds {r['speedup_min']:.2f}-{r['speedup_max']:.2f}x)")
    if args.json:
        args.json.write_text(json.dumps(doc, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
