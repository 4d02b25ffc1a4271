#!/usr/bin/env python3
"""Export observability artifacts for CI upload.

Default mode runs the README quickstart workload on a monitored,
traced machine and writes these files into ``--out`` (default
``artifacts/``):

- ``quickstart.trace.json`` — Chrome trace with Perfetto counter
  tracks for every telemetry gauge and submission->completion flow
  arrows (load at https://ui.perfetto.dev),
- ``quickstart.stacks.txt`` — collapsed stacks for flamegraph.pl
  or speedscope,
- ``quickstart.telemetry.json`` — the telemetry dump (gauge series,
  summaries, SLO state),
- ``quickstart.waterfalls.json`` / ``.txt`` — the per-op latency
  waterfalls (exact wait/service decomposition of every op),
- ``quickstart.exemplars.json`` — tail exemplars: full span trees
  retained for the slowest ops per tenant.

``--bench`` mode instead runs the full experiment matrix through
:mod:`repro.bench.runner` (honouring ``--jobs``/``--monitor``) and
bundles every result for artifact upload:

- ``bench/report.txt`` — the merged paper-figure report, byte
  identical to a serial ``python -m repro.bench all`` run,
- ``bench/<experiment>.json`` — each experiment's machine-readable
  payload (ResultTable rows/counters, telemetry counts, timing),
- ``bench/bench-timings.json`` — per-experiment wall/sim-time records
  (the file scripts/ci_shard.py balances shards with).

Everything is deterministic, so two CI runs of the same commit upload
byte-identical artifacts (timing fields aside).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import GiB, Machine  # noqa: E402


def quickstart_machine() -> Machine:
    """The README quickstart workload, traced and monitored."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                trace=True, monitor=True)
    proc = m.spawn_process("app")
    lib = m.userlib(proc)
    t = proc.new_thread("app-0")

    def body():
        f = yield from lib.open(t, "/data", write=True, create=True)
        yield from f.append(t, 8192, b"x" * 8192)
        for i in range(4):
            yield from f.pread(t, (i * 2048) % 8192, 4096)
        yield from f.pwrite(t, 0, 4096)
        yield from f.fsync(t)
        yield from f.close(t)

    m.run_process(body())
    return m


def export_quickstart(out: Path) -> int:
    from repro.obs.attribution import (render_waterfalls,
                                       waterfalls_json)
    from repro.obs.exemplar import (ExemplarConfig, capture_exemplars,
                                    exemplars_json)

    out.mkdir(parents=True, exist_ok=True)
    m = quickstart_machine()
    trace = out / "quickstart.trace.json"
    stacks = out / "quickstart.stacks.txt"
    telemetry = out / "quickstart.telemetry.json"
    m.write_chrome_trace(trace, flows=True)
    m.write_flamegraph(stacks)
    m.write_telemetry(telemetry)

    waterfalls = out / "quickstart.waterfalls.json"
    waterfalls.write_text(waterfalls_json(m.tracer) + "\n",
                          encoding="utf-8")
    waterfalls_txt = out / "quickstart.waterfalls.txt"
    waterfalls_txt.write_text(render_waterfalls(m.tracer),
                              encoding="utf-8")

    # The quickstart is short, so warm up fast and keep a small window
    # — enough for the CI summary's "top tail exemplars" section.
    exemplars = out / "quickstart.exemplars.json"
    per_tenant = capture_exemplars(
        m.tracer, ExemplarConfig(percentile=90.0, capacity=3, warmup=4))
    exemplars.write_text(exemplars_json(per_tenant) + "\n",
                         encoding="utf-8")

    for path in (trace, stacks, telemetry, waterfalls, waterfalls_txt,
                 exemplars):
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


def export_bench(out: Path, jobs: str, monitor: bool,
                 experiments=None) -> int:
    from repro.bench.runner import registry_names, run_experiments

    bench = out / "bench"
    bench.mkdir(parents=True, exist_ok=True)
    names = list(experiments) if experiments else registry_names()
    merged = io.StringIO()
    report = run_experiments(
        names, jobs=jobs, monitor=monitor,
        timings_path=bench / "bench-timings.json",
        out=merged, err=sys.stderr)
    (bench / "report.txt").write_text(merged.getvalue(),
                                      encoding="utf-8")
    for r in report.results:
        path = bench / f"{r.experiment}.json"
        path.write_text(json.dumps(r.payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    written = sorted(bench.iterdir())
    for path in written:
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    if not report.ok:
        for r in report.failures:
            print(f"error: experiment {r.experiment} failed",
                  file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="export_artifacts.py",
        description="Write CI artifact bundles: the quickstart "
                    "trace/flamegraph/telemetry (default) or the full "
                    "benchmark result bundle (--bench).")
    parser.add_argument("--out", type=Path, default=Path("artifacts"),
                        metavar="DIR", help="output directory")
    parser.add_argument("--bench", action="store_true",
                        help="export the full experiment matrix "
                             "(report + per-experiment payloads + "
                             "timings) instead of quickstart artifacts")
    parser.add_argument("--jobs", default="1", metavar="N|auto",
                        help="worker processes for --bench (default 1)")
    parser.add_argument("--monitor", action="store_true",
                        help="run --bench experiments with continuous "
                             "telemetry monitoring")
    parser.add_argument("--experiments", nargs="*", metavar="NAME",
                        help="subset of experiments for --bench "
                             "(default: all public)")
    args = parser.parse_args(argv)

    if args.bench:
        return export_bench(args.out, args.jobs, args.monitor,
                            args.experiments)
    return export_quickstart(args.out)


if __name__ == "__main__":
    sys.exit(main())
