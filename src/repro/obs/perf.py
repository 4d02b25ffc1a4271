"""Span-measured latency breakdowns and the perf-tracking matrix.

:func:`measure_breakdown` is the one code path behind the paper-facing
latency attribution: it runs a fio-shaped loop on a traced machine
with a *clean measurement window* (setup, open and warm-up happen
before ``tracer.clear()``), then folds the window's per-op waterfalls
(:mod:`repro.obs.attribution`) into per-op layer times.
``bench.experiments.table1_latency_breakdown`` and
``fig7_latency_breakdown`` build their tables from it, and
``scripts/perf_track.py`` runs the pinned :data:`PERF_MATRIX` through
it to write/compare ``BENCH_perf.json`` so CI flags latency-attribution
drift.

Attribution (ns/op over the measurement window) is the waterfall fold
of :func:`repro.obs.attribution.fold_sides`: every nanosecond of an op
belongs to the span that owned it, and ``syscall``/``kernel`` spans
count as ``kernel``, ``device``/``nvme`` spans as ``device``, and
everything else (the ``op`` root, UserLib's ``user`` spans) as
``user``.  The three sides add up to the mean latency on every engine,
including io_uring, whose SQ poller's work is kernel time.
``layers`` are the per-label means of the ``kernel`` segments
(``mode-switch-enter``, ``vfs-ext4``, ``block-layer``, ``nvme-driver``,
``mode-switch-exit``, io_uring's ``sqpoll``).

Everything is deterministic for a fixed seed, so ``--check`` compares
exactly by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hw.params import GiB, MiB
from ..machine import Machine
from ..sim.stats import percentile
from .attribution import fold_sides, waterfalls

__all__ = ["PerfConfig", "Breakdown", "PERF_MATRIX", "QUICK_MATRIX",
           "measure_breakdown", "collect_perf", "compare_perf"]


@dataclass(frozen=True)
class PerfConfig:
    """One pinned workload of the perf-tracking matrix."""

    name: str
    engine: str = "sync"
    rw: str = "randread"
    block_size: int = 4096
    ops: int = 48
    file_size: int = 64 * MiB
    seed: int = 42


PERF_MATRIX: Sequence[PerfConfig] = (
    PerfConfig("sync-4k-randread", engine="sync"),
    PerfConfig("io_uring-4k-randread", engine="io_uring", ops=32),
    PerfConfig("bypassd-4k-randread", engine="bypassd"),
    PerfConfig("bypassd-128k-randread", engine="bypassd",
               block_size=128 * 1024, ops=24),
    PerfConfig("bypassd-4k-randwrite", engine="bypassd", rw="randwrite"),
)

# Tiny matrix for smoke tests (scripts/perf_track.py --quick).
QUICK_MATRIX: Sequence[PerfConfig] = (
    PerfConfig("quick-sync-4k-randread", engine="sync", ops=8,
               file_size=1 * MiB),
    PerfConfig("quick-bypassd-4k-randread", engine="bypassd", ops=8,
               file_size=1 * MiB),
)


@dataclass
class Breakdown:
    """Aggregated, span-measured result of one workload."""

    config: PerfConfig
    samples: List[int] = field(default_factory=list)
    user_ns: float = 0.0
    kernel_ns: float = 0.0
    device_ns: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    sim_end_ns: int = 0

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def mean_ns(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def p50_ns(self) -> int:
        return percentile(self.samples, 50)

    @property
    def p99_ns(self) -> int:
        return percentile(self.samples, 99)

    @property
    def shares(self) -> Dict[str, float]:
        total = self.mean_ns
        if total <= 0:
            return {"user": 0.0, "kernel": 0.0, "device": 0.0}
        return {
            "user": self.user_ns / total,
            "kernel": self.kernel_ns / total,
            "device": self.device_ns / total,
        }

    def to_dict(self) -> Dict:
        c = self.config
        return {
            "engine": c.engine,
            "rw": c.rw,
            "block_size": c.block_size,
            "ops": self.ops,
            "mean_ns": round(self.mean_ns, 3),
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "user_ns": round(self.user_ns, 3),
            "kernel_ns": round(self.kernel_ns, 3),
            "device_ns": round(self.device_ns, 3),
            "layers": {k: round(v, 3)
                       for k, v in sorted(self.layers.items())},
            "shares": {k: round(v, 4)
                       for k, v in sorted(self.shares.items())},
            "sim_end_ns": self.sim_end_ns,
        }


def measure_breakdown(config: PerfConfig,
                      machine: Optional[Machine] = None) -> Breakdown:
    """Run one pinned workload on a traced machine and aggregate the
    spans of its measurement window into a :class:`Breakdown`."""
    from ..apps.workload_utils import materialize_file
    from ..baselines.registry import make_engine

    m = machine if machine is not None else Machine(
        capacity_bytes=4 * GiB, memory_bytes=256 << 20,
        capture_data=False, trace=True)
    if not m.tracer.enabled:
        raise ValueError("measure_breakdown needs a Machine(trace=True)")
    proc = m.spawn_process("perf")
    engine = make_engine(m, proc, config.engine)
    path = f"/perf-{config.name}.dat"
    m.run_process(
        materialize_file(m, proc, engine, path, config.file_size))
    thread = proc.new_thread("perf-0")
    out = Breakdown(config=config)
    is_write = config.rw in ("randwrite", "write")

    def body():
        f = yield from engine.open(thread, path, write=is_write)
        # Warm the per-thread queue pair / DMA buffer outside the
        # measurement window, then start from a clean trace.
        if is_write:
            yield from f.pwrite(thread, 0, config.block_size)
        else:
            yield from f.pread(thread, 0, config.block_size)
        m.tracer.clear()
        rng = random.Random(f"{config.seed}/{config.name}")
        steps = (config.file_size - config.block_size) \
            // config.block_size + 1
        for _ in range(config.ops):
            offset = rng.randrange(steps) * config.block_size
            t0 = m.now
            if is_write:
                yield from f.pwrite(thread, offset, config.block_size)
            else:
                yield from f.pread(thread, offset, config.block_size)
            out.samples.append(m.now - t0)

    m.sim.process(thread.run(body()))
    m.run()
    if len(out.samples) != config.ops:
        raise AssertionError(f"perf worker recorded {len(out.samples)} "
                             f"of {config.ops} ops")
    folded = waterfalls(m.tracer)
    if len(folded) != config.ops:
        raise AssertionError(f"perf window holds {len(folded)} op "
                             f"roots for {config.ops} ops")
    sides, layers = fold_sides(folded)
    out.user_ns = sides["user"] / config.ops
    out.kernel_ns = sides["kernel"] / config.ops
    out.device_ns = sides["device"] / config.ops
    out.layers = {label: ns / config.ops
                  for label, ns in sorted(layers.items())}
    out.sim_end_ns = m.now

    # Fold the window's latencies into the machine's metrics registry
    # so exports see the same numbers the table reports.
    hist = m.metrics.histogram(f"perf.{config.name}.lat_ns")
    hist.record_many(out.samples)
    return out


def collect_perf(matrix: Sequence[PerfConfig] = PERF_MATRIX,
                 names: Optional[Sequence[str]] = None) -> Dict:
    """Run the matrix and return the ``BENCH_perf.json`` payload."""
    selected = [c for c in matrix
                if names is None or c.name in names]
    if names is not None:
        missing = sorted(set(names) - {c.name for c in selected})
        if missing:
            raise ValueError(f"unknown perf config(s): {missing}")
    workloads = {}
    for config in selected:
        workloads[config.name] = measure_breakdown(config).to_dict()
    return {
        "schema": 1,
        "note": "Span-measured latency attribution for the pinned "
                "workload matrix; regenerate with "
                "scripts/perf_track.py --write",
        "workloads": workloads,
    }


def _flatten(value, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else key,
                     out)
    else:
        out[prefix] = value


def compare_perf(expected: Dict, actual: Dict,
                 tolerance: float = 0.0) -> List[str]:
    """Compare two payloads; returns drift messages (empty = pass).

    ``tolerance`` is a relative bound for numeric fields (0.0 = exact,
    valid because same-seed runs are deterministic).
    """
    flat_e: Dict[str, object] = {}
    flat_a: Dict[str, object] = {}
    _flatten(expected.get("workloads", {}), "", flat_e)
    _flatten(actual.get("workloads", {}), "", flat_a)
    problems: List[str] = []
    for key in sorted(set(flat_e) | set(flat_a)):
        if key not in flat_a:
            problems.append(f"missing from current run: {key}")
            continue
        if key not in flat_e:
            problems.append(f"not in baseline (re-run --write): {key}")
            continue
        e, a = flat_e[key], flat_a[key]
        if isinstance(e, (int, float)) and isinstance(a, (int, float)):
            bound = tolerance * max(abs(e), abs(a))
            if abs(e - a) > bound:
                problems.append(
                    f"{key}: baseline {e} vs current {a}"
                    + (f" (tolerance {tolerance:.2%})" if tolerance
                       else ""))
        elif e != a:
            problems.append(f"{key}: baseline {e!r} vs current {a!r}")
    return problems
