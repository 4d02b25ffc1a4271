"""Span-measured latency breakdowns for the paper's tables.

:func:`measure_breakdown` is the one code path behind the paper-facing
latency attribution: it runs a fio-shaped loop on a traced machine
with a *clean measurement window* (setup, open and warm-up happen
before ``tracer.clear()``), then folds the window's per-op waterfalls
(:mod:`repro.obs.attribution`) into per-op layer times.
``bench.experiments.table1_latency_breakdown`` and
``fig7_latency_breakdown`` build their tables from it.  The ``sweep``
experiment (:mod:`repro.bench.sweep`) records the same fold per grid
cell, and ``scripts/perf_gate.py`` pins it exactly.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.params import GiB, MiB
from ..machine import Machine
from .attribution import fold_sides, waterfalls

__all__ = ["PerfConfig", "Breakdown", "measure_breakdown"]


@dataclass(frozen=True)
class PerfConfig:
    """One measured fio-shaped workload."""

    name: str
    engine: str = "sync"
    rw: str = "randread"
    block_size: int = 4096
    ops: int = 48
    file_size: int = 64 * MiB
    seed: int = 42


@dataclass
class Breakdown:
    """Aggregated, span-measured result of one workload."""

    config: PerfConfig
    samples: List[int] = field(default_factory=list)
    user_ns: float = 0.0
    kernel_ns: float = 0.0
    device_ns: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def mean_ns(self) -> float:
        return sum(self.samples) / len(self.samples)


def measure_breakdown(config: PerfConfig,
                      machine: Optional[Machine] = None) -> Breakdown:
    """Run one workload on a traced machine and aggregate the
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
    return out
