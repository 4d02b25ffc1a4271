"""fio-like microbenchmark driver (Section 6.3's workhorse).

Runs N threads of random/sequential read/write at a given block size
and queue depth against any engine, collecting per-op latency and
aggregate throughput — the generator behind Figures 6 through 11.

The RNG is seeded per job so runs are deterministic.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..machine import Machine
from ..sim.stats import LatencyRecorder, ThroughputCounter
from .workload_utils import materialize_file

__all__ = ["FioJob", "FioResult", "run_fio"]

SECTOR = 512


class FioJob:
    """One fio invocation.

    ``rw`` is randread, randwrite, read or write; each of ``processes``
    gets a private file; the first ``ramp_ops`` ops of each thread are
    warm-up, left out of the statistics.
    """

    def __init__(self, engine: str = "sync", rw: str = "randread",
                 block_size: int = 4096, file_size: int = 256 * 1024 * 1024,
                 threads: int = 1, processes: int = 1,
                 ops_per_thread: int = 200, seed: int = 42,
                 buffered: bool = False, ramp_ops: int = 8) -> None:
        if rw not in ("randread", "randwrite", "read", "write"):
            raise ValueError(f"unknown rw mode {rw!r}")
        if block_size % SECTOR:
            raise ValueError("block size must be sector-aligned")
        if block_size > file_size:
            raise ValueError("block size larger than file")
        self.engine = engine
        self.rw = rw
        self.block_size = block_size
        self.file_size = file_size
        self.threads = threads
        self.processes = processes
        self.ops_per_thread = ops_per_thread
        self.seed = seed
        self.buffered = buffered
        self.ramp_ops = ramp_ops

    @property
    def is_write(self) -> bool:
        return self.rw in ("randwrite", "write")

    @property
    def is_random(self) -> bool:
        return self.rw.startswith("rand")


class FioResult:
    """One fio run: latency, throughput and each process's share."""

    def __init__(self, job: FioJob, latency: LatencyRecorder,
                 throughput: ThroughputCounter,
                 per_process_gbps: Optional[List[float]] = None,
                 per_process_lat_us: Optional[List[float]] = None,
                 per_process_latency: Optional[
                     List[LatencyRecorder]] = None) -> None:
        self.job = job
        self.latency = latency
        self.throughput = throughput
        self.per_process_gbps: List[float] = (
            [] if per_process_gbps is None else per_process_gbps)
        self.per_process_lat_us: List[float] = (
            [] if per_process_lat_us is None else per_process_lat_us)
        # Full per-process recorders (index = process), so multi-tenant
        # consumers (repro.bench.sweep) can read per-tenant percentiles,
        # not just the mean.
        self.per_process_latency: List[LatencyRecorder] = (
            [] if per_process_latency is None else per_process_latency)

    @property
    def mean_lat_us(self) -> float:
        return self.latency.mean_us

    @property
    def gbps(self) -> float:
        return self.throughput.gbps

    @property
    def iops(self) -> float:
        return self.throughput.iops

    @property
    def mbps(self) -> float:
        return self.throughput.mbps


def run_fio(machine: Machine, job: FioJob) -> FioResult:
    """Execute the job on ``machine`` and gather statistics."""
    overall = LatencyRecorder(f"fio-{job.engine}")
    throughput = ThroughputCounter(f"fio-{job.engine}")
    per_proc: Dict[int, ThroughputCounter] = {}
    per_proc_lat: Dict[int, LatencyRecorder] = {}
    finish_times: List[int] = []

    def thread_body(engine, proc_idx, thread, path, gate, spdk=False):
        rng = random.Random(f"{job.seed}/{proc_idx}/{thread.name}")
        if spdk:
            f = engine._files[path]
        else:
            f = yield from engine.open(thread, path,
                                       write=job.is_write)
        yield from gate.arrive(thread)
        # Everything below is fixed for the job, so the op loop reads
        # locals (``Machine.monitor`` is only set at construction).
        sim = machine.sim
        block_size = job.block_size
        ramp_ops = job.ramp_ops
        is_random = job.is_random
        io = f.pwrite if job.is_write else f.pread
        monitor = machine.monitor
        proc_lat = per_proc_lat[proc_idx]
        proc_tput = per_proc[proc_idx]
        max_off = job.file_size - block_size
        steps = max_off // block_size + 1
        seq_pos = 0
        for op in range(job.ops_per_thread + ramp_ops):
            if is_random:
                offset = rng.randrange(steps) * block_size
            else:
                offset = seq_pos
                seq_pos += block_size
                if seq_pos > max_off:
                    seq_pos = 0
            t0 = sim.now
            yield from io(thread, offset, block_size)
            if op >= ramp_ops:
                lat = sim.now - t0
                overall.record(lat)
                proc_lat.record(lat)
                if monitor is not None:
                    # Feed the telemetry layer so latency SLOs can
                    # window over per-op samples (pure recording:
                    # does not touch simulated time).
                    monitor.observe("fio.lat_ns", float(lat))
                throughput.record(nbytes=block_size)
                proc_tput.record(nbytes=block_size)
        finish_times.append(sim.now)

    # -- set up processes, files and threads ---------------------------------
    from .workload_utils import StartGate

    gate = StartGate(machine, expected=job.processes * job.threads,
                     counters=[throughput])
    bodies = []
    for p in range(job.processes):
        proc = machine.spawn_process(f"fio{p}")
        from ..baselines.registry import make_engine
        engine = make_engine(machine, proc, job.engine,
                             buffered=job.buffered)
        path = f"/fio-{p}.dat"
        per_proc[p] = ThroughputCounter(f"proc{p}")
        per_proc_lat[p] = LatencyRecorder(f"proc{p}")
        gate.counters.append(per_proc[p])
        spdk = job.engine == "spdk"
        machine.run_process(
            materialize_file(machine, proc, engine, path, job.file_size))
        for t in range(job.threads):
            thread = proc.new_thread(f"fio{p}-{t}")
            bodies.append(
                thread.run(thread_body(engine, p, thread, path, gate,
                                       spdk=spdk)))

    procs = [machine.sim.process(body) for body in bodies]
    machine.run()
    for sp in procs:
        assert sp.triggered, "fio worker did not finish"
        _ = sp.value
    # Idle-spinning pollers (io_uring) keep simulated time moving after
    # the last I/O: close the window at the last worker's finish.
    end = max(finish_times)
    throughput.stop(end)
    for c in per_proc.values():
        c.stop(end)

    result = FioResult(job=job, latency=overall, throughput=throughput)
    for p in sorted(per_proc):
        result.per_process_gbps.append(per_proc[p].gbps)
        result.per_process_lat_us.append(per_proc_lat[p].mean_us)
        result.per_process_latency.append(per_proc_lat[p])
    return result
