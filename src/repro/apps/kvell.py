"""KVell-like persistent key-value store (Lepers et al., SOSP '19).

KVell's design points, as exercised by Figure 16:

- all indexes live in memory; every GET is exactly one disk read and
  every PUT one disk write into fixed-size slabs;
- shared-nothing worker threads, each owning a slice of the keyspace
  and its own slab file;
- batched asynchronous I/O (libaio): deep queues buy IOPS at the price
  of queueing latency.  ``KVell_1`` runs queue depth 1, ``KVell_64``
  depth 64.

The BypassD variant replaces libaio with synchronous UserLib I/O —
the paper's "we also implemented a synchronous I/O interface" — which
keeps per-op latency at device latency and sidesteps ext4's
inode-write serialisation on mixed workloads (YCSB A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..machine import Machine
from ..nvme.spec import Opcode
from ..sim.stats import LatencyRecorder, ThroughputCounter
from .workload_utils import materialize_file
from .ycsb import YCSBWorkload

__all__ = ["KVellConfig", "KVellResult", "run_kvell"]

PAGE = 4096


@dataclass(frozen=True)
class KVellConfig:
    """The KVell store: object count, item sizes, queue depth, engine."""

    n_objects: int = 50_000_000
    key_size: int = 16
    value_size: int = 1024
    queue_depth: int = 1          # 1 => KVell_1, 64 => KVell_64
    engine: str = "libaio"        # libaio | bypassd

    @property
    def item_size(self) -> int:
        """Slab slot size (key+value rounded to a power-of-two slot)."""
        need = self.key_size + self.value_size
        slot = 64
        while slot < need:
            slot *= 2
        return slot

    @property
    def items_per_page(self) -> int:
        return max(1, PAGE // self.item_size)

    def slab_bytes(self, workers: int) -> int:
        per_worker = -(-self.n_objects // max(1, workers))
        pages = -(-per_worker // self.items_per_page)
        return pages * PAGE

    def item_offset(self, local_idx: int) -> int:
        """Byte offset of an item inside its worker's slab file."""
        page, slot = divmod(local_idx, self.items_per_page)
        return page * PAGE + slot * self.item_size


@dataclass
class KVellResult:
    """One Figure 16 cell: throughput with mean and p99 latency."""

    workload: str
    engine: str
    queue_depth: int
    threads: int
    kops: float
    mean_lat_us: float
    p99_lat_us: float


def run_kvell(machine: Machine, workload: str, threads: int,
              ops_per_thread: int, config: KVellConfig = KVellConfig(),
              seed: int = 5) -> KVellResult:
    """Run one Figure 16 cell (throughput + request latency)."""
    from ..baselines.libaio import AIOContext, AioOp
    from ..baselines.registry import make_engine

    proc = machine.spawn_process("kvell")
    latency = LatencyRecorder("kvell")
    counter = ThroughputCounter("kvell")
    per_worker_objects = -(-config.n_objects // threads)
    slab_size = config.slab_bytes(threads)

    use_bypassd = config.engine == "bypassd"
    engine = make_engine(machine, proc,
                         "bypassd" if use_bypassd else "libaio")

    paths = []
    for w in range(threads):
        path = f"/kvell-slab-{w}"
        machine.run_process(materialize_file(machine, proc, engine,
                                             path, slab_size))
        paths.append(path)

    def op_offset(rng_key: int) -> int:
        local = rng_key % per_worker_objects
        return (config.item_offset(local) // 512) * 512

    from .workload_utils import StartGate

    gate = StartGate(machine, expected=threads, counters=[counter])

    def worker_bypassd(thread, widx, wl):
        f = yield from engine.open(thread, paths[widx], write=True)
        yield from gate.arrive(thread)
        for op in wl.ops(ops_per_thread):
            t0 = machine.now
            offset = op_offset(op.key)
            if op.kind in ("read", "scan"):
                yield from f.pread(thread, offset, config.item_size)
            else:
                yield from f.pwrite(thread, offset, config.item_size)
            latency.record(machine.now - t0)
            counter.record()

    def worker_libaio(thread, widx, wl):
        f = yield from engine.open(thread, paths[widx], write=True)
        yield from gate.arrive(thread)
        ctx = AIOContext(machine.sim, machine.kernel, proc)
        pending = list(wl.ops(ops_per_thread))
        qd = config.queue_depth
        while pending:
            batch, starts = [], []
            for op in pending[:qd]:
                offset = op_offset(op.key)
                opcode = (Opcode.READ if op.kind in ("read", "scan")
                          else Opcode.WRITE)
                nbytes = -(-config.item_size // 512) * 512
                batch.append(AioOp(f, opcode, offset, nbytes))
                starts.append(machine.now)
            pending = pending[len(batch):]
            yield from ctx.submit(thread, batch)
            yield from ctx.get_events(thread, len(batch))
            done = machine.now
            for t0 in starts:
                latency.record(done - t0)
                counter.record()

    spawned = []
    for w in range(threads):
        thread = proc.new_thread(f"kvell-{w}")
        wl = YCSBWorkload(workload, per_worker_objects, seed=seed + w)
        body = (worker_bypassd if use_bypassd else worker_libaio)(
            thread, w, wl)
        spawned.append(machine.spawn(thread, body))
    machine.run()
    for sp in spawned:
        assert sp.triggered
        _ = sp.value
    counter.stop(machine.now)

    return KVellResult(
        workload=workload,
        engine=config.engine,
        queue_depth=config.queue_depth,
        threads=threads,
        kops=counter.kops,
        mean_lat_us=latency.mean_us,
        p99_lat_us=latency.percentile_us(99),
    )
