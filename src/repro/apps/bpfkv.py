"""BPF-KV: the B+-tree key-value store XRP was evaluated with.

Fixed 8 B keys and 64 B values; 512 B index nodes of fanout 31; a
6-level index over ~920 M objects plus an unsorted value log, all in
one large file.  With caching disabled every lookup costs 7 I/Os — six
index hops and one log read (Section 6.5, Figure 15).

The index is implicit (node positions computed from geometry), so the
paper-scale store needs no materialised bytes.  The traversal is a
pointer chase: XRP runs it with one kernel crossing, BypassD and SPDK
issue each hop from userspace, sync pays the whole kernel stack per
hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..machine import Machine
from ..sim.stats import LatencyRecorder, ThroughputCounter
from .workload_utils import materialize_file

__all__ = ["BPFKVGeometry", "BPFKVResult", "run_bpfkv"]


@dataclass(frozen=True)
class BPFKVGeometry:
    """The BPF-KV B+-tree: object count and node, key and value sizes."""

    n_objects: int = 920_000_000
    node_size: int = 512
    key_size: int = 8
    value_size: int = 64

    @property
    def fanout(self) -> int:
        return self.node_size // (self.key_size + 8)  # 32

    @property
    def height(self) -> int:
        """Index levels: 6 for the paper's 920 M-object store."""
        h = 1
        while self.fanout ** h < self.n_objects:
            h += 1
        return h

    @property
    def index_levels(self) -> List[int]:
        """Nodes per level, root first.

        A node at depth d covers fanout^(height-d) keys, so each level
        holds ceil(n / span) nodes (bounded by fanout^d).
        """
        out = []
        for d in range(self.height):
            span = self.fanout ** (self.height - d)
            out.append(min(self.fanout ** d,
                           -(-self.n_objects // span)))
        return out

    @property
    def index_nodes(self) -> int:
        return sum(self.index_levels)

    @property
    def log_offset(self) -> int:
        return self.index_nodes * self.node_size

    @property
    def file_size(self) -> int:
        return self.log_offset + self.n_objects * self.value_size

    def lookup_offsets(self, key: int) -> List[int]:
        """The 7 file offsets a lookup reads: 6 index nodes + 1 value."""
        if not 0 <= key < self.n_objects:
            raise KeyError(key)
        offsets: List[int] = []
        base = 0
        widths = self.index_levels
        for depth in range(self.height):
            span = self.fanout ** (self.height - depth)
            idx = min(key // span, widths[depth] - 1)
            offsets.append((base + idx) * self.node_size)
            base += widths[depth]
        # The value read fetches the enclosing 512 B device block.
        value_off = self.log_offset + key * self.value_size
        offsets.append((value_off // self.node_size) * self.node_size)
        return offsets


@dataclass
class BPFKVResult:
    """One Figure 15 cell: throughput with mean and p99.9 latency."""

    engine: str
    threads: int
    kops: float
    mean_lat_us: float
    p999_lat_us: float


def run_bpfkv(machine: Machine, engine_name: str, threads: int,
              lookups_per_thread: int,
              geometry: BPFKVGeometry = BPFKVGeometry(),
              seed: int = 3) -> BPFKVResult:
    """Figure 15: object lookups with avg and p99.9 latency."""
    import random

    from ..baselines.registry import chained_read, make_engine

    proc = machine.spawn_process("bpfkv")
    engine = make_engine(machine, proc, engine_name)
    path = "/bpfkv.db"
    machine.run_process(materialize_file(machine, proc, engine, path,
                                         geometry.file_size))

    latency = LatencyRecorder("bpfkv")
    counter = ThroughputCounter("bpfkv")

    from .workload_utils import StartGate

    gate = StartGate(machine, expected=threads, counters=[counter])

    def worker(thread, widx):
        rng = random.Random((seed << 8) | widx)
        if engine_name == "spdk":
            f = engine._files[path]
        else:
            f = yield from engine.open(thread, path)
        yield from gate.arrive(thread)
        for _ in range(lookups_per_thread):
            key = rng.randrange(geometry.n_objects)
            offsets = geometry.lookup_offsets(key)
            t0 = machine.now
            yield from chained_read(f, thread, offsets,
                                    geometry.node_size)
            latency.record(machine.now - t0)
            counter.record()

    spawned = []
    for t in range(threads):
        thread = proc.new_thread(f"kv-{t}")
        spawned.append(machine.spawn(thread, worker(thread, t)))
    machine.run()
    for sp in spawned:
        assert sp.triggered
        _ = sp.value
    counter.stop(machine.now)

    return BPFKVResult(
        engine=engine_name, threads=threads, kops=counter.kops,
        mean_lat_us=latency.mean_us,
        p999_lat_us=latency.percentile_us(99.9),
    )
