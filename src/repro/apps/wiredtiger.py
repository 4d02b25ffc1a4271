"""WiredTiger-like B-tree storage engine model (Section 6.4).

The paper runs MongoDB's WiredTiger engine with 512 B B-tree pages over
a 46 GB store of one billion 16 B/16 B key-value pairs, with a 6 GB
in-memory page cache, and drives it with YCSB.  What decides those
results is mechanical: the fraction of B-tree path nodes that miss the
cache (each miss is one 512 B I/O), and — at high thread counts — the
serialisation on the shared cache (Figure 13: "the WiredTiger cache
becomes the point of contention which hides the benefits of faster
I/O").

This model reproduces that mechanism over an *implicit* B-tree: node
positions in the file are computed from the tree geometry instead of
materialising 46 GB, so paper-scale stores cost O(cache) memory.  The
cache is a real shared LRU guarded by a lock, reads/updates/scans issue
real engine I/O against the simulated device, and inserts land in the
(hot, cached) tail leaves.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Generator, List, Optional, Tuple

from ..machine import Machine
from ..sim.resources import Lock
from ..sim.stats import LatencyRecorder, ThroughputCounter
from ..sim.trace import charge_phases
from .workload_utils import materialize_file
from .ycsb import YCSBWorkload

__all__ = ["BTreeGeometry", "WiredTigerModel", "WTResult",
           "run_wiredtiger_ycsb"]


class BTreeGeometry:
    """Shape of the on-disk B-tree.  Frozen."""

    def __init__(self, n_keys: int, page_size: int = 512, key_size: int = 16,
                 value_size: int = 16) -> None:
        vars(self).update(n_keys=n_keys, page_size=page_size,
                          key_size=key_size, value_size=value_size)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: "
                             "BTreeGeometry is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: "
                             "BTreeGeometry is frozen")

    @property
    def entries_per_leaf(self) -> int:
        return max(2, self.page_size // (self.key_size + self.value_size))

    @property
    def internal_fanout(self) -> int:
        return max(2, self.page_size // (self.key_size + 8))

    @cached_property
    def level_sizes(self) -> Tuple[int, ...]:
        """Pages per level, leaves first, root last (computed once)."""
        sizes = [-(-self.n_keys // self.entries_per_leaf)]
        while sizes[-1] > 1:
            sizes.append(-(-sizes[-1] // self.internal_fanout))
        return tuple(sizes)

    @property
    def height(self) -> int:
        return len(self.level_sizes)

    @property
    def total_pages(self) -> int:
        return sum(self.level_sizes)

    @property
    def file_size(self) -> int:
        return self.total_pages * self.page_size

    def path_pages(self, key: int) -> List[int]:
        """File page indices visited for ``key``, root first.

        Levels are laid out root-first in the file; within a level,
        node i covers an equal slice of the key space.
        """
        if not 0 <= key < self.n_keys:
            raise KeyError(key)
        sizes = self.level_sizes  # leaves first
        fanout = self.internal_fanout
        leaf = key // self.entries_per_leaf
        # Node index at each level, leaf upward.
        idx = leaf
        per_level_idx = [idx]
        for level in range(1, len(sizes)):
            idx //= fanout
            per_level_idx.append(idx)
        # File offset bases, root (last entry of sizes) first.
        path = []
        base = 0
        for level in range(len(sizes) - 1, -1, -1):
            path.append(base + per_level_idx[level])
            base += sizes[level]
        return path


class _PageCacheLRU:
    """The engine's shared page cache: a lock-guarded LRU of page ids."""

    def __init__(self, machine: Machine, capacity_pages: int):
        self.capacity = max(1, capacity_pages)
        self._lru: "OrderedDict[int, bool]" = OrderedDict()
        self.lock = Lock(machine.sim)
        self.hits = 0
        self.misses = 0

    def lookup(self, page: int) -> bool:
        if page in self._lru:
            self._lru.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page: int) -> None:
        self._lru[page] = True
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)


class WTResult:
    """One YCSB run on WiredTiger: throughput, latency, cache hits, I/Os."""

    def __init__(self, workload: str, engine: str, threads: int, kops: float,
                 mean_lat_us: float, cache_hit_rate: float, ios: int) -> None:
        self.workload = workload
        self.engine = engine
        self.threads = threads
        self.kops = kops
        self.mean_lat_us = mean_lat_us
        self.cache_hit_rate = cache_hit_rate
        self.ios = ios


class WiredTigerModel:
    """One WiredTiger table: geometry + cache + engine file."""

    # Per-op CPU the engine spends outside I/O (search, copies, MVCC).
    CACHE_OP_NS = 180      # per cache lookup/insert, under the lock
    APP_OP_NS = 1500       # per YCSB op outside the cache

    def __init__(self, machine: Machine, geometry: BTreeGeometry,
                 cache_bytes: int, engine, path: str = "/wt.db"):
        self.machine = machine
        self.geom = geometry
        self.engine = engine
        self.path = path
        self.cache = _PageCacheLRU(machine,
                                   cache_bytes // geometry.page_size)
        self.ios = 0
        self._file = None

    def setup(self, proc) -> None:
        """Create the backing file and warm the upper tree levels."""
        self.machine.run_process(materialize_file(
            self.machine, proc, self.engine, self.path,
            self.geom.file_size))
        # The top of the tree is hot after any realistic warm-up.  Only
        # a slice of the cache is preloaded: in the real engine the
        # cache also holds values and engine state, so the lower
        # internal levels compete with leaves under LRU (this is what
        # leaves XRP its consecutive-miss chains to accelerate).
        sizes = self.geom.level_sizes
        base = 0
        budget = self.cache.capacity // 8
        preload: List[int] = []
        for level in range(len(sizes) - 1, 0, -1):  # root .. level 1
            count = sizes[level]
            if count <= budget:
                preload.extend(range(base, base + count))
                budget -= count
            base += count
        for page in preload:
            self.cache.insert(page)

    def open(self, thread) -> Generator:
        if self._file is None:
            self._file = yield from self.engine.open(thread, self.path,
                                                     write=True)
        return self._file

    # -- one YCSB op ---------------------------------------------------------

    def do_op(self, thread, op) -> Generator:
        geom = self.geom
        f = yield from self.open(thread)
        yield from thread.compute(self.APP_OP_NS)
        if op.kind == "insert":
            # Inserts land in the tail leaf, which recency keeps hot;
            # WiredTiger absorbs them in memory and writes the page.
            key = op.key % geom.n_keys
            leaf_page = geom.path_pages(key)[-1]
            yield from self._touch(thread, f, leaf_page, write=False)
            yield from self._touch(thread, f, leaf_page, write=True)
            return
        key = op.key % geom.n_keys
        path = geom.path_pages(key)
        yield from self._read_path(thread, f, path)
        if op.kind in ("update", "rmw"):
            yield from self._touch(thread, f, path[-1], write=True)
        elif op.kind == "scan":
            # One I/O returns many consecutive pairs (Section 6.4).
            pairs_per_page = geom.entries_per_leaf
            extra_pages = max(0, -(-op.scan_len // pairs_per_page) - 1)
            for i in range(1, extra_pages + 1):
                yield from self._touch(thread, f, path[-1] + i,
                                       write=False)

    def _read_path(self, thread, f, path: List[int]) -> Generator:
        """Traverse root->leaf; consecutive misses are a pointer chase
        that XRP-capable files resolve with one kernel crossing."""
        cache = self.cache
        misses: List[int] = []
        yield from thread.block(cache.lock.acquire())
        try:
            # One lookup per path page, all under the lock: nothing else
            # touches the LRU meanwhile, so their CPU is one delay.
            yield from charge_phases(
                self.machine.sim, ((None, self.CACHE_OP_NS),) * len(path),
                thread=thread)
            for page in path:
                if not cache.lookup(page):
                    cache.insert(page)
                    misses.append(page)
        finally:
            cache.lock.release()
        if not misses:
            return
        # Group consecutive path positions into chains.
        pos = {page: i for i, page in enumerate(path)}
        runs: List[List[int]] = [[misses[0]]]
        for page in misses[1:]:
            if pos[page] == pos[runs[-1][-1]] + 1:
                runs[-1].append(page)
            else:
                runs.append([page])
        ps = self.geom.page_size
        for run in runs:
            if len(run) > 1 and hasattr(f, "chained_read"):
                self.ios += len(run)
                yield from f.chained_read(
                    thread, [p * ps for p in run], ps)
            else:
                for page in run:
                    self.ios += 1
                    yield from f.pread(thread, page * ps, ps)

    def _touch(self, thread, f, page: int, write: bool) -> Generator:
        """Access one B-tree page through the cache."""
        cache = self.cache
        yield from thread.block(cache.lock.acquire())
        try:
            yield from thread.compute(self.CACHE_OP_NS)
            hit = cache.lookup(page)
            if not hit:
                cache.insert(page)
        finally:
            cache.lock.release()
        offset = page * self.geom.page_size
        if write:
            self.ios += 1
            yield from f.pwrite(thread, offset, self.geom.page_size)
        elif not hit:
            self.ios += 1
            yield from f.pread(thread, offset, self.geom.page_size)


def run_wiredtiger_ycsb(machine: Machine, engine_name: str,
                        workload: str, threads: int,
                        ops_per_thread: int,
                        geometry: Optional[BTreeGeometry] = None,
                        cache_bytes: int = 0,
                        seed: int = 11) -> WTResult:
    """Run one Figure 13/14 cell."""
    from ..baselines.registry import make_engine

    geom = geometry if geometry is not None else BTreeGeometry(2_000_000)
    if cache_bytes <= 0:
        # Paper default ratio: 6 GB cache for a 46 GB store.
        cache_bytes = int(geom.file_size * 6 / 46)
    proc = machine.spawn_process("wiredtiger")
    engine = make_engine(machine, proc, engine_name)
    model = WiredTigerModel(machine, geom, cache_bytes, engine)
    model.setup(proc)

    latency = LatencyRecorder("wt")
    counter = ThroughputCounter("wt")

    from .workload_utils import StartGate

    gate = StartGate(machine, expected=threads, counters=[counter])

    def worker(thread, wl: YCSBWorkload):
        yield from model.open(thread)
        yield from gate.arrive(thread)
        for op in wl.ops(ops_per_thread):
            t0 = machine.now
            yield from model.do_op(thread, op)
            latency.record(machine.now - t0)
            counter.record()

    spawned = []
    for t in range(threads):
        thread = proc.new_thread(f"wt-{t}")
        wl = YCSBWorkload(workload, geom.n_keys, seed=seed + t)
        spawned.append(machine.spawn(thread, worker(thread, wl)))
    machine.run()
    for sp in spawned:
        assert sp.triggered
        _ = sp.value
    counter.stop(machine.now)

    total_lookups = model.cache.hits + model.cache.misses
    return WTResult(
        workload=workload, engine=engine_name, threads=threads,
        kops=counter.kops, mean_lat_us=latency.mean_us,
        cache_hit_rate=(model.cache.hits / total_lookups
                        if total_lookups else 0.0),
        ios=model.ios,
    )
