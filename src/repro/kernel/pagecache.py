"""Kernel page cache for buffered I/O.

The BypassD interface never touches the page cache (data goes straight
to the device), but the *kernel* interface the paper compares against
— and falls back to after revocation (Figure 12) — does.  LRU over
(inode, page-index); dirty pages are written back on fsync and on
eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, List, Optional, Set, Tuple

from ..nvme.spec import Opcode
from ..sim.cpu import Thread
from .blockio import PAGE

__all__ = ["PageCache"]


class PageCache:
    def __init__(self, capacity_pages: int, blockio, fs):
        if capacity_pages < 1:
            raise ValueError("page cache needs at least one page")
        self.capacity = capacity_pages
        self.blockio = blockio
        self.fs = fs
        self._pages: "OrderedDict[Tuple[int,int], Optional[bytes]]" = OrderedDict()
        self._dirty: Set[Tuple[int, int]] = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- telemetry gauges (read-only; sampled by repro.obs.monitor) ----

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction in [0, 1]; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._pages

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    # -- lookup/fill ------------------------------------------------------

    def read_page(self, thread: Thread, inode,
                  page_idx: int) -> Generator:
        """Return the page's bytes (None in timing-only mode)."""
        key = (inode.ino, page_idx)
        if key in self._pages:
            self.hits += 1
            self._pages.move_to_end(key)
            return self._pages[key]
        self.misses += 1
        mapping = self.fs.bmap(inode, page_idx)
        if mapping is None:
            data = bytes(PAGE)  # hole reads as zeros
        else:
            data = yield from self.blockio.rw_fsblocks(
                thread, Opcode.READ, mapping[0], 1)
        yield from self._insert(thread, key, data, dirty=False)
        return data

    def write_page(self, thread: Thread, inode, page_idx: int,
                   data: Optional[bytes]) -> Generator:
        """Buffered write: dirty the cached page."""
        key = (inode.ino, page_idx)
        if key in self._pages:
            self.hits += 1
            self._pages.move_to_end(key)
            self._pages[key] = data
            self._dirty.add(key)
            return
        self.misses += 1
        yield from self._insert(thread, key, data, dirty=True)

    def _insert(self, thread: Thread, key: Tuple[int, int],
                data: Optional[bytes], dirty: bool) -> Generator:
        sim = self.blockio.sim
        tracer = self.blockio.tracer
        while len(self._pages) >= self.capacity:
            victim, vdata = self._pages.popitem(last=False)
            if victim in self._dirty:
                self._dirty.discard(victim)
                # Eviction under memory pressure forces the caller to
                # wait on a dirty victim's writeback — the buffered
                # path's dirty-throttle stall.
                throttle_t0 = sim.now
                yield from self._writeback(thread, victim, vdata)
                tracer.add_wait("dirty_writeback", sim.now - throttle_t0,
                                thread=thread)
        self._pages[key] = data
        if dirty:
            self._dirty.add(key)

    def _writeback(self, thread: Thread, key: Tuple[int, int],
                   data: Optional[bytes]) -> Generator:
        ino, page_idx = key
        inode = self.fs.inodes.get(ino)
        if inode is None:
            return  # file deleted; drop the page
        mapping = self.fs.bmap(inode, page_idx)
        if mapping is None:
            return  # truncated under us
        self.writebacks += 1
        yield from self.blockio.rw_fsblocks(thread, Opcode.WRITE,
                                            mapping[0], 1, data=data)

    # -- maintenance -------------------------------------------------------

    def sync_inode(self, thread: Thread, inode) -> Generator:
        doomed: List[Tuple[int, int]] = sorted(
            key for key in self._dirty if key[0] == inode.ino
        )
        for key in doomed:
            self._dirty.discard(key)
            yield from self._writeback(thread, key, self._pages.get(key))

    def invalidate_inode(self, ino: int) -> None:
        doomed = [key for key in self._pages if key[0] == ino]
        for key in doomed:
            del self._pages[key]
            self._dirty.discard(key)
