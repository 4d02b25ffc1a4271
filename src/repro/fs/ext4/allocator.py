"""Block allocator with BypassD's deferred-reuse rule.

Free space is kept as a sorted list of (start, length) runs, so
paper-scale filesystems cost O(fragments) memory instead of O(blocks).
Allocation is first-fit with a contiguity preference, which gives
mostly-contiguous extents — the case the paper's file tables and the
IOMMU's (LBA, length) coalescing are built around.

BypassD must not rehome a freed block to another file while a revoked
process could still have in-flight direct I/O against it (Section 3.6).
Frees therefore land in a *deferred* pool and only rejoin the free list
at a sync point (``drain_deferred``, called from fsync/journal commit).
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

__all__ = ["BlockAllocator", "NoSpaceError"]


class NoSpaceError(Exception):
    """Filesystem is out of blocks."""


class BlockAllocator:
    def __init__(self, first_block: int, block_count: int):
        if block_count <= 0:
            raise ValueError("empty allocator")
        self.first_block = first_block
        self.block_count = block_count
        # Sorted, disjoint, non-adjacent (coalesced) free runs.
        self._free: List[Tuple[int, int]] = [(first_block, block_count)]
        self._deferred: List[Tuple[int, int]] = []
        self.allocated = 0

    # -- queries ----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def deferred_blocks(self) -> int:
        return sum(length for _, length in self._deferred)

    def check_invariants(self) -> None:
        """Free runs must be sorted, disjoint and coalesced (fsck)."""
        prev_end = None
        for start, length in self._free:
            if length <= 0:
                raise AssertionError(f"empty free run at {start}")
            if start < self.first_block or (
                    start + length > self.first_block + self.block_count):
                raise AssertionError(f"run ({start},{length}) out of range")
            if prev_end is not None and start <= prev_end:
                raise AssertionError(
                    f"free runs overlap/adjacent at {start} (prev end {prev_end})"
                )
            prev_end = start + length
        total = self.free_blocks + self.deferred_blocks + self.allocated
        if total != self.block_count:
            raise AssertionError(
                f"accounting broken: {total} != {self.block_count}"
            )

    # -- allocation ---------------------------------------------------------

    def alloc(self, count: int, goal: int = -1) -> List[Tuple[int, int]]:
        """Allocate ``count`` blocks, returned as extents.

        Tries to extend at ``goal`` (the file's current last block + 1)
        first, then takes first-fit runs, splitting across runs only
        when no single run is large enough.
        """
        if count <= 0:
            raise ValueError("allocation count must be positive")
        if count > self.free_blocks:
            raise NoSpaceError(
                f"need {count} blocks, {self.free_blocks} free"
            )
        extents: List[Tuple[int, int]] = []
        remaining = count

        if goal >= 0:
            got = self._take_at(goal, remaining)
            if got:
                extents.append(got)
                remaining -= got[1]

        while remaining > 0:
            run = self._take_first_fit(remaining)
            if extents and extents[-1][0] + extents[-1][1] == run[0]:
                extents[-1] = (extents[-1][0], extents[-1][1] + run[1])
            else:
                extents.append(run)
            remaining -= run[1]

        self.allocated += count
        return extents

    def _take_at(self, block: int, count: int):
        idx = bisect.bisect_right(self._free, (block, float("inf"))) - 1
        if idx < 0:
            return None
        start, length = self._free[idx]
        if not (start <= block < start + length):
            return None
        take = min(count, start + length - block)
        self._carve(idx, block, take)
        return (block, take)

    def _take_first_fit(self, count: int) -> Tuple[int, int]:
        # Prefer the first run that satisfies the whole remainder.
        for idx, (start, length) in enumerate(self._free):
            if length >= count:
                self._carve(idx, start, count)
                return (start, count)
        # Otherwise consume the largest run available.
        idx = max(range(len(self._free)), key=lambda i: self._free[i][1])
        start, length = self._free[idx]
        self._carve(idx, start, length)
        return (start, length)

    def _carve(self, idx: int, block: int, count: int) -> None:
        start, length = self._free[idx]
        assert start <= block and block + count <= start + length
        pieces = []
        if block > start:
            pieces.append((start, block - start))
        tail = (start + length) - (block + count)
        if tail:
            pieces.append((block + count, tail))
        self._free[idx:idx + 1] = pieces

    # -- freeing ------------------------------------------------------------

    def free(self, block: int, count: int, deferred: bool = True) -> None:
        """Release blocks; by default into the deferred pool."""
        if count <= 0:
            raise ValueError("free count must be positive")
        if block < self.first_block or (
                block + count > self.first_block + self.block_count):
            raise ValueError(f"free out of range: ({block},{count})")
        if self.allocated < count:
            raise ValueError("freeing more than allocated")
        self.allocated -= count
        if deferred:
            self._deferred.append((block, count))
        else:
            self._insert_free(block, count)

    def drain_deferred(self) -> int:
        """Sync point: deferred blocks become allocatable (Section 3.6)."""
        drained = 0
        for block, count in self._deferred:
            self._insert_free(block, count)
            drained += count
        self._deferred.clear()
        return drained

    def _insert_free(self, block: int, count: int) -> None:
        idx = bisect.bisect_left(self._free, (block, 0))
        # Guard against double frees.
        for neighbor in (idx - 1, idx):
            if 0 <= neighbor < len(self._free):
                nstart, nlen = self._free[neighbor]
                if block < nstart + nlen and nstart < block + count:
                    raise ValueError(
                        f"double free: ({block},{count}) overlaps "
                        f"({nstart},{nlen})"
                    )
        self._free.insert(idx, (block, count))
        self._coalesce(max(idx - 1, 0))

    def _coalesce(self, idx: int) -> None:
        while idx + 1 < len(self._free):
            start, length = self._free[idx]
            nstart, nlength = self._free[idx + 1]
            if start + length == nstart:
                self._free[idx:idx + 2] = [(start, length + nlength)]
            else:
                idx += 1
