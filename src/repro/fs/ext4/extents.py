"""Extent trees and the extent-status cache.

An extent maps a run of logical file blocks to physical filesystem
blocks.  The extent tree here is a sorted list with binary search —
the balanced on-disk B+-tree's *behaviour* (ordered, mergeable,
range-searchable) without its serialisation details.

ext4 caches extent mappings in memory in the *extent status tree*;
whether a file's extents are cached decides between the paper's cheap
"warm" fmap and the expensive "cold" fmap that must read block-mapping
metadata from the device (Section 4.1, Table 5).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

__all__ = ["Extent", "ExtentTree", "ExtentStatusCache"]


class Extent:
    """A run of ``count`` file blocks mapped to contiguous device blocks:
    file blocks from ``logical`` on, fs/device blocks from ``physical``
    on.  Frozen."""

    def __init__(self, logical: int, physical: int, count: int) -> None:
        if count <= 0:
            raise ValueError("extent must cover at least one block")
        if logical < 0 or physical < 0:
            raise ValueError("negative block number")
        object.__setattr__(self, "logical", logical)
        object.__setattr__(self, "physical", physical)
        object.__setattr__(self, "count", count)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: "
                             "Extent is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: "
                             "Extent is frozen")

    def __repr__(self) -> str:
        # Named in the overlap and ordering errors of ExtentTree.
        return (f"Extent(logical={self.logical}, "
                f"physical={self.physical}, count={self.count})")

    @property
    def logical_end(self) -> int:
        return self.logical + self.count

    def contains(self, file_block: int) -> bool:
        return self.logical <= file_block < self.logical_end


class ExtentTree:
    """Sorted extent map for one inode."""

    def __init__(self):
        self._extents: List[Extent] = []
        # _keys[i] == _extents[i].logical, maintained on every mutation:
        # lookups (millions per fallocate-heavy run) must not rebuild it.
        self._keys: List[int] = []

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    @property
    def block_count(self) -> int:
        return sum(e.count for e in self._extents)

    @property
    def last_logical(self) -> int:
        """One past the highest mapped file block (0 if empty)."""
        if not self._extents:
            return 0
        return self._extents[-1].logical_end

    def lookup(self, file_block: int) -> Optional[Tuple[int, int]]:
        """(physical block, run length from here) or None for a hole."""
        idx = bisect.bisect_right(self._keys, file_block) - 1
        if idx < 0:
            return None
        ext = self._extents[idx]
        offset = file_block - ext.logical
        left = ext.count - offset
        if left <= 0:
            return None
        return ext.physical + offset, left

    def next_mapped(self, file_block: int) -> Optional[int]:
        """First mapped file block at or after ``file_block``.

        Lets hole scans jump straight to the end of an unmapped run
        instead of probing block by block.  None when nothing at or
        after ``file_block`` is mapped.
        """
        idx = bisect.bisect_right(self._keys, file_block) - 1
        if idx >= 0 and self._extents[idx].contains(file_block):
            return file_block
        if idx + 1 < len(self._extents):
            return self._extents[idx + 1].logical
        return None

    def insert(self, extent: Extent) -> None:
        """Insert a mapping; overlapping an existing one is a bug."""
        idx = bisect.bisect_left(self._keys, extent.logical)
        for neighbor in (idx - 1, idx):
            if 0 <= neighbor < len(self._extents):
                other = self._extents[neighbor]
                if (extent.logical < other.logical_end
                        and other.logical < extent.logical_end):
                    raise ValueError(
                        f"extent overlap: {extent} vs {other}"
                    )
        self._extents.insert(idx, extent)
        self._keys.insert(idx, extent.logical)
        self._merge_around(max(idx - 1, 0))

    def _merge_around(self, idx: int) -> None:
        while idx + 1 < len(self._extents):
            a, b = self._extents[idx], self._extents[idx + 1]
            if (a.logical_end == b.logical
                    and a.physical + a.count == b.physical):
                self._extents[idx:idx + 2] = [
                    Extent(a.logical, a.physical, a.count + b.count)
                ]
                del self._keys[idx + 1]
            else:
                idx += 1

    def truncate(self, new_block_count: int) -> List[Tuple[int, int]]:
        """Drop mappings at/after ``new_block_count``.

        Returns the freed (physical, count) runs for the allocator.
        """
        if new_block_count < 0:
            raise ValueError("negative truncate target")
        freed: List[Tuple[int, int]] = []
        kept: List[Extent] = []
        for ext in self._extents:
            if ext.logical_end <= new_block_count:
                kept.append(ext)
            elif ext.logical >= new_block_count:
                freed.append((ext.physical, ext.count))
            else:
                keep = new_block_count - ext.logical
                kept.append(Extent(ext.logical, ext.physical, keep))
                freed.append((ext.physical + keep, ext.count - keep))
        self._extents = kept
        self._keys = [e.logical for e in kept]
        return freed

    def physical_runs(self) -> List[Tuple[int, int]]:
        return [(e.physical, e.count) for e in self._extents]

    def mappings(self) -> List[Tuple[int, int, int]]:
        """(logical, physical, count) triples, logical order."""
        return [(e.logical, e.physical, e.count) for e in self._extents]

    def check_invariants(self) -> None:
        prev_end = -1
        for ext in self._extents:
            if ext.logical < prev_end:
                raise AssertionError(f"extent out of order: {ext}")
            prev_end = ext.logical_end


class ExtentStatusCache:
    """Tracks which inodes' extent maps are resident in memory.

    A miss means the filesystem must read mapping metadata from the
    device before it can hand out LBAs — the cold-fmap penalty.
    """

    def __init__(self):
        self._resident: set = set()
        self.hits = 0
        self.misses = 0

    def is_cached(self, ino: int) -> bool:
        if ino in self._resident:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def mark_cached(self, ino: int) -> None:
        self._resident.add(ino)

    def evict(self, ino: int) -> None:
        self._resident.discard(ino)

    def clear(self) -> None:
        self._resident.clear()
