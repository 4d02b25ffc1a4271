"""File tables: the pre-populated, shared FTE subtrees (Section 4.1).

A file table is a sequence of page-table *leaf* nodes whose entries are
File Table Entries — LBA-in-place-of-PFN, FT bit set, DevID recorded
(Figure 3).  The kernel builds them bottom-up from the file's extent
tree, caches them in the VFS inode, and attaches them to a process's
page table at PMD granularity with plain pointer updates, which makes
the *warm* fmap nearly constant-time per 2 MB of file.

Entries live at the exact leaf slot of their logical file page, so
sparse files (holes punched by out-of-order writes) work: a hole is an
absent entry, which the IOMMU turns into a translation fault and
UserLib into a kernel-path retry.  Filling a hole or growing the tail
updates the shared leaves in place — visible to every attached process
at once; only brand-new leaves need (re-)attachment.

A leaf that one extent run covers whole is held as its first FTE until
first touched (:class:`~repro.hw.pagetable.RunLeaf`): the first walk,
``fill_run``, ``truncate_pages``, ``has_entry`` or ``iter_present`` that
reads it builds its 512 entries, once, for every process that links it.
A cold build therefore stores one FTE per whole 2 MiB leaf; the
simulated cost still charges ``fte_write_ns`` for every FTE, as the
kernel writes them all, and ``memory_bytes`` still one page per leaf.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from ..hw.pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_PT,
    PMD_SPAN,
    PageTableNode,
    RunLeaf,
    fill_run,
    fte_range,
    pte_present,
)
from ..hw.params import HardwareParams

__all__ = ["FileTable", "build_file_table", "PAGES_PER_LEAF"]

PAGES_PER_LEAF = ENTRIES_PER_NODE  # 512 pages -> one leaf spans 2 MiB
PAGE = 4096

Mapping = Tuple[int, int, int]  # (logical page, device page, count)


class FileTable:
    """The cached file-table subtree for one inode; ``pages`` is one
    past the highest mapped page."""

    def __init__(self, devid: int,
                 leaves: Optional[List[PageTableNode]] = None,
                 pages: int = 0, build_cost_ns: int = 0) -> None:
        self.devid = devid
        self.leaves: List[PageTableNode] = [] if leaves is None else leaves
        self.pages = pages
        self.build_cost_ns = build_cost_ns

    @property
    def span_bytes(self) -> int:
        return len(self.leaves) * PMD_SPAN

    def memory_bytes(self) -> int:
        """FTE memory overhead: one 4 KB page per leaf (Section 6.3)."""
        return (len(self.leaves) - self.leaves.count(None)) * PAGE

    def leaf_runs(self) -> List[Tuple[int, int]]:
        """``(first index, count)`` runs of allocated leaves, ascending;
        holes have none.

        One C-level scan finds each hole, so a table takes one Python
        step per hole and none per leaf.  Leaves are always true, so
        ``all`` rules out holes without the equality test per leaf that
        ``count(None)`` makes.
        """
        runs: List[Tuple[int, int]] = []
        start = 0
        holes = 0 if all(self.leaves) else self.leaves.count(None)
        for _ in range(holes):
            hole = self.leaves.index(None, start)
            if hole > start:
                runs.append((start, hole - start))
            start = hole + 1
        if start < len(self.leaves):
            runs.append((start, len(self.leaves) - start))
        return runs

    # -- construction / growth -----------------------------------------------

    def set_range(self, logical: int, device_page: int, count: int,
                  params: HardwareParams) -> Tuple[List[int], int]:
        """Install FTEs for ``count`` pages starting at ``logical``.

        Returns (indices of leaves newly created, cost_ns).  Existing
        leaves are updated in place (shared-table visibility).
        """
        if logical < 0:
            raise ValueError(f"negative logical page: {logical}")
        # Shared entries carry maximum rights; the per-process R/W bit
        # lives at the private attach point (Figure 4).  ``fte_range``
        # checks the whole run before the table changes.
        entries = fte_range(device_page, count, self.devid, writable=True)
        new_leaves: List[int] = []
        end = logical + count
        last_leaf = (end - 1) // PAGES_PER_LEAF
        self.leaves.extend([None] * (last_leaf + 1 - len(self.leaves)))
        leaf_idx, slot = divmod(logical, PAGES_PER_LEAF)
        done = 0
        while done < count:
            n = min(PAGES_PER_LEAF - slot, count - done)
            leaf = self.leaves[leaf_idx]
            if leaf is None and n == PAGES_PER_LEAF:
                # Whole new leaves, up to the run's tail or the next
                # existing leaf, keep their first FTE until first read.
                stop = leaf_idx + (count - done) // PAGES_PER_LEAF
                span = self.leaves[leaf_idx:stop]
                if any(span):
                    stop = leaf_idx + next(i for i, node in enumerate(span)
                                           if node is not None)
                n = (stop - leaf_idx) * PAGES_PER_LEAF
                self.leaves[leaf_idx:stop] = map(
                    RunLeaf, entries[done:done + n:PAGES_PER_LEAF])
                new_leaves.extend(range(leaf_idx, stop))
                leaf_idx = stop
            else:
                if leaf is None:
                    leaf = self.leaves[leaf_idx] = PageTableNode(LEVEL_PT)
                    new_leaves.append(leaf_idx)
                fill_run(leaf.entries, slot, entries[done:done + n])
                leaf_idx += 1
            done += n
            slot = 0
        self.pages = max(self.pages, end)
        cost = count * params.fte_write_ns
        self.build_cost_ns += cost
        return new_leaves, cost

    def populate(self, mappings: List[Mapping],
                 params: HardwareParams) -> int:
        """Cold build from the extent tree's (logical, phys, count)."""
        for logical, device_page, count in mappings:
            self.set_range(logical, device_page, count, params)
        return self.pages

    # -- shrink ------------------------------------------------------------

    def truncate_pages(self, keep_pages: int) -> List[int]:
        """Clear entries at/after ``keep_pages``.

        Returns indices of leaves dropped entirely (callers detach
        those from every attached address space).
        """
        if keep_pages < 0:
            raise ValueError("negative page count")
        if keep_pages >= self.pages:
            return []
        first_dead_leaf = -(-keep_pages // PAGES_PER_LEAF)
        leaf_idx, slot = divmod(keep_pages, PAGES_PER_LEAF)
        if slot and self.leaves[leaf_idx] is not None:
            # No entry lies at or past ``pages``, so the cut leaf's
            # whole tail can be cleared.
            self.leaves[leaf_idx].entries[slot:] = (
                array("Q", [0]) * (PAGES_PER_LEAF - slot))
        dead = [idx for idx in range(first_dead_leaf, len(self.leaves))
                if self.leaves[idx] is not None]
        del self.leaves[first_dead_leaf:]
        self.pages = keep_pages
        return dead

    # -- introspection -----------------------------------------------------

    def entry_count(self) -> int:
        return sum(leaf.present_count() for leaf in self.leaves
                   if leaf is not None)

    def has_entry(self, page: int) -> bool:
        leaf_idx, slot = divmod(page, PAGES_PER_LEAF)
        if (page < 0 or leaf_idx >= len(self.leaves)
                or self.leaves[leaf_idx] is None):
            return False
        return pte_present(self.leaves[leaf_idx].entries[slot])

    def check_dense(self) -> None:
        """For hole-free files: entries dense in [0, pages)."""
        seen = 0
        for leaf in self.leaves:
            for slot in range(ENTRIES_PER_NODE):
                present = (leaf is not None
                           and pte_present(leaf.entries[slot]))
                expected = seen < self.pages
                if present != expected:
                    raise AssertionError(
                        f"file table density broken at page {seen}"
                    )
                seen += 1
        if seen < self.pages:
            raise AssertionError("file table shorter than page count")


def build_file_table(mappings: List[Mapping], devid: int,
                     params: HardwareParams) -> FileTable:
    """Cold build: create and populate a file table from mappings."""
    table = FileTable(devid=devid)
    table.populate(mappings, params)
    return table
