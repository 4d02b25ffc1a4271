"""x86-64-style radix page tables with BypassD's File Table Entries.

The tree has four levels (PGD, PUD, PMD, PT), 512 entries each, mapping
48-bit virtual addresses at 4 KB granularity.  Every node's entries are
one ``array("Q")`` of 512 unsigned 64-bit integers — exactly the 4 KiB
page that ``memory_bytes`` charges per node — and each entry is
bit-packed so that the FTE format of the paper's Figure 3 —
DevID | FT | Logical Block Address | ... | R/W — is represented
faithfully and round-trips through encode/decode.  A :class:`RunLeaf`
(a leaf one extent run covers whole) builds that array on first read.

Bit layout (leaf entries):

    bit  0       PRESENT
    bit  1       WRITABLE (R/W)
    bit  2       USER
    bits 12..51  PFN (regular PTE) or LBA (file table entry)
    bits 52..57  DevID (FTEs only; software-available bits)
    bit  58      FT — distinguishes an FTE from a regular PTE

Interior entries carry PRESENT/WRITABLE/USER only; the child node is a
Python object reference.  Effective writability is the AND of the
writable bits along the walk, which is exactly how BypassD grants
per-process read-only views of shared, maximally-permissive file
tables (Section 4.1, Figure 4).
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "ENTRIES_PER_NODE",
    "LEVEL_PT",
    "LEVEL_PMD",
    "LEVEL_PUD",
    "LEVEL_PGD",
    "PMD_SPAN",
    "PUD_SPAN",
    "pte_encode",
    "fte_encode",
    "fte_range",
    "fill_run",
    "fte_block",
    "pte_present",
    "pte_writable",
    "pte_user",
    "pte_is_fte",
    "pte_pfn",
    "fte_lba",
    "fte_devid",
    "PageTableNode",
    "RunLeaf",
    "WalkResult",
    "PageTable",
    "level_span",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
INDEX_BITS = 9
ENTRIES_PER_NODE = 1 << INDEX_BITS

LEVEL_PT = 1
LEVEL_PMD = 2
LEVEL_PUD = 3
LEVEL_PGD = 4

PMD_SPAN = ENTRIES_PER_NODE * PAGE_SIZE          # 2 MiB
PUD_SPAN = ENTRIES_PER_NODE * PMD_SPAN           # 1 GiB
VA_BITS = PAGE_SHIFT + 4 * INDEX_BITS            # 48
VA_LIMIT = 1 << VA_BITS

_PRESENT = 1 << 0
_WRITABLE = 1 << 1
_USER = 1 << 2
_FT = 1 << 58
_FRAME_SHIFT = 12
_FRAME_MASK = ((1 << 40) - 1) << _FRAME_SHIFT
_FRAME_STEP = 1 << _FRAME_SHIFT  # between entries of consecutive frames
_PFN_LIMIT = 1 << 40
_DEVID_SHIFT = 52
_DEVID_MASK = 0x3F << _DEVID_SHIFT
# Index extraction in ``PageTable.lookup``.
_INDEX_MASK = ENTRIES_PER_NODE - 1
_PMD_SHIFT = PAGE_SHIFT + INDEX_BITS
_PUD_SHIFT = _PMD_SHIFT + INDEX_BITS
_PGD_SHIFT = _PUD_SHIFT + INDEX_BITS


# Byte templates for ``fte_block``.  Inside one run, consecutive FTEs
# differ only in the LBA field; little-endian, LBA bits 0-3 are the high
# nibble of byte 1 and bits 4-11 are byte 2.  ``_BYTE1[t]`` and
# ``_BYTE2[t]`` are those bytes of LBA ``t``.  They repeat every 16 and
# 4096 LBAs, and each template runs 512 entries past its last start.
_BYTE1 = bytes(range(0, 256, 16)) * 33
_BYTE2 = b"".join(bytes((v,)) * 16 for v in range(256))
_BYTE2 += _BYTE2[:ENTRIES_PER_NODE]


def level_span(level: int) -> int:
    """Bytes of VA space covered by one entry at ``level``."""
    if not LEVEL_PT <= level <= LEVEL_PGD:
        raise ValueError(f"bad page-table level {level}")
    return PAGE_SIZE << (INDEX_BITS * (level - 1))


def _index(va: int, level: int) -> int:
    return (va >> (PAGE_SHIFT + INDEX_BITS * (level - 1))) & (ENTRIES_PER_NODE - 1)


def pte_encode(pfn: int, writable: bool = True, user: bool = True,
               present: bool = True) -> int:
    """Encode a regular page table entry."""
    if pfn < 0 or pfn >= _PFN_LIMIT:
        raise ValueError(f"PFN out of range: {pfn}")
    entry = (pfn << _FRAME_SHIFT) & _FRAME_MASK
    if present:
        entry |= _PRESENT
    if writable:
        entry |= _WRITABLE
    if user:
        entry |= _USER
    return entry


def fte_encode(lba: int, devid: int, writable: bool = True,
               present: bool = True) -> int:
    """Encode a File Table Entry (paper Figure 3)."""
    if devid < 0 or devid > 0x3F:
        raise ValueError(f"DevID out of range: {devid}")
    entry = pte_encode(lba, writable=writable, user=True, present=present)
    entry |= _FT
    entry |= (devid << _DEVID_SHIFT) & _DEVID_MASK
    return entry


def fte_range(lba: int, count: int, devid: int,
              writable: bool = True) -> range:
    """FTEs of ``count`` consecutive device pages starting at ``lba``.

    Encoding both ends checks the DevID and the LBA range of the whole
    run; the entries in between differ by one frame each.
    """
    if count <= 0:
        raise ValueError("empty range")
    first = fte_encode(lba, devid, writable=writable)
    last = fte_encode(lba + count - 1, devid, writable=writable)
    return range(first, last + _FRAME_STEP, _FRAME_STEP)


def fte_block(first: int, count: int) -> "array[int]":
    """The ``count <= 512`` entries that count up one frame at a time
    from the FTE ``first``, as an exact ``array("Q")`` copy.

    Entries of LBAs in one 4096-LBA block share bytes 0 and 3-7, so the
    block's first entry, repeated, lays those down and two strided
    slice assignments copy bytes 1 and 2 in from the templates.  A run
    of at most 512 crosses at most one block boundary, where a second
    base takes over.  The caller has checked that the last entry is a
    valid encoding (``fte_range``), so no LBA carries into the DevID.
    """
    lba = (first >> _FRAME_SHIFT) & 0xFFF
    block = bytearray(first.to_bytes(8, "little") * count)
    split = 0x1000 - lba
    if split < count:
        second = first + split * _FRAME_STEP
        block[split * 8:] = second.to_bytes(8, "little") * (count - split)
    block[1::8] = _BYTE1[lba & 0xF:(lba & 0xF) + count]
    block[2::8] = _BYTE2[lba:lba + count]
    entries = array("Q", block)
    if sys.byteorder == "big":
        entries.byteswap()
    # ``array("Q", bytes)`` over-allocates by about 7 %; the slice is an
    # exact copy, so a leaf costs the host the page it models.
    return entries[:]


def fill_run(entries: "array[int]", slot: int, run: range) -> None:
    """Write ``run``, a slice of what ``fte_range`` returned, to
    ``entries[slot:slot + len(run)]``."""
    entries[slot:slot + len(run)] = fte_block(run.start, len(run))


def pte_present(entry: int) -> bool:
    return bool(entry & _PRESENT)


def pte_writable(entry: int) -> bool:
    return bool(entry & _WRITABLE)


def pte_user(entry: int) -> bool:
    return bool(entry & _USER)


def pte_is_fte(entry: int) -> bool:
    return bool(entry & _FT)


def pte_pfn(entry: int) -> int:
    return (entry & _FRAME_MASK) >> _FRAME_SHIFT


def fte_lba(entry: int) -> int:
    """FTEs store an LBA where a PTE stores a PFN."""
    return pte_pfn(entry)


def fte_devid(entry: int) -> int:
    return (entry & _DEVID_MASK) >> _DEVID_SHIFT


class PageTableNode:
    """One 512-entry node.  Interior nodes also hold child references."""

    __slots__ = ("level", "entries", "children")

    def __init__(self, level: int):
        if not LEVEL_PT <= level <= LEVEL_PGD:
            raise ValueError(f"bad node level {level}")
        self.level = level
        self.entries = array("Q", [0]) * ENTRIES_PER_NODE
        self.children: Optional[List[Optional["PageTableNode"]]] = (
            None if level == LEVEL_PT else [None] * ENTRIES_PER_NODE
        )

    def present_count(self) -> int:
        return sum(1 for e in self.entries if pte_present(e))

    def iter_present(self) -> Iterator[Tuple[int, int]]:
        for idx, entry in enumerate(self.entries):
            if pte_present(entry):
                yield idx, entry

    def node_count(self) -> int:
        """Nodes in this subtree (memory-overhead accounting)."""
        total = 1
        if self.children is not None:
            for child in self.children:
                if child is not None:
                    total += child.node_count()
        return total


class RunLeaf(PageTableNode):
    """A PT leaf whose 512 entries count up one frame at a time from
    the FTE ``first``: a 2 MiB stretch that one extent run covers whole.

    The leaf holds only ``first`` until something reads ``entries``; that
    read fills the slot once with :func:`fte_block`, and every later read
    (a walk, an in-place update) is a plain slot access.  Process page
    tables link the leaf object itself, so the first read from any of
    them builds it for all.
    """

    __slots__ = ("first",)

    def __init__(self, first: int):
        self.level = LEVEL_PT
        self.children = None
        self.first = first

    def __getattr__(self, name: str):
        # Only reached while a slot is unset.
        if name != "entries":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        entries = self.entries = fte_block(self.first, ENTRIES_PER_NODE)
        return entries


class WalkResult:
    """Outcome of a software/hardware page walk: the leaf ``entry``
    (0 if not present) and the ``level`` at which the walk ended."""

    def __init__(self, entry: int, level: int,
                 effective_writable: bool) -> None:
        self.entry = entry
        self.level = level
        self.effective_writable = effective_writable

    @property
    def present(self) -> bool:
        return pte_present(self.entry)

    @property
    def is_fte(self) -> bool:
        return self.present and pte_is_fte(self.entry)


class PageTable:
    """A process page-table tree (one per address space / PASID)."""

    def __init__(self):
        self.root = PageTableNode(LEVEL_PGD)

    # -- regular mappings ------------------------------------------------

    def map_page(self, va: int, pfn: int, writable: bool = True) -> None:
        self._set_leaf(va, pte_encode(pfn, writable=writable))

    def map_pages(self, va: int, pfns: Sequence[int],
                  writable: bool = True) -> None:
        """``map_page(va + i * PAGE_SIZE, pfns[i])`` for every ``i``,
        with one leaf lookup and one slice assignment per leaf.

        A bad PFN or VA raises the error the per-page loop would raise
        first, before any page is mapped.
        """
        count = len(pfns)
        if not count:
            return
        # Pages [0, fits) lie inside the 48-bit VA space; the loop
        # checks a page's PFN before its VA.
        fits = (0 if va < 0 else
                min(count, max(0, -(-(VA_LIMIT - va) // PAGE_SIZE))))
        reached = pfns[:fits + 1]
        if reached and (min(reached) < 0 or max(reached) >= _PFN_LIMIT):
            bad = next(p for p in reached if not 0 <= p < _PFN_LIMIT)
            raise ValueError(f"PFN out of range: {bad}")
        if fits < count:
            self._check_va(va + fits * PAGE_SIZE)
        flags = _PRESENT | _USER | (_WRITABLE if writable else 0)
        entries = array("Q", [pfn << _FRAME_SHIFT | flags for pfn in pfns])
        done = 0
        while done < count:
            page_va = va + done * PAGE_SIZE
            node = self._leaf_node(page_va, create=True)
            assert node is not None
            slot = _index(page_va, LEVEL_PT)
            n = min(count - done, ENTRIES_PER_NODE - slot)
            node.entries[slot:slot + n] = entries[done:done + n]
            done += n

    def map_file_page(self, va: int, lba: int, devid: int,
                      writable: bool = True) -> None:
        self._set_leaf(va, fte_encode(lba, devid, writable=writable))

    def unmap_page(self, va: int) -> None:
        node = self._leaf_node(va, create=False)
        if node is not None:
            node.entries[_index(va, LEVEL_PT)] = 0

    def _set_leaf(self, va: int, entry: int) -> None:
        node = self._leaf_node(va, create=True)
        assert node is not None
        node.entries[_index(va, LEVEL_PT)] = entry

    def _leaf_node(self, va: int, create: bool) -> Optional[PageTableNode]:
        self._check_va(va)
        node = self.root
        for level in (LEVEL_PGD, LEVEL_PUD, LEVEL_PMD):
            idx = _index(va, level)
            assert node.children is not None
            child = node.children[idx]
            if child is None:
                if not create:
                    return None
                child = PageTableNode(level - 1)
                node.children[idx] = child
                node.entries[idx] = _PRESENT | _WRITABLE | _USER
            node = child
        return node

    # -- subtree attach/detach (warm fmap) ---------------------------------

    def attach_subtree(self, va: int, subtree: PageTableNode,
                       writable: bool) -> None:
        """Link a shared subtree at the entry covering ``va``.

        ``va`` must be aligned to the subtree's span.  The attach
        entry's R/W bit carries this process's open permission while the
        shared entries below keep maximum rights (Section 4.1).
        """
        span = level_span(subtree.level + 1)
        if va % span:
            raise ValueError(
                f"attach VA {va:#x} not aligned to {span:#x} for "
                f"level-{subtree.level} subtree"
            )
        parent = self._interior_node(va, subtree.level + 1, create=True)
        idx = _index(va, subtree.level + 1)
        assert parent.children is not None
        if parent.children[idx] is not None:
            raise ValueError(f"VA {va:#x} already mapped")
        parent.children[idx] = subtree
        flags = _PRESENT | _USER | (_WRITABLE if writable else 0)
        parent.entries[idx] = flags

    def detach_subtree(self, va: int, subtree_level: int) -> Optional[PageTableNode]:
        """Unlink (and return) the subtree attached at ``va``."""
        parent = self._interior_node(va, subtree_level + 1, create=False)
        if parent is None:
            return None
        idx = _index(va, subtree_level + 1)
        assert parent.children is not None
        child = parent.children[idx]
        parent.children[idx] = None
        parent.entries[idx] = 0
        return child

    def attach_leaves(self, va: int,
                      leaves: Sequence[Optional[PageTableNode]],
                      runs: Sequence[Tuple[int, int]],
                      writable: bool) -> None:
        """Batched ``attach_subtree``: link ``leaves[i]`` at
        ``va + i * PMD_SPAN`` for every ``i`` of the ``(first, count)``
        runs, which are ascending and disjoint (they may touch).

        The PMD node is resolved once per run inside one 1 GiB span,
        and the run is linked with one slice assignment.  The alignment
        and "already mapped" errors name the VA the per-leaf calls
        would, and are raised before anything is linked.
        """
        if not runs:
            return
        if va % PMD_SPAN:
            first = va + runs[0][0] * PMD_SPAN
            raise ValueError(
                f"attach VA {first:#x} not aligned to {PMD_SPAN:#x} for "
                f"level-{LEVEL_PT} subtree"
            )
        split = self._leaf_runs(va, runs)
        for start, slot, count in split:
            run = leaves[start:start + count]
            # Nodes are always true, so ``all`` finds a hole without the
            # equality test that ``None in run`` makes per leaf.
            if len(run) < count or not all(run):
                raise ValueError(f"no leaf to attach at index {start}")
            node = self._interior_node(va + start * PMD_SPAN, LEVEL_PMD,
                                       create=False)
            if node is None:
                continue
            assert node.children is not None
            linked = node.children[slot:slot + count]
            if linked.count(None) != count:
                busy = next(j for j, child in enumerate(linked)
                            if child is not None)
                raise ValueError(
                    f"VA {va + (start + busy) * PMD_SPAN:#x} already mapped")
        flags = _PRESENT | _USER | (_WRITABLE if writable else 0)
        for start, slot, count in split:
            node = self._interior_node(va + start * PMD_SPAN, LEVEL_PMD,
                                       create=True)
            assert node is not None and node.children is not None
            node.children[slot:slot + count] = leaves[start:start + count]
            node.entries[slot:slot + count] = array("Q", [flags]) * count

    def detach_leaves(self, va: int,
                      runs: Sequence[Tuple[int, int]]) -> None:
        """Batched ``detach_subtree``: unlink the leaves at
        ``va + i * PMD_SPAN`` for every ``i`` of the ascending, disjoint
        ``(first, count)`` runs."""
        for start, slot, count in self._leaf_runs(va, runs):
            node = self._interior_node(va + start * PMD_SPAN, LEVEL_PMD,
                                       create=False)
            if node is None:
                continue
            assert node.children is not None
            node.children[slot:slot + count] = [None] * count
            node.entries[slot:slot + count] = array("Q", [0]) * count

    def _leaf_runs(self, va: int, runs: Sequence[Tuple[int, int]]
                   ) -> List[Tuple[int, int, int]]:
        """Split ascending ``(first, count)`` leaf runs at PMD-node
        boundaries into ``(first offset, PMD slot, count)``."""
        if not runs:
            return []
        self._check_va(va + runs[0][0] * PMD_SPAN)
        self._check_va(va + (runs[-1][0] + runs[-1][1] - 1) * PMD_SPAN)
        split: List[Tuple[int, int, int]] = []
        for start, count in runs:
            while count:
                slot = _index(va + start * PMD_SPAN, LEVEL_PMD)
                n = min(count, ENTRIES_PER_NODE - slot)
                split.append((start, slot, n))
                start += n
                count -= n
        return split

    def _interior_node(self, va: int, entry_level: int,
                       create: bool) -> Optional[PageTableNode]:
        """Node holding the entry at ``entry_level`` covering ``va``."""
        self._check_va(va)
        node = self.root
        level = LEVEL_PGD
        while level > entry_level:
            idx = _index(va, level)
            assert node.children is not None
            child = node.children[idx]
            if child is None:
                if not create:
                    return None
                child = PageTableNode(level - 1)
                node.children[idx] = child
                node.entries[idx] = _PRESENT | _WRITABLE | _USER
            node = child
            level -= 1
        return node

    # -- walking ---------------------------------------------------------

    def lookup(self, va: int) -> Tuple[int, bool, int]:
        """Resolve ``va`` to ``(leaf entry, effective writable, level)``.

        The entry is 0 and ``level`` is where the walk stopped when
        nothing is mapped.  Every ATS request walks, so the three
        interior levels are unrolled and the tests of :meth:`_check_va`,
        :func:`_index`, :func:`pte_present` and :func:`pte_writable` are
        inlined; ``_check_va`` only raises.  An interior node without
        ``children`` (a leaf linked too high) fails on the subscript.
        """
        if va < 0 or va >= VA_LIMIT:
            self._check_va(va)
        node = self.root
        idx = (va >> _PGD_SHIFT) & _INDEX_MASK
        pgd = node.entries[idx]
        if not pgd & _PRESENT:
            return 0, False, LEVEL_PGD
        node = node.children[idx]
        if node is None:
            return 0, False, LEVEL_PGD
        idx = (va >> _PUD_SHIFT) & _INDEX_MASK
        pud = node.entries[idx]
        if not pud & _PRESENT:
            return 0, False, LEVEL_PUD
        node = node.children[idx]
        if node is None:
            return 0, False, LEVEL_PUD
        idx = (va >> _PMD_SHIFT) & _INDEX_MASK
        pmd = node.entries[idx]
        if not pmd & _PRESENT:
            return 0, False, LEVEL_PMD
        node = node.children[idx]
        if node is None:
            return 0, False, LEVEL_PMD
        leaf = node.entries[(va >> PAGE_SHIFT) & _INDEX_MASK]
        if not leaf & _PRESENT:
            return 0, False, LEVEL_PT
        return leaf, bool(pgd & pud & pmd & leaf & _WRITABLE), LEVEL_PT

    def walk(self, va: int) -> WalkResult:
        """:meth:`lookup` as a :class:`WalkResult`."""
        entry, writable, level = self.lookup(va)
        return WalkResult(entry, level, writable)

    # -- accounting ---------------------------------------------------------

    def node_count(self) -> int:
        return self.root.node_count()

    def memory_bytes(self) -> int:
        """Page-table memory, one 4 KB page per node (as on x86-64)."""
        return self.node_count() * PAGE_SIZE

    @staticmethod
    def _check_va(va: int) -> None:
        if va < 0 or va >= VA_LIMIT:
            raise ValueError(f"VA out of 48-bit range: {va:#x}")
