"""IOMMU model with BypassD's VBA->LBA translation extension.

The baseline IOMMU translates IO-virtual addresses of DMA buffers and
caches results in an IOTLB.  BypassD's extension (Section 3.5, 4.3)
lets a device send a PCIe ATS request carrying a *Virtual Block
Address*; the IOMMU walks the requesting process's page table (found
via the PASID bound to the NVMe queue), interprets leaf entries with
the FT bit set as File Table Entries, checks R/W permission and DevID,
and returns one or more (LBA, length) pairs.

Timing follows the paper's measurements:

- IOTLB hit: ~+7 ns per translation (Table 4: +14 ns for a 2-buffer copy).
- Full walk below cached upper levels: 3 memory references ≈ 183 ns.
- One leaf cacheline holds 8 entries, so a single extra memory
  reference extends a translation by up to 8 pages (32 KB), giving the
  nearly-flat Figure 5 curve.
- VBA translation = PCIe round trip (345 ns) + ATS processing (22 ns)
  + walk ≥ 183 ns, bottoming out at the paper's 550 ns.

Per the paper, FTEs are *not* inserted into the IOTLB by default
(block accesses rarely show temporal locality and would pollute it);
``cache_ftes=True`` enables the ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .pagetable import (
    _DEVID_MASK,
    _DEVID_SHIFT,
    _FRAME_MASK,
    _FRAME_SHIFT,
    _FT,
    _PRESENT,
    PAGE_SHIFT,
    PAGE_SIZE,
    PageTable,
    fte_devid,
    pte_is_fte,
    pte_pfn,
)
from .params import HardwareParams
from .pcie import PCIeLink

__all__ = ["IOMMU", "TranslationFault", "AtsResult"]

_ENTRIES_PER_CACHELINE = 8  # 64 B / 8 B
_LEAF_SHIFT = PAGE_SHIFT + 9  # VA bits below one leaf node's 2 MiB


class TranslationFault(Exception):
    """IOMMU could not translate (unmapped, bad permission, DevID...)."""

    def __init__(self, reason: str, va: int = 0, pasid: int = 0):
        super().__init__(f"{reason} (va={va:#x}, pasid={pasid})")
        self.reason = reason
        self.va = va
        self.pasid = pasid


def _vba_fault(entry: Optional[int], requester_devid: int, va: int,
               pasid: int) -> TranslationFault:
    """The fault for a VBA page that failed the FTE or the write check.

    ``entry`` is the walked leaf entry, or None for an IOTLB-cached
    translation, which can only fail the write check.  The reasons are
    tested in this order: no FTE, regular PTE, DevID, read-only.
    """
    if entry is not None:
        if not entry & _PRESENT:
            return TranslationFault("no file table entry", va=va, pasid=pasid)
        if not entry & _FT:
            return TranslationFault("regular PTE in block translation",
                                    va=va, pasid=pasid)
        if fte_devid(entry) != requester_devid:
            return TranslationFault(
                f"DevID mismatch (FTE dev {fte_devid(entry)}, "
                f"requester {requester_devid})", va=va, pasid=pasid)
    return TranslationFault("write to read-only file mapping",
                            va=va, pasid=pasid)


class AtsResult:
    """Reply to a device's ATS translation request."""

    __slots__ = ("pairs", "cost_ns")

    def __init__(self, pairs: List[Tuple[int, int]], cost_ns: int):
        self.pairs = pairs        # (LBA, length-in-blocks-of-PAGE_SIZE)
        self.cost_ns = cost_ns

    @property
    def total_pages(self) -> int:
        return sum(length for _, length in self.pairs)


class _LRU:
    """Tiny LRU cache used for the IOTLB and the walk caches."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._map: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if key in self._map:
            self._map.move_to_end(key)
            self.hits += 1
            return self._map[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        if key in self._map:
            self._map.move_to_end(key)
        self._map[key] = value
        if len(self._map) > self.capacity:
            self._map.popitem(last=False)

    def invalidate(self, predicate) -> int:
        doomed = [k for k in self._map if predicate(k)]
        for k in doomed:
            del self._map[k]
        return len(doomed)

    def clear(self) -> None:
        self._map.clear()

    def __len__(self) -> int:
        return len(self._map)


class IOMMU:
    """One IOMMU instance shared by all devices behind a root complex."""

    def __init__(self, params: HardwareParams, cache_ftes: bool = False,
                 nested: bool = False):
        self.params = params
        self.cache_ftes = cache_ftes
        # Nested translation (guest inside a VM with Scalable-IOV /
        # SR-IOV, Section 5.2): VBAs go through a two-dimensional walk.
        self.nested = nested
        self._pasids: Dict[int, PageTable] = {}
        self.iotlb = _LRU(params.iotlb_entries)
        self.walk_cache = _LRU(params.walk_cache_entries)
        self.enabled = True
        self.ats_requests = 0
        self.pagewalks = 0
        # ``HardwareParams`` is frozen: the per-request terms are fixed.
        self._ats_ns = params.pcie_round_trip_ns + params.ats_processing_ns
        self._walk_ns = params.full_pagewalk_ns()
        self._hit_ns = params.iotlb_hit_ns

    # -- PASID management (SVA) ---------------------------------------------

    def bind_pasid(self, pasid: int, table: PageTable) -> None:
        if pasid in self._pasids:
            raise ValueError(f"PASID {pasid} already bound")
        self._pasids[pasid] = table

    def unbind_pasid(self, pasid: int) -> None:
        self._pasids.pop(pasid, None)
        self.iotlb.invalidate(lambda key: key[0] == pasid)
        self.walk_cache.invalidate(lambda key: key[0] == pasid)

    def table_for(self, pasid: int) -> PageTable:
        try:
            return self._pasids[pasid]
        except KeyError:
            raise TranslationFault("unbound PASID", pasid=pasid) from None

    # -- invalidation ------------------------------------------------------

    def invalidate_range(self, pasid: int, va: int, nbytes: int) -> None:
        """Flush cached translations covering [va, va+nbytes)."""
        first = va >> PAGE_SHIFT
        last = (va + max(nbytes, 1) - 1) >> PAGE_SHIFT

        def doomed(key) -> bool:
            key_pasid, vpn = key
            return key_pasid == pasid and first <= vpn <= last

        self.iotlb.invalidate(doomed)
        self.walk_cache.invalidate(lambda key: key[0] == pasid)

    # -- IOVA translation (DMA buffers; classic IOMMU duty) -------------------

    def translate_iova(self, pasid: int, iova: int,
                       write: bool) -> Tuple[int, int]:
        """Translate one page; returns (pfn, cost_ns)."""
        if not self.enabled:
            return iova >> PAGE_SHIFT, 0
        vpn = iova >> PAGE_SHIFT
        cached = self.iotlb.get((pasid, vpn))
        if cached is not None:
            pfn, writable = cached
            if write and not writable:
                raise TranslationFault("write to read-only mapping",
                                       va=iova, pasid=pasid)
            return pfn, self.params.iotlb_hit_ns
        table = self.table_for(pasid)
        result = table.walk(iova & ~(PAGE_SIZE - 1))
        self.pagewalks += 1
        cost = self.params.iotlb_hit_ns + self.params.full_pagewalk_ns()
        if not result.present:
            raise TranslationFault("not present", va=iova, pasid=pasid)
        if pte_is_fte(result.entry):
            raise TranslationFault("FTE used as DMA address",
                                   va=iova, pasid=pasid)
        if write and not result.effective_writable:
            raise TranslationFault("write to read-only mapping",
                                   va=iova, pasid=pasid)
        pfn = pte_pfn(result.entry)
        self.iotlb.put((pasid, vpn), (pfn, result.effective_writable))
        return pfn, cost

    # -- VBA translation (the BypassD extension) ------------------------------

    def translate_vba(self, pasid: int, vba: int, nbytes: int, write: bool,
                      requester_devid: int) -> AtsResult:
        """Translate a VBA range for a device-originated ATS request.

        Walks every page the request spans, enforces permission and
        DevID checks, and coalesces contiguous LBAs into (LBA, length)
        pairs as the paper's enhanced IOMMU does (Section 4.3).
        """
        if not self.enabled:
            raise TranslationFault("IOMMU disabled; VBA requires IOMMU",
                                   va=vba, pasid=pasid)
        if nbytes <= 0:
            raise ValueError("translation size must be positive")
        self.ats_requests += 1
        table = self._pasids.get(pasid)
        if table is None:
            table = self.table_for(pasid)   # raises: unbound PASID
        first_page = vba >> PAGE_SHIFT
        last_page = (vba + nbytes - 1) >> PAGE_SHIFT
        # A present FTE of the requester's device has exactly these bits
        # under ``fte_mask``; no FTE matches a DevID out of range.
        fte_mask = _PRESENT | _FT | _DEVID_MASK
        fte_key = (_PRESENT | _FT | (requester_devid << _DEVID_SHIFT)
                   if 0 <= requester_devid <= 0x3F else -1)

        if first_page == last_page and not self.cache_ftes:
            # One page, one walk, one leaf cacheline: no run to coalesce
            # and no cacheline count.  An unaligned VBA in a leaf's last
            # page still pays the next leaf's PMD reference, as below.
            va = first_page << PAGE_SHIFT
            entry, writable, _level = table.lookup(va)
            self.pagewalks += 1
            if entry & fte_mask != fte_key or (write and not writable):
                raise _vba_fault(entry, requester_devid, va, pasid)
            walk_ns = self._walk_ns
            if (vba + PAGE_SIZE - 1) >> _LEAF_SHIFT != vba >> _LEAF_SHIFT:
                walk_ns += self.params.pagewalk_memref_ns
            if self.nested:
                walk_ns = int(round(walk_ns * self.params.nested_walk_factor))
            return AtsResult([((entry & _FRAME_MASK) >> _FRAME_SHIFT, 1)],
                             self._ats_ns + walk_ns)

        pairs: List[Tuple[int, int]] = []
        run_lba = run_len = 0          # the pair being coalesced
        iotlb_hits = 0
        for vpn in range(first_page, last_page + 1):
            va = vpn << PAGE_SHIFT
            cached = None
            if self.cache_ftes:
                cached = self.iotlb.get((pasid, vpn))
            if cached is None:
                entry, writable, _level = table.lookup(va)
                self.pagewalks += 1
                if entry & fte_mask != fte_key or (write and not writable):
                    raise _vba_fault(entry, requester_devid, va, pasid)
                lba = (entry & _FRAME_MASK) >> _FRAME_SHIFT
                if self.cache_ftes:
                    self.iotlb.put((pasid, vpn), (lba, writable))
            else:
                lba, writable = cached
                iotlb_hits += 1
                if write and not writable:
                    raise _vba_fault(None, requester_devid, va, pasid)
            if run_len and run_lba + run_len == lba:
                run_len += 1
            else:
                if run_len:
                    pairs.append((run_lba, run_len))
                run_lba, run_len = lba, 1
        pairs.append((run_lba, run_len))

        # Walk time, the paper's Figure 5: one full walk (upper levels
        # and the first leaf cacheline) costs 183 ns, and each further
        # leaf cacheline the walked pages span adds one memory reference,
        # as does each further leaf node (its PMD entry is read again).
        # A 64 B cacheline holds 8 entries, so the cost bumps when the
        # range spills into another cacheline, then stays flat.
        walked = last_page - first_page + 1 - iotlb_hits
        cost = self._ats_ns + iotlb_hits * self._hit_ns
        if walked > 0:
            cachelines = ((first_page % _ENTRIES_PER_CACHELINE + walked
                           + _ENTRIES_PER_CACHELINE - 1)
                          // _ENTRIES_PER_CACHELINE)
            extra_leaves = (((vba + walked * PAGE_SIZE - 1) >> _LEAF_SHIFT)
                            - (vba >> _LEAF_SHIFT))
            walk_ns = (self._walk_ns + (cachelines - 1 + extra_leaves)
                       * self.params.pagewalk_memref_ns)
            if self.nested:
                walk_ns = int(round(walk_ns * self.params.nested_walk_factor))
            cost += walk_ns
        return AtsResult(pairs, cost)
