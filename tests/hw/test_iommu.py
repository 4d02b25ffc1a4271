"""Unit tests for the IOMMU, its BypassD VBA extension and the IOAT
calibration experiments (Table 4, Figure 5)."""

import pytest

from repro.hw.ioat import IOATEngine
from repro.hw.iommu import IOMMU, TranslationFault
from repro.hw.pagetable import PAGE_SIZE, PageTable
from repro.hw.params import DEFAULT_PARAMS

VA = 0x5000_0000_0000
DEV = 1


def make_iommu(**kwargs):
    iommu = IOMMU(DEFAULT_PARAMS, **kwargs)
    pt = PageTable()
    iommu.bind_pasid(7, pt)
    return iommu, pt


class TestPasidManagement:
    def test_bind_unbind(self):
        iommu, pt = make_iommu()
        assert iommu.table_for(7) is pt
        iommu.unbind_pasid(7)
        with pytest.raises(TranslationFault):
            iommu.table_for(7)

    def test_double_bind_rejected(self):
        iommu, _ = make_iommu()
        with pytest.raises(ValueError):
            iommu.bind_pasid(7, PageTable())


class TestIOVATranslation:
    def test_hit_after_miss(self):
        iommu, pt = make_iommu()
        pt.map_page(VA, pfn=99)
        pfn, cost_miss = iommu.translate_iova(7, VA, write=False)
        assert pfn == 99
        pfn, cost_hit = iommu.translate_iova(7, VA, write=False)
        assert pfn == 99
        assert cost_hit < cost_miss
        assert cost_hit == DEFAULT_PARAMS.iotlb_hit_ns
        assert cost_miss == (DEFAULT_PARAMS.iotlb_hit_ns
                             + DEFAULT_PARAMS.full_pagewalk_ns())

    def test_unmapped_faults(self):
        iommu, _ = make_iommu()
        with pytest.raises(TranslationFault):
            iommu.translate_iova(7, VA, write=False)

    def test_write_to_readonly_faults(self):
        iommu, pt = make_iommu()
        pt.map_page(VA, pfn=1, writable=False)
        iommu.translate_iova(7, VA, write=False)  # read is fine
        with pytest.raises(TranslationFault):
            iommu.translate_iova(7, VA, write=True)

    def test_fte_cannot_be_dma_target(self):
        iommu, pt = make_iommu()
        pt.map_file_page(VA, lba=5, devid=DEV)
        with pytest.raises(TranslationFault):
            iommu.translate_iova(7, VA, write=False)

    def test_iotlb_eviction(self):
        iommu, pt = make_iommu()
        n = DEFAULT_PARAMS.iotlb_entries + 8
        for i in range(n):
            pt.map_page(VA + i * PAGE_SIZE, pfn=i + 1)
            iommu.translate_iova(7, VA + i * PAGE_SIZE, write=False)
        # The first entry was evicted: translating again is a miss.
        before = iommu.pagewalks
        iommu.translate_iova(7, VA, write=False)
        assert iommu.pagewalks == before + 1


class TestVBATranslation:
    def _map_file(self, pt, pages, start_page=1000, writable=True):
        for i in range(pages):
            pt.map_file_page(VA + i * PAGE_SIZE, lba=start_page + i,
                             devid=DEV, writable=writable)

    def test_translate_single_page(self):
        iommu, pt = make_iommu()
        self._map_file(pt, 1)
        result = iommu.translate_vba(7, VA, 4096, write=False,
                                     requester_devid=DEV)
        assert result.pairs == [(1000, 1)]
        # 345 (PCIe) + 22 (ATS) + 183 (walk) = 550: the paper's minimum.
        assert result.cost_ns == 550

    def test_contiguous_pages_coalesce(self):
        iommu, pt = make_iommu()
        self._map_file(pt, 8)
        result = iommu.translate_vba(7, VA, 8 * 4096, write=False,
                                     requester_devid=DEV)
        assert result.pairs == [(1000, 8)]
        assert result.total_pages == 8

    def test_discontiguous_pages_split(self):
        iommu, pt = make_iommu()
        pt.map_file_page(VA, lba=10, devid=DEV)
        pt.map_file_page(VA + PAGE_SIZE, lba=500, devid=DEV)
        result = iommu.translate_vba(7, VA, 2 * 4096, write=False,
                                     requester_devid=DEV)
        assert result.pairs == [(10, 1), (500, 1)]

    def test_subpage_request(self):
        iommu, pt = make_iommu()
        self._map_file(pt, 1)
        result = iommu.translate_vba(7, VA + 512, 512, write=False,
                                     requester_devid=DEV)
        assert result.pairs == [(1000, 1)]

    def test_unmapped_vba_faults(self):
        iommu, pt = make_iommu()
        with pytest.raises(TranslationFault, match="no file table entry"):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=DEV)

    def test_regular_pte_rejected_for_vba(self):
        iommu, pt = make_iommu()
        pt.map_page(VA, pfn=5)
        with pytest.raises(TranslationFault, match="regular PTE"):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=DEV)

    def test_devid_mismatch_faults(self):
        """A process cannot use a VBA to reach files on another device
        (Section 3.4)."""
        iommu, pt = make_iommu()
        self._map_file(pt, 1)
        with pytest.raises(TranslationFault, match="DevID mismatch"):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=DEV + 1)

    @pytest.mark.parametrize("requester", [64, -1])
    def test_out_of_range_requester_devid_faults(self, requester):
        """No FTE matches a DevID that bits 52-57 cannot hold, even one
        whose shifted bits land on the FT bit (64) or below bit 52."""
        iommu, pt = make_iommu()
        pt.map_file_page(VA, lba=1000, devid=0)
        with pytest.raises(TranslationFault, match="DevID mismatch"):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=requester)
        assert iommu.pagewalks == 1

    def test_write_permission_enforced(self):
        iommu, pt = make_iommu()
        self._map_file(pt, 1, writable=False)
        iommu.translate_vba(7, VA, 4096, write=False,
                            requester_devid=DEV)
        with pytest.raises(TranslationFault, match="read-only"):
            iommu.translate_vba(7, VA, 4096, write=True,
                                requester_devid=DEV)

    def test_ftes_not_cached_by_default(self):
        """Section 4.3: no IOTLB pollution from block translations."""
        iommu, pt = make_iommu()
        self._map_file(pt, 1)
        iommu.translate_vba(7, VA, 4096, write=False,
                            requester_devid=DEV)
        walks_before = iommu.pagewalks
        iommu.translate_vba(7, VA, 4096, write=False,
                            requester_devid=DEV)
        assert iommu.pagewalks == walks_before + 1  # walked again

    def test_fte_caching_ablation(self):
        iommu, pt = make_iommu(cache_ftes=True)
        self._map_file(pt, 1)
        first = iommu.translate_vba(7, VA, 4096, write=False,
                                    requester_devid=DEV)
        second = iommu.translate_vba(7, VA, 4096, write=False,
                                     requester_devid=DEV)
        assert second.cost_ns < first.cost_ns

    def test_invalidate_range_forces_fault(self):
        iommu, pt = make_iommu(cache_ftes=True)
        self._map_file(pt, 1)
        iommu.translate_vba(7, VA, 4096, write=False,
                            requester_devid=DEV)
        pt.unmap_page(VA)
        iommu.invalidate_range(7, VA, 4096)
        with pytest.raises(TranslationFault):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=DEV)

    def test_disabled_iommu_rejects_vba(self):
        iommu, pt = make_iommu()
        self._map_file(pt, 1)
        iommu.enabled = False
        with pytest.raises(TranslationFault):
            iommu.translate_vba(7, VA, 4096, write=False,
                                requester_devid=DEV)


class TestFigure5Curve:
    """IOMMU overhead versus translations per ATS request."""

    def _walk_cost(self, iommu, pt, pages, align_slot=6):
        base = VA + align_slot * PAGE_SIZE
        for i in range(pages):
            pt.map_file_page(base + i * PAGE_SIZE, lba=2000 + i,
                             devid=DEV)
        result = iommu.translate_vba(7, base, pages * 4096, write=False,
                                     requester_devid=DEV)
        return result.cost_ns - DEFAULT_PARAMS.pcie_round_trip_ns \
            - DEFAULT_PARAMS.ats_processing_ns

    def test_flat_within_cacheline(self):
        """One 64 B cacheline holds 8 FTEs: cost is flat across it."""
        iommu, pt = make_iommu()
        c1 = self._walk_cost(iommu, pt, 1)
        iommu2, pt2 = make_iommu()
        c2 = self._walk_cost(iommu2, pt2, 2)
        assert c1 == c2 == DEFAULT_PARAMS.full_pagewalk_ns()

    def test_bump_then_flat(self):
        """Figure 5: slight increase from 2 to 3 translations, then flat."""
        costs = []
        for pages in range(1, 11):
            iommu, pt = make_iommu()
            costs.append(self._walk_cost(iommu, pt, pages))
        assert costs[1] == costs[0]          # 2 == 1
        assert costs[2] > costs[1]           # bump at 3
        assert costs[2] == costs[8]          # flat 3..9
        assert max(costs) - min(costs) <= 2 * DEFAULT_PARAMS.pagewalk_memref_ns


class TestIOATCalibration:
    """Table 4 reproduction at the unit level."""

    def test_iommu_off(self):
        engine = IOATEngine(DEFAULT_PARAMS, iommu=None)
        timing = engine.copy(0x1000, 0x2000, 64)
        assert timing.total_ns == 1120
        assert timing.translation_ns == 0

    def test_iotlb_hit_costs_14ns(self):
        iommu, pt = make_iommu()
        pt.map_page(VA, pfn=1)
        pt.map_page(VA + PAGE_SIZE, pfn=2)
        engine = IOATEngine(DEFAULT_PARAMS, iommu=iommu, pasid=7)
        engine.copy(VA, VA + PAGE_SIZE, 64)          # warm the IOTLB
        timing = engine.copy(VA, VA + PAGE_SIZE, 64)
        assert timing.total_ns == 1134               # 1120 + 2*7

    def test_iotlb_miss_adds_183ns(self):
        iommu, pt = make_iommu()
        for i in range(200):
            pt.map_page(VA + i * PAGE_SIZE, pfn=i + 1)
        dst = VA
        engine = IOATEngine(DEFAULT_PARAMS, iommu=iommu, pasid=7)
        engine.copy(VA + PAGE_SIZE, dst, 64)
        # Vary the source so it always misses; dst stays hot.
        timing = engine.copy(VA + 100 * PAGE_SIZE, dst, 64)
        assert timing.total_ns == 1317               # 1134 + 183
