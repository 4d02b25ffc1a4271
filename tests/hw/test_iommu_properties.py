"""Property tests for the IOMMU's VBA translation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.iommu import IOMMU, TranslationFault
from repro.hw.pagetable import PAGE_SIZE, PMD_SPAN, PageTable
from repro.hw.params import DEFAULT_PARAMS

VA = 0x5000_0000_0000


@st.composite
def file_layouts(draw):
    """A mapped file as (page -> device page), possibly fragmented."""
    n_extents = draw(st.integers(min_value=1, max_value=6))
    layout = {}
    logical = 0
    phys = draw(st.integers(min_value=1, max_value=1000))
    for _ in range(n_extents):
        count = draw(st.integers(min_value=1, max_value=12))
        for i in range(count):
            layout[logical + i] = phys + i
        logical += count
        phys += count + draw(st.integers(min_value=0, max_value=50))
    return layout


class TestTranslationProperties:
    @settings(max_examples=60, deadline=None)
    @given(layout=file_layouts(), data=st.data())
    def test_pairs_cover_exactly_and_coalesce_maximally(self, layout,
                                                        data):
        iommu = IOMMU(DEFAULT_PARAMS)
        pt = PageTable()
        iommu.bind_pasid(1, pt)
        for page, dev in layout.items():
            pt.map_file_page(VA + page * PAGE_SIZE, lba=dev, devid=1)
        total_pages = len(layout)
        first = data.draw(st.integers(min_value=0,
                                      max_value=total_pages - 1))
        count = data.draw(st.integers(min_value=1,
                                      max_value=total_pages - first))
        result = iommu.translate_vba(
            1, VA + first * PAGE_SIZE, count * PAGE_SIZE,
            write=False, requester_devid=1)
        # Exact coverage, in order.
        expanded = []
        for dev, length in result.pairs:
            expanded.extend(range(dev, dev + length))
        expected = [layout[p] for p in range(first, first + count)]
        assert expanded == expected
        # Maximal coalescing: no two adjacent pairs are contiguous.
        for (d1, l1), (d2, _l2) in zip(result.pairs, result.pairs[1:]):
            assert d1 + l1 != d2
        # Cost is bounded and at least the 550ns minimum.
        assert result.cost_ns >= 550
        assert result.cost_ns <= 550 + (count + 8) * \
            DEFAULT_PARAMS.pagewalk_memref_ns

    @settings(max_examples=30, deadline=None)
    @given(layout=file_layouts())
    def test_hole_anywhere_in_range_faults(self, layout):
        from repro.hw.iommu import TranslationFault
        import pytest

        iommu = IOMMU(DEFAULT_PARAMS)
        pt = PageTable()
        iommu.bind_pasid(1, pt)
        for page, dev in layout.items():
            pt.map_file_page(VA + page * PAGE_SIZE, lba=dev, devid=1)
        hole = len(layout)  # one page past the mapping
        with pytest.raises(TranslationFault):
            iommu.translate_vba(1, VA + hole * PAGE_SIZE, PAGE_SIZE,
                                write=False, requester_devid=1)
        # A range that straddles the hole also faults.
        if len(layout) >= 1:
            with pytest.raises(TranslationFault):
                iommu.translate_vba(
                    1, VA + (hole - 1) * PAGE_SIZE, 2 * PAGE_SIZE,
                    write=False, requester_devid=1)


def _figure5_one_page_ns(vba, nested=False):
    """The paper's Figure 5 cost of a one-page VBA translation: PCIe
    round trip and ATS processing, then one full walk; a VBA that is
    not page-aligned in a leaf's last page also reads the next leaf's
    PMD entry."""
    p = DEFAULT_PARAMS
    walk = p.full_pagewalk_ns()
    if vba % PMD_SPAN > PMD_SPAN - PAGE_SIZE:
        walk += p.pagewalk_memref_ns
    if nested:
        walk = int(round(walk * p.nested_walk_factor))
    return p.pcie_round_trip_ns + p.ats_processing_ns + walk


# Pages around a leaf boundary, so the last page of one leaf is mapped.
EDGE = VA + PMD_SPAN - 2 * PAGE_SIZE


def _mapped_iommu(pages, cache_ftes=False, nested=False, writable=True):
    iommu = IOMMU(DEFAULT_PARAMS, cache_ftes=cache_ftes, nested=nested)
    pt = PageTable()
    iommu.bind_pasid(1, pt)
    for page, dev in pages.items():
        pt.map_file_page(EDGE + page * PAGE_SIZE, lba=dev, devid=1,
                         writable=writable)
    return iommu, pt


class TestOnePageTranslation:
    @settings(max_examples=80, deadline=None)
    @given(page=st.integers(0, 3), offset=st.integers(0, PAGE_SIZE - 1),
           size=st.integers(1, PAGE_SIZE), nested=st.booleans(),
           write=st.booleans())
    def test_pairs_and_cost_follow_figure5(self, page, offset, size,
                                           nested, write):
        size = min(size, PAGE_SIZE - offset)
        iommu, _ = _mapped_iommu({p: 40 + 3 * p for p in range(4)},
                                 nested=nested)
        vba = EDGE + page * PAGE_SIZE + offset
        reply = iommu.translate_vba(1, vba, size, write=write,
                                    requester_devid=1)
        assert reply.pairs == [(40 + 3 * page, 1)]
        assert reply.cost_ns == _figure5_one_page_ns(vba, nested)
        assert (iommu.ats_requests, iommu.pagewalks) == (1, 1)

    def test_unaligned_vba_in_a_leafs_last_page_pays_one_more_reference(
            self):
        iommu, _ = _mapped_iommu({1: 7})
        last = EDGE + PAGE_SIZE          # the leaf's last page
        aligned = iommu.translate_vba(1, last, 512, write=False,
                                      requester_devid=1)
        unaligned = iommu.translate_vba(1, last + 512, 512, write=False,
                                        requester_devid=1)
        assert (unaligned.cost_ns - aligned.cost_ns
                == DEFAULT_PARAMS.pagewalk_memref_ns)
        assert aligned.cost_ns == 550

    def test_cache_ftes_keeps_the_iotlb_path(self):
        iommu, _ = _mapped_iommu({0: 9}, cache_ftes=True)
        first = iommu.translate_vba(1, EDGE, PAGE_SIZE, write=False,
                                    requester_devid=1)
        again = iommu.translate_vba(1, EDGE, PAGE_SIZE, write=False,
                                    requester_devid=1)
        assert first.pairs == again.pairs == [(9, 1)]
        assert first.cost_ns == 550
        p = DEFAULT_PARAMS
        assert again.cost_ns == (p.pcie_round_trip_ns + p.ats_processing_ns
                                 + p.iotlb_hit_ns)
        assert (iommu.ats_requests, iommu.pagewalks) == (2, 1)


class TestFaultReasons:
    """Each refusal names the first failing check, in the order: no
    file table entry, regular PTE, DevID, read-only.  One page, the
    page loop (the bad page, then an unmapped one) and the IOTLB path
    agree."""

    CASES = [
        # (how the page is mapped, requester, write, reason prefix)
        ("unmapped", 1, True, "no file table entry"),
        ("pte-ro", 1, True, "regular PTE in block translation"),
        ("fte-dev2-ro", 1, True, "DevID mismatch (FTE dev 2, requester 1)"),
        ("fte-dev1", 64, False, "DevID mismatch (FTE dev 1, requester 64)"),
        ("fte-dev1-ro", 1, True, "write to read-only file mapping"),
        ("fte-dev1-ro-parent", 1, True, "write to read-only file mapping"),
    ]

    @staticmethod
    def _table(kind):
        pt = PageTable()
        va = VA + PAGE_SIZE
        if kind == "pte-ro":
            pt.map_page(va, pfn=5, writable=False)
        elif kind == "fte-dev2-ro":
            pt.map_file_page(va, lba=6, devid=2, writable=False)
        elif kind == "fte-dev1":
            pt.map_file_page(va, lba=6, devid=1)
        elif kind == "fte-dev1-ro":
            pt.map_file_page(va, lba=6, devid=1, writable=False)
        elif kind == "fte-dev1-ro-parent":
            pt.map_file_page(va, lba=6, devid=1)
            pt.root.entries[(va >> 39) & 511] &= ~2   # PGD entry R/O
        return pt

    @pytest.mark.parametrize("kind,devid,write,reason", CASES,
                             ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("shape", ["one-page", "two-pages",
                                       "cache-ftes"])
    def test_reason_and_order(self, kind, devid, write, reason, shape):
        iommu = IOMMU(DEFAULT_PARAMS, cache_ftes=shape == "cache-ftes")
        iommu.bind_pasid(1, self._table(kind))
        size = 2 * PAGE_SIZE if shape == "two-pages" else PAGE_SIZE
        with pytest.raises(TranslationFault) as info:
            iommu.translate_vba(1, VA + PAGE_SIZE + 512, size - 512,
                                write=write, requester_devid=devid)
        assert info.value.reason == reason
        assert (info.value.va, info.value.pasid) == (VA + PAGE_SIZE, 1)

    def test_cached_read_only_translation_refuses_a_write(self):
        iommu = IOMMU(DEFAULT_PARAMS, cache_ftes=True)
        pt = PageTable()
        pt.map_file_page(VA, lba=5, devid=1, writable=False)
        iommu.bind_pasid(1, pt)
        iommu.translate_vba(1, VA, PAGE_SIZE, write=False,
                            requester_devid=1)
        with pytest.raises(TranslationFault,
                           match="write to read-only file mapping"):
            iommu.translate_vba(1, VA, PAGE_SIZE, write=True,
                                requester_devid=1)
        assert iommu.pagewalks == 1
