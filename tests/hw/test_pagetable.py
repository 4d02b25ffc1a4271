"""Unit + property tests for page tables and FTE encoding."""

import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.iommu import IOMMU
from repro.hw.params import DEFAULT_PARAMS
from repro.hw.pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PT,
    LEVEL_PUD,
    PMD_SPAN,
    PUD_SPAN,
    PAGE_SIZE,
    PageTable,
    PageTableNode,
    RunLeaf,
    fte_devid,
    fte_encode,
    fte_lba,
    fill_run,
    fte_block,
    fte_range,
    level_span,
    pte_encode,
    pte_is_fte,
    pte_pfn,
    pte_present,
    pte_user,
    pte_writable,
)


class TestEntryEncoding:
    @given(pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
           writable=st.booleans(), user=st.booleans(),
           present=st.booleans())
    def test_pte_roundtrip(self, pfn, writable, user, present):
        e = pte_encode(pfn, writable=writable, user=user, present=present)
        assert pte_pfn(e) == pfn
        assert pte_writable(e) == writable
        assert pte_user(e) == user
        assert pte_present(e) == present
        assert not pte_is_fte(e)

    @given(lba=st.integers(min_value=0, max_value=(1 << 40) - 1),
           devid=st.integers(min_value=0, max_value=63),
           writable=st.booleans())
    def test_fte_roundtrip(self, lba, devid, writable):
        e = fte_encode(lba, devid, writable=writable)
        assert fte_lba(e) == lba
        assert fte_devid(e) == devid
        assert pte_writable(e) == writable
        assert pte_is_fte(e)
        assert pte_present(e)

    def test_fte_and_pte_distinguishable(self):
        pte = pte_encode(1234)
        fte = fte_encode(1234, devid=1)
        assert not pte_is_fte(pte)
        assert pte_is_fte(fte)
        # Same frame field, different interpretation.
        assert pte_pfn(pte) == fte_lba(fte)

    def test_pfn_out_of_range(self):
        with pytest.raises(ValueError):
            pte_encode(1 << 40)

    def test_devid_out_of_range(self):
        with pytest.raises(ValueError):
            fte_encode(0, devid=64)

    @given(lba=st.integers(min_value=0, max_value=(1 << 40) - 1),
           count=st.integers(min_value=1, max_value=1100),
           devid=st.integers(min_value=0, max_value=63),
           writable=st.booleans())
    def test_fte_range_matches_per_page_encode(self, lba, count, devid,
                                               writable):
        count = min(count, (1 << 40) - lba)
        assert list(fte_range(lba, count, devid, writable=writable)) == [
            fte_encode(lba + i, devid, writable=writable)
            for i in range(count)]

    def test_fits_in_64_bits(self):
        e = fte_encode((1 << 40) - 1, devid=63, writable=True)
        assert e < (1 << 64)


class TestFillRun:
    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("slot,count", [(0, ENTRIES_PER_NODE),
                                            (100, 300), (511, 1)])
    def test_matches_per_page_encode_at_top_of_range(self, slot, count,
                                                     writable):
        """Lanes never carry: the run ends at the last 40-bit LBA with
        the largest DevID, so its entries have the most bits set."""
        lba = (1 << 40) - count
        node = PageTableNode(LEVEL_PT)
        node.entries[:] = array("Q", [7]) * ENTRIES_PER_NODE
        # A slice of a longer run, as FileTable.set_range passes it.
        run = fte_range(lba - 5, count + 5, 63, writable=writable)[5:]
        fill_run(node.entries, slot, run)
        assert list(node.entries) == (
            [7] * slot
            + [fte_encode(lba + i, 63, writable=writable)
               for i in range(count)]
            + [7] * (ENTRIES_PER_NODE - slot - count))


class TestFteBlock:
    """``fte_block`` against one ``fte_encode`` per entry."""

    LAST_LBA = (1 << 40) - 1

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("devid", [0, 63])
    @pytest.mark.parametrize("block", [
        0,                        # the first 512-LBA block
        0x12345 * 4096 + 512,     # runs cross a plain 512-LBA boundary
        0x12345 * 4096 - 512,     # runs cross a 4096-LBA boundary too
    ])
    def test_every_offset_and_count(self, block, devid, writable):
        """Every start offset inside one 512-LBA block with 1, 512 and
        the counts that end at or just past the block, and every count
        from offsets 0, 1, 255 and 511."""
        oracle = [fte_encode(block + i, devid, writable=writable)
                  for i in range(2 * ENTRIES_PER_NODE)]
        cases = {(offset, count)
                 for offset in range(ENTRIES_PER_NODE)
                 for count in (1, ENTRIES_PER_NODE - offset,
                               ENTRIES_PER_NODE - offset + 1,
                               ENTRIES_PER_NODE)
                 if 1 <= count <= ENTRIES_PER_NODE}
        cases |= {(offset, count) for offset in (0, 1, 255, 511)
                  for count in range(1, ENTRIES_PER_NODE + 1)}
        for offset, count in sorted(cases):
            assert list(fte_block(oracle[offset], count)) == (
                oracle[offset:offset + count]), (offset, count)

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("devid", [0, 63])
    def test_runs_ending_at_the_last_lba(self, devid, writable):
        oracle = [fte_encode(self.LAST_LBA - i, devid, writable=writable)
                  for i in reversed(range(ENTRIES_PER_NODE))]
        for count in range(1, ENTRIES_PER_NODE + 1):
            assert list(fte_block(oracle[-count], count)) == (
                oracle[-count:]), count

    @given(lba=st.integers(min_value=0, max_value=(1 << 40) - 1),
           count=st.integers(min_value=1, max_value=ENTRIES_PER_NODE),
           devid=st.sampled_from([0, 1, 62, 63]),
           writable=st.booleans())
    def test_matches_per_entry_encode(self, lba, count, devid, writable):
        count = min(count, (1 << 40) - lba)
        assert list(fte_block(fte_encode(lba, devid, writable=writable),
                              count)) == [
            fte_encode(lba + i, devid, writable=writable)
            for i in range(count)]

    def test_result_is_an_exact_uint64_array(self):
        """A whole leaf's buffer is the 4 KiB page it models."""
        block = fte_block(fte_encode(7, 1), ENTRIES_PER_NODE)
        assert block.typecode == "Q"
        assert sys.getsizeof(block) == sys.getsizeof(
            PageTableNode(LEVEL_PT).entries)


class TestLevelGeometry:
    def test_spans(self):
        assert level_span(LEVEL_PT) == PAGE_SIZE
        assert level_span(LEVEL_PMD) == PMD_SPAN == 2 * 1024 * 1024
        assert level_span(LEVEL_PUD) == PUD_SPAN == 1 << 30
        assert level_span(LEVEL_PGD) == 512 << 30

    def test_bad_level(self):
        with pytest.raises(ValueError):
            level_span(5)


class TestPageTable:
    def test_map_and_walk(self):
        pt = PageTable()
        pt.map_page(0x7000_0000_0000, pfn=42, writable=True)
        result = pt.walk(0x7000_0000_0000)
        assert result.present
        assert pte_pfn(result.entry) == 42
        assert result.effective_writable
        assert not result.is_fte

    def test_unmapped_walk(self):
        pt = PageTable()
        result = pt.walk(0x1234_5000)
        assert not result.present
        assert result.entry == 0

    def test_map_file_page_walk(self):
        pt = PageTable()
        pt.map_file_page(0x5000_0000_0000, lba=777, devid=3,
                         writable=False)
        result = pt.walk(0x5000_0000_0000)
        assert result.is_fte
        assert fte_lba(result.entry) == 777
        assert fte_devid(result.entry) == 3
        assert not result.effective_writable

    def test_unmap(self):
        pt = PageTable()
        va = 0x4000_0000_0000
        pt.map_page(va, pfn=1)
        pt.unmap_page(va)
        assert not pt.walk(va).present

    def test_neighbouring_pages_distinct(self):
        pt = PageTable()
        base = 0x10_0000_0000
        for i in range(8):
            pt.map_page(base + i * PAGE_SIZE, pfn=100 + i)
        for i in range(8):
            assert pte_pfn(pt.walk(base + i * PAGE_SIZE).entry) == 100 + i

    def test_va_out_of_range(self):
        pt = PageTable()
        with pytest.raises(ValueError):
            pt.walk(1 << 48)

    @given(vas=st.lists(
        st.integers(min_value=0, max_value=(1 << 48) - PAGE_SIZE)
        .map(lambda v: v & ~(PAGE_SIZE - 1)),
        min_size=1, max_size=40, unique=True))
    def test_many_mappings_roundtrip(self, vas):
        pt = PageTable()
        for i, va in enumerate(vas):
            pt.map_page(va, pfn=i + 1)
        for i, va in enumerate(vas):
            result = pt.walk(va)
            assert result.present
            assert pte_pfn(result.entry) == i + 1


def _leaves_by_va(pt):
    """Every leaf's entries, keyed by the VA it maps."""
    out = {}

    def visit(node, va):
        for idx, child in enumerate(node.children):
            if child is None:
                continue
            child_va = va + idx * level_span(node.level)
            if child.level == LEVEL_PT:
                out[child_va] = list(child.entries)
            else:
                visit(child, child_va)

    visit(pt.root, 0)
    return out


def _loop_error(pfns, va):
    """The error the per-page ``map_page`` loop raises first."""
    with pytest.raises(ValueError) as err:
        pt = PageTable()
        for i, pfn in enumerate(pfns):
            pt.map_page(va + i * PAGE_SIZE, pfn)
    return str(err.value)


class TestMapPages:
    """``map_pages`` writes what the per-page ``map_page`` loop writes."""

    @pytest.mark.parametrize("va, count", [
        (0x7000_0000_0000, 64),                             # one leaf
        (0x7000_0000_0000 + 500 * PAGE_SIZE, 300),          # two leaves
        (0x7000_0000_0000 - 3 * PAGE_SIZE + 123, 2 * ENTRIES_PER_NODE),
        (PUD_SPAN - 7 * PAGE_SIZE, 20),                     # new PMD node
        ((1 << 48) - 5 * PAGE_SIZE, 5),                     # last VA page
    ])
    @pytest.mark.parametrize("writable", [True, False])
    def test_matches_per_page_loop(self, va, count, writable):
        pfns = [(7 * i + 3) % (1 << 40) for i in range(count)]
        pfns[-1] = (1 << 40) - 1
        batched, looped = PageTable(), PageTable()
        batched.map_pages(va, pfns, writable=writable)
        for i, pfn in enumerate(pfns):
            looped.map_page(va + i * PAGE_SIZE, pfn, writable=writable)
        assert _leaves_by_va(batched) == _leaves_by_va(looped)
        assert batched.node_count() == looped.node_count()
        for i, pfn in enumerate(pfns):
            walk = batched.walk(va + i * PAGE_SIZE)
            assert pte_pfn(walk.entry) == pfn
            assert walk.effective_writable is writable

    def test_updates_existing_entries_in_place(self):
        va = 0x10_0000_0000
        pt = PageTable()
        pt.map_page(va - PAGE_SIZE, pfn=9)
        pt.map_page(va + 2 * PAGE_SIZE, pfn=8)
        pt.map_pages(va, range(100, 104))
        assert [pte_pfn(pt.walk(va + i * PAGE_SIZE).entry)
                for i in range(-1, 5)] == [9, 100, 101, 102, 103, 0]

    def test_empty_run_maps_nothing(self):
        pt = PageTable()
        pt.map_pages(-1, [])
        assert pt.node_count() == 1

    @pytest.mark.parametrize("va, pfns", [
        (-PAGE_SIZE, [1, 2]),                         # negative VA
        ((1 << 48) - 2 * PAGE_SIZE, [1, 2, 3, 4]),    # runs off the top
        (1 << 48, [1]),                               # starts past it
        (0x1000, [1, -2, 3]),                         # negative PFN
        (0x1000, [1, 2, 1 << 40]),                    # PFN too large
        ((1 << 48) - PAGE_SIZE, [1, 1 << 40]),        # both bad: PFN first
        ((1 << 48) - PAGE_SIZE, [1, 2, -1]),          # VA fails before PFN
    ])
    def test_errors_match_per_page_loop_and_map_nothing(self, va, pfns):
        pt = PageTable()
        with pytest.raises(ValueError) as err:
            pt.map_pages(va, pfns)
        assert str(err.value) == _loop_error(pfns, va)
        assert pt.node_count() == 1


class TestRunLeaf:
    """A whole-leaf run keeps its first FTE until ``entries`` is read."""

    # (first LBA, DevID): a run across a 4096-LBA boundary, and one
    # ending at the last LBA.
    RUNS = [(4096 * 3 - 100, 5), ((1 << 40) - ENTRIES_PER_NODE, 63)]
    FIRSTS = [fte_encode(lba, devid) for lba, devid in RUNS]

    @staticmethod
    def _unread(leaf):
        with pytest.raises(AttributeError):
            PageTableNode.entries.__get__(leaf)
        return True

    @pytest.mark.parametrize("lba, devid", RUNS)
    def test_first_read_builds_the_run_once(self, lba, devid):
        leaf = RunLeaf(fte_encode(lba, devid))
        assert leaf.level == LEVEL_PT and leaf.children is None
        assert self._unread(leaf)
        entries = leaf.entries
        assert list(entries) == [fte_encode(lba + i, devid)
                                 for i in range(ENTRIES_PER_NODE)]
        assert entries.typecode == "Q"
        assert PageTableNode.entries.__get__(leaf) is entries
        assert leaf.entries is entries
        assert leaf.present_count() == ENTRIES_PER_NODE

    def test_other_missing_names_raise_and_build_nothing(self):
        leaf = RunLeaf(self.FIRSTS[0])
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            leaf.missing
        assert not hasattr(leaf, "__deepcopy__")
        assert self._unread(leaf)

    @pytest.mark.parametrize("writable", [True, False])
    def test_walk_through_an_unread_shared_leaf(self, writable):
        """The first walk from either process builds the one shared
        leaf; the other process then reads the same array."""
        lba, devid = self.RUNS[1]
        first = fte_encode(lba, devid)
        leaf = RunLeaf(first)
        va = 0x5000_0000_0000
        owner, reader = PageTable(), PageTable()
        owner.attach_subtree(va, leaf, writable=True)
        reader.attach_subtree(va, leaf, writable=writable)
        assert self._unread(leaf)
        walk = reader.walk(va + 300 * PAGE_SIZE)
        assert walk.entry == fte_encode(lba + 300, devid)
        assert walk.effective_writable is writable
        built = PageTableNode.entries.__get__(leaf)
        assert owner.walk(va).entry == first
        assert owner.walk(va).effective_writable
        assert PageTableNode.entries.__get__(leaf) is built

    @pytest.mark.parametrize("first", FIRSTS)
    @pytest.mark.parametrize("offset, nbytes", [
        (0, PAGE_SIZE), (4 * PAGE_SIZE + 1, 37 * PAGE_SIZE),
        (0, PMD_SPAN)])
    def test_translate_vba_matches_a_built_leaf(self, first, offset,
                                                nbytes):
        va = 0x5000_0000_0000
        replies = []
        built = PageTableNode(LEVEL_PT)
        built.entries[:] = fte_block(first, ENTRIES_PER_NODE)
        for leaf in (RunLeaf(first), built):
            iommu = IOMMU(DEFAULT_PARAMS)
            pt = PageTable()
            pt.attach_subtree(va, leaf, writable=True)
            iommu.bind_pasid(1, pt)
            reply = iommu.translate_vba(1, va + offset, nbytes, write=True,
                                        requester_devid=fte_devid(first))
            replies.append((reply.pairs, reply.cost_ns))
        assert replies[0] == replies[1]
        lba = fte_lba(first) + offset // PAGE_SIZE
        assert replies[0][0] == [(lba, -(-(offset % PAGE_SIZE + nbytes)
                                         // PAGE_SIZE))]


class TestSubtreeAttach:
    def _leaf_with_ftes(self, count, devid=1):
        leaf = PageTableNode(LEVEL_PT)
        for i in range(count):
            leaf.entries[i] = fte_encode(1000 + i, devid)
        return leaf

    def test_attach_and_walk(self):
        pt = PageTable()
        leaf = self._leaf_with_ftes(10)
        va = 0x5000_0000_0000  # 2 MiB aligned
        pt.attach_subtree(va, leaf, writable=True)
        for i in range(10):
            result = pt.walk(va + i * PAGE_SIZE)
            assert result.is_fte
            assert fte_lba(result.entry) == 1000 + i

    def test_attach_readonly_masks_shared_rw(self):
        """Figure 4: shared FTEs are max-permission; the private
        attach entry downgrades to read-only."""
        pt = PageTable()
        leaf = self._leaf_with_ftes(1)
        va = 0x5000_0000_0000
        pt.attach_subtree(va, leaf, writable=False)
        result = pt.walk(va)
        assert pte_writable(result.entry)         # shared entry is RW
        assert not result.effective_writable      # but the path is RO

    def test_shared_leaf_two_tables_different_perms(self):
        leaf = self._leaf_with_ftes(4)
        pt_a, pt_b = PageTable(), PageTable()
        va = 0x5000_0000_0000
        pt_a.attach_subtree(va, leaf, writable=True)
        pt_b.attach_subtree(va, leaf, writable=False)
        assert pt_a.walk(va).effective_writable
        assert not pt_b.walk(va).effective_writable

    def test_unaligned_attach_rejected(self):
        pt = PageTable()
        leaf = self._leaf_with_ftes(1)
        with pytest.raises(ValueError):
            pt.attach_subtree(0x5000_0000_1000, leaf, writable=True)

    def test_double_attach_rejected(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        pt.attach_subtree(va, self._leaf_with_ftes(1), writable=True)
        with pytest.raises(ValueError):
            pt.attach_subtree(va, self._leaf_with_ftes(1), writable=True)

    def test_detach_removes_mapping(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        leaf = self._leaf_with_ftes(3)
        pt.attach_subtree(va, leaf, writable=True)
        detached = pt.detach_subtree(va, subtree_level=LEVEL_PT)
        assert detached is leaf
        assert not pt.walk(va).present

    def test_detach_missing_returns_none(self):
        pt = PageTable()
        assert pt.detach_subtree(0x5000_0000_0000, LEVEL_PT) is None

    def test_attach_extension_visible_in_place(self):
        """Filling a shared leaf's free slots needs no re-attach."""
        pt = PageTable()
        va = 0x5000_0000_0000
        leaf = self._leaf_with_ftes(2)
        pt.attach_subtree(va, leaf, writable=True)
        leaf.entries[2] = fte_encode(5555, 1)
        result = pt.walk(va + 2 * PAGE_SIZE)
        assert result.is_fte
        assert fte_lba(result.entry) == 5555


class TestAccounting:
    def test_node_count_and_memory(self):
        pt = PageTable()
        assert pt.node_count() == 1  # just the PGD
        pt.map_page(0, pfn=1)
        # PGD + PUD + PMD + PT
        assert pt.node_count() == 4
        assert pt.memory_bytes() == 4 * PAGE_SIZE

    def test_every_node_is_one_page_of_uint64(self):
        """The host buffer of each level's node is the page charged."""
        pt = PageTable()
        pt.map_page(0, pfn=1)
        node, levels = pt.root, []
        while node is not None:
            assert node.entries.typecode == "Q"
            assert node.entries.itemsize * len(node.entries) == PAGE_SIZE
            levels.append(node.level)
            node = node.children[0] if node.children else None
        assert levels == [LEVEL_PGD, LEVEL_PUD, LEVEL_PMD, LEVEL_PT]

    def test_present_count(self):
        node = PageTableNode(LEVEL_PT)
        node.entries[0] = pte_encode(1)
        node.entries[5] = pte_encode(2)
        assert node.present_count() == 2
        assert [i for i, _ in node.iter_present()] == [0, 5]


def _tree_state(pt):
    """Every interior entry and linked leaf, keyed by VA (by identity)."""
    state = {}

    def visit(node, va):
        span = level_span(node.level)
        for idx in range(ENTRIES_PER_NODE):
            child = node.children[idx]
            entry_va = va + idx * span
            if node.entries[idx] or child is not None:
                state[(node.level, entry_va)] = (
                    node.entries[idx],
                    id(child) if child is not None
                    and child.level == LEVEL_PT else None)
            if child is not None and child.level != LEVEL_PT:
                visit(child, entry_va)

    visit(pt.root, 0)
    return state


def _fte_leaf(count):
    leaf = PageTableNode(LEVEL_PT)
    leaf.entries[:count] = array("Q", [fte_encode(1000 + i, 1)
                                       for i in range(count)])
    return leaf


def _per_leaf_attach(pt, va, leaves, indices, writable):
    for idx in indices:
        pt.attach_subtree(va + idx * PMD_SPAN, leaves[idx], writable)


def _per_leaf_detach(pt, va, indices):
    for idx in indices:
        pt.detach_subtree(va + idx * PMD_SPAN, subtree_level=LEVEL_PT)


def _indices(runs):
    return [idx for start, count in runs
            for idx in range(start, start + count)]


def _runs(indices):
    """Sorted distinct indices as ``(first, count)`` runs."""
    runs = []
    for idx in sorted(set(indices)):
        if runs and sum(runs[-1]) == idx:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((idx, 1))
    return runs


def _layout(parts, limit, holes=()):
    """Ascending runs from ``(gap, count)`` parts, clipped to ``limit``
    and split around ``holes``; a gap of 0 makes two runs touch."""
    runs, pos = [], 0
    for gap, count in parts:
        start = pos + gap
        count = min(count, limit - start)
        if count <= 0:
            break
        pos = start + count
        for idx in range(start, pos):
            if idx in holes:
                if idx > start:
                    runs.append((start, idx - start))
                start = idx + 1
        if pos > start:
            runs.append((start, pos - start))
    return runs


_PARTS = st.lists(st.tuples(st.integers(0, 12),
                            st.one_of(st.integers(1, 8),
                                      st.integers(1, 300))),
                  max_size=10)


class TestBatchedLeafAttach:
    """``attach_leaves``/``detach_leaves`` over leaf runs against
    per-leaf ``attach_subtree``/``detach_subtree`` loops."""

    # 6 leaves below a 1 GiB boundary, so runs cross into the next PUD
    # entry and PMD node.
    BASE = 0x5000_0000_0000 + PUD_SPAN - 6 * PMD_SPAN
    # 3 leaves below a 512 GiB boundary: the next PGD entry and PUD node.
    PGD_BASE = 0x5000_0000_0000 - 3 * PMD_SPAN

    def _leaves(self, n, holes=()):
        return [None if i in holes else _fte_leaf(2) for i in range(n)]

    def _both(self, build):
        batched, looped = PageTable(), PageTable()
        build(batched, batched=True)
        build(looped, batched=False)
        assert _tree_state(batched) == _tree_state(looped)
        return batched

    @pytest.mark.parametrize("writable", [True, False])
    def test_dense_across_pud_boundary(self, writable):
        leaves = self._leaves(ENTRIES_PER_NODE + 20)
        runs = [(0, len(leaves))]

        def build(pt, batched):
            if batched:
                pt.attach_leaves(self.BASE, leaves, runs, writable)
            else:
                _per_leaf_attach(pt, self.BASE, leaves, _indices(runs),
                                 writable)

        pt = self._both(build)
        for idx in (0, 5, 6, len(leaves) - 1):
            walk = pt.walk(self.BASE + idx * PMD_SPAN + PAGE_SIZE)
            assert walk.is_fte
            assert walk.effective_writable == writable

    def test_sparse_leaves_between_runs(self):
        holes = {1, 5, 6, 7, 40}
        leaves = self._leaves(48, holes)
        runs = [(0, 1), (2, 3), (8, 32), (41, 7)]
        assert _indices(runs) == [i for i in range(48) if i not in holes]

        def build(pt, batched):
            if batched:
                pt.attach_leaves(self.BASE, leaves, runs, True)
            else:
                _per_leaf_attach(pt, self.BASE, leaves, _indices(runs), True)

        pt = self._both(build)
        assert not pt.walk(self.BASE + 6 * PMD_SPAN).present

    def test_touching_runs_link_as_one(self):
        leaves = self._leaves(12)
        for runs in ([(0, 2), (2, 3)], [(4, 2), (6, 3)]):
            touching, merged = PageTable(), PageTable()
            touching.attach_leaves(self.BASE, leaves, runs, False)
            merged.attach_leaves(self.BASE, leaves, _runs(_indices(runs)),
                                 False)
            assert _tree_state(touching) == _tree_state(merged)
            touching.detach_leaves(self.BASE, runs)
            assert touching.walk(self.BASE).level > LEVEL_PT

    def test_detach_matches_per_leaf(self):
        leaves = self._leaves(30)
        gone = [0, 3, 4, 5, 6, 7, 29]

        def build(pt, batched):
            pt.attach_leaves(self.BASE, leaves, [(0, 30)], False)
            if batched:
                pt.detach_leaves(self.BASE, _runs(gone))
            else:
                _per_leaf_detach(pt, self.BASE, gone)

        pt = self._both(build)
        assert not pt.walk(self.BASE + 6 * PMD_SPAN).present
        assert pt.walk(self.BASE + 8 * PMD_SPAN).present

    def test_detach_of_unmapped_region_is_noop(self):
        pt = PageTable()
        pt.detach_leaves(self.BASE, [(0, 600)])
        assert pt.node_count() == 1

    def test_upgrade_by_detach_and_attach(self):
        leaves = self._leaves(12, {3})
        runs = [(0, 3), (4, 8)]

        def build(pt, batched):
            pt.attach_leaves(self.BASE, leaves, runs, False)
            if batched:
                pt.detach_leaves(self.BASE, runs)
                pt.attach_leaves(self.BASE, leaves, runs, True)
            else:
                _per_leaf_detach(pt, self.BASE, _indices(runs))
                _per_leaf_attach(pt, self.BASE, leaves, _indices(runs), True)

        pt = self._both(build)
        assert pt.walk(self.BASE + 11 * PMD_SPAN).effective_writable

    def test_already_mapped_error_matches_and_links_nothing(self):
        leaves = self._leaves(20)
        batched, looped = PageTable(), PageTable()
        for pt in (batched, looped):
            pt.attach_subtree(self.BASE + 9 * PMD_SPAN, leaves[0], True)
        before = _tree_state(batched)
        with pytest.raises(ValueError) as err_batched:
            batched.attach_leaves(self.BASE, leaves, [(0, 20)], True)
        with pytest.raises(ValueError) as err_looped:
            _per_leaf_attach(looped, self.BASE, leaves, range(20), True)
        assert str(err_batched.value) == str(err_looped.value)
        assert "already mapped" in str(err_batched.value)
        assert _tree_state(batched) == before

    def test_unaligned_error_matches(self):
        leaves = self._leaves(3)
        va = self.BASE + PAGE_SIZE
        with pytest.raises(ValueError) as err_batched:
            PageTable().attach_leaves(va, leaves, [(1, 2)], True)
        with pytest.raises(ValueError) as err_looped:
            _per_leaf_attach(PageTable(), va, leaves, [1, 2], True)
        assert str(err_batched.value) == str(err_looped.value)

    def test_missing_leaf_rejected(self):
        with pytest.raises(ValueError, match="no leaf"):
            PageTable().attach_leaves(self.BASE, self._leaves(3, {1}),
                                      [(0, 3)], True)

    @settings(max_examples=40, deadline=None)
    @given(attach=st.sets(st.integers(0, 2 * ENTRIES_PER_NODE + 8),
                          max_size=80),
           detach=st.sets(st.integers(0, 2 * ENTRIES_PER_NODE + 8),
                          max_size=80),
           writable=st.booleans())
    def test_random_index_sets_match_per_leaf(self, attach, detach,
                                              writable):
        leaves = self._leaves(2 * ENTRIES_PER_NODE + 9)

        def build(pt, batched):
            if batched:
                pt.attach_leaves(self.BASE, leaves, _runs(attach), writable)
                pt.detach_leaves(self.BASE, _runs(detach))
            else:
                _per_leaf_attach(pt, self.BASE, leaves, sorted(attach),
                                 writable)
                _per_leaf_detach(pt, self.BASE, sorted(detach))

        self._both(build)

    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from([BASE, PGD_BASE]),
           attach=_PARTS, detach=_PARTS,
           holes=st.sets(st.integers(0, ENTRIES_PER_NODE + 12), max_size=6),
           mapped=st.lists(st.integers(0, ENTRIES_PER_NODE + 12),
                           max_size=2),
           writable=st.booleans())
    # Touching runs; a run across the PMD node and PUD entry boundary.
    @example(base=BASE, attach=[(0, 2), (0, 3)], detach=[(2, 2)],
             holes=set(), mapped=[], writable=True)
    @example(base=PGD_BASE, attach=[(1, 5), (0, 1)], detach=[(3, 1)],
             holes={4}, mapped=[], writable=False)
    @example(base=BASE, attach=[(3, 4), (0, 2)], detach=[], holes=set(),
             mapped=[7, 6], writable=True)
    def test_run_lists_match_per_leaf(self, base, attach, detach, holes,
                                      mapped, writable):
        """Ascending runs that may touch, across a PMD node and PUD entry
        or a PUD node and PGD entry, around holes in ``leaves`` and over
        already-mapped slots, against per-leaf calls over the same
        indices: the same links after attach and after detach, or the
        same "already mapped" VA with nothing linked."""
        limit = ENTRIES_PER_NODE + 13
        leaves = self._leaves(limit, holes)
        attach = _layout(attach, limit, holes)
        detach = _layout(detach, limit)
        mapped = sorted(set(mapped) - holes)
        batched, looped = PageTable(), PageTable()
        for pt in (batched, looped):
            _per_leaf_attach(pt, base, leaves, mapped, True)
        if set(mapped) & set(_indices(attach)):
            before = _tree_state(batched)
            with pytest.raises(ValueError) as err_batched:
                batched.attach_leaves(base, leaves, attach, writable)
            with pytest.raises(ValueError) as err_looped:
                _per_leaf_attach(looped, base, leaves, _indices(attach),
                                 writable)
            assert str(err_batched.value) == str(err_looped.value)
            assert _tree_state(batched) == before
            return
        batched.attach_leaves(base, leaves, attach, writable)
        _per_leaf_attach(looped, base, leaves, _indices(attach), writable)
        assert _tree_state(batched) == _tree_state(looped)
        batched.detach_leaves(base, detach)
        _per_leaf_detach(looped, base, _indices(detach))
        assert _tree_state(batched) == _tree_state(looped)


def _reference_lookup(pt, va):
    """``PageTable.lookup`` as a loop over the levels: effective
    writability is the AND of the writable bits along the walk, and a
    miss reports the level whose entry (or child) was missing."""
    node = pt.root
    writable = True
    for level in (LEVEL_PGD, LEVEL_PUD, LEVEL_PMD):
        idx = (va >> (12 + 9 * (level - 1))) & (ENTRIES_PER_NODE - 1)
        entry = node.entries[idx]
        if not pte_present(entry):
            return 0, False, level
        writable = writable and pte_writable(entry)
        child = node.children[idx]
        if child is None:
            return 0, False, level
        node = child
    leaf = node.entries[(va >> 12) & (ENTRIES_PER_NODE - 1)]
    if not pte_present(leaf):
        return 0, False, LEVEL_PT
    return leaf, writable and pte_writable(leaf), LEVEL_PT


# VAs are built from a few indices per level, so random picks share
# paths and miss at every level.
_VA_PARTS = st.tuples(st.sampled_from([0, 1, 255]),
                      st.sampled_from([0, 1, 511]),
                      st.sampled_from([0, 7, 511]),
                      st.sampled_from([0, 1, 511]),
                      st.sampled_from([0, 123, PAGE_SIZE - 1]))


def _va(parts):
    pgd, pud, pmd, pt, offset = parts
    return (((pgd * ENTRIES_PER_NODE + pud) * ENTRIES_PER_NODE + pmd)
            * ENTRIES_PER_NODE + pt) * PAGE_SIZE + offset


def _interior(pt, va, level):
    """The node at ``level`` on ``va``'s path, or None."""
    node = pt.root
    for lvl in range(LEVEL_PGD, level, -1):
        node = node.children[(va >> (12 + 9 * (lvl - 1)))
                             & (ENTRIES_PER_NODE - 1)]
        if node is None:
            return None
    return node


class TestUnrolledLookup:
    """The unrolled walk against a per-level reference loop."""

    @settings(max_examples=150, deadline=None)
    @given(maps=st.lists(st.tuples(_VA_PARTS, st.booleans(),
                                   st.booleans()), max_size=12),
           edits=st.lists(st.tuples(
               _VA_PARTS,
               st.sampled_from([LEVEL_PGD, LEVEL_PUD, LEVEL_PMD]),
               st.sampled_from(["read-only", "not-present",
                                "no-child"])), max_size=6),
           run_leaf=st.none() | st.tuples(_VA_PARTS, st.booleans()),
           queries=st.lists(_VA_PARTS, min_size=1, max_size=20))
    def test_matches_reference_loop(self, maps, edits, run_leaf, queries):
        pt = PageTable()
        for parts, fte, writable in maps:
            va = _va(parts) & ~(PAGE_SIZE - 1)
            if fte:
                pt.map_file_page(va, lba=va >> 12, devid=1,
                                 writable=writable)
            else:
                pt.map_page(va, pfn=(va >> 12) + 1, writable=writable)
        leaf = None
        if run_leaf is not None:
            parts, writable = run_leaf
            leaf_va = _va(parts) & ~(PMD_SPAN - 1)
            pmd = _interior(pt, leaf_va, LEVEL_PMD)
            slot = (leaf_va >> 21) & (ENTRIES_PER_NODE - 1)
            if pmd is None or pmd.children[slot] is None:
                leaf = RunLeaf(fte_encode(leaf_va >> 12, devid=2))
                pt.attach_subtree(leaf_va, leaf, writable=writable)
        for parts, level, edit in edits:
            va = _va(parts)
            node = _interior(pt, va, level)
            if node is None:
                continue
            idx = (va >> (12 + 9 * (level - 1))) & (ENTRIES_PER_NODE - 1)
            if edit == "read-only":
                node.entries[idx] &= ~2
            elif edit == "not-present":
                node.entries[idx] &= ~1
            else:
                node.children[idx] = None
        # Walk the edited and the mapped paths too, not only random ones.
        for parts in (queries + [e[0] for e in edits]
                      + [m[0] for m in maps]):
            va = _va(parts)
            got = pt.lookup(va)
            assert got == _reference_lookup(pt, va)
            assert type(got[1]) is bool
        if leaf is not None:
            # An unread RunLeaf builds its entries on the first walk.
            assert pt.lookup(leaf_va) == _reference_lookup(pt, leaf_va)

    @pytest.mark.parametrize("level", [LEVEL_PGD, LEVEL_PUD, LEVEL_PMD])
    @pytest.mark.parametrize("edit", ["not-present", "no-child"])
    def test_a_miss_reports_its_level(self, level, edit):
        va = 0x5000_0020_3000
        pt = PageTable()
        pt.map_page(va, pfn=9)
        node = _interior(pt, va, level)
        idx = (va >> (12 + 9 * (level - 1))) & (ENTRIES_PER_NODE - 1)
        if edit == "not-present":
            node.entries[idx] = 0
        else:
            node.children[idx] = None
        assert pt.lookup(va) == (0, False, level)

    def test_a_leaf_miss_reports_the_leaf_level(self):
        va = 0x5000_0020_3000
        pt = PageTable()
        pt.map_page(va, pfn=9)
        assert pt.lookup(va + PAGE_SIZE) == (0, False, LEVEL_PT)

    def test_unread_run_leaf_is_walked_through(self):
        va = 0x5000_0000_0000
        first = fte_encode(4096 * 3 - 100, devid=5)
        leaf = RunLeaf(first)
        pt = PageTable()
        pt.attach_subtree(va, leaf, writable=False)
        with pytest.raises(AttributeError):
            PageTableNode.entries.__get__(leaf)
        entry, writable, level = pt.lookup(va + 7 * PAGE_SIZE + 5)
        assert (entry, writable, level) == (
            fte_encode(4096 * 3 - 93, devid=5), False, LEVEL_PT)

    @pytest.mark.parametrize("va", [-1, -PAGE_SIZE, 1 << 48,
                                    (1 << 48) + PAGE_SIZE])
    def test_va_guard(self, va):
        with pytest.raises(ValueError, match="48-bit"):
            PageTable().lookup(va)

    def test_leaf_linked_as_an_interior_node_fails_loudly(self):
        pt = PageTable()
        va = 0x5000_0000_0000
        pt.map_page(va, pfn=1)
        pud = _interior(pt, va, LEVEL_PUD)
        idx = (va >> 30) & (ENTRIES_PER_NODE - 1)
        pud.children[idx] = PageTableNode(LEVEL_PT)
        pud.children[idx].entries[0] = 1
        with pytest.raises((TypeError, AssertionError)):
            pt.lookup(va)
