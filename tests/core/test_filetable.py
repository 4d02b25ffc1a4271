"""Unit + property tests for file tables (FTE subtrees)."""

import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import GiB, Machine
from repro.core.filetable import PAGES_PER_LEAF, FileTable, build_file_table
from repro.hw.pagetable import (
    LEVEL_PT,
    PMD_SPAN,
    PageTable,
    PageTableNode,
    fte_devid,
    fte_encode,
    fte_lba,
    pte_present,
    pte_writable,
)
from repro.hw.params import DEFAULT_PARAMS
from repro.kernel.process import O_CREAT, O_DIRECT, O_RDWR


def entries(table):
    """All present (page-index, device-page) pairs."""
    out = []
    for leaf_idx, leaf in enumerate(table.leaves):
        if leaf is None:
            continue
        for slot, entry in leaf.iter_present():
            out.append((leaf_idx * PAGES_PER_LEAF + slot,
                        fte_lba(entry)))
    return out


class TestBuild:
    def test_single_run(self):
        t = build_file_table([(0, 1000, 10)], devid=1,
                             params=DEFAULT_PARAMS)
        assert t.pages == 10
        assert len(t.leaves) == 1
        assert entries(t) == [(i, 1000 + i) for i in range(10)]

    def test_multiple_runs(self):
        t = build_file_table([(0, 100, 3), (3, 900, 2)], devid=1,
                             params=DEFAULT_PARAMS)
        assert entries(t) == [(0, 100), (1, 101), (2, 102),
                              (3, 900), (4, 901)]

    def test_sparse_file_with_hole(self):
        """Extents need not start at page 0 (hole at the front)."""
        t = build_file_table([(4, 700, 2)], devid=1,
                             params=DEFAULT_PARAMS)
        assert t.pages == 6
        assert not t.has_entry(0)
        assert not t.has_entry(3)
        assert t.has_entry(4)
        assert entries(t) == [(4, 700), (5, 701)]

    def test_spans_leaves(self):
        t = build_file_table([(0, 0, PAGES_PER_LEAF + 5)], devid=1,
                             params=DEFAULT_PARAMS)
        assert len(t.leaves) == 2
        assert t.pages == PAGES_PER_LEAF + 5

    def test_hole_spanning_whole_leaf_leaves_it_unallocated(self):
        t = build_file_table(
            [(0, 10, 1), (2 * PAGES_PER_LEAF, 900, 1)], devid=1,
            params=DEFAULT_PARAMS)
        assert t.leaves[1] is None  # entirely a hole: no memory spent
        assert t.memory_bytes() == 2 * 4096

    def test_devid_stamped(self):
        t = build_file_table([(0, 7, 1)], devid=5, params=DEFAULT_PARAMS)
        assert fte_devid(t.leaves[0].entries[0]) == 5

    def test_entries_max_permission(self):
        """Shared FTEs carry R/W; the private attach point narrows."""
        t = build_file_table([(0, 7, 1)], devid=1, params=DEFAULT_PARAMS)
        assert pte_writable(t.leaves[0].entries[0])

    def test_build_cost_linear(self):
        small = build_file_table([(0, 0, 16)], 1, DEFAULT_PARAMS)
        large = build_file_table([(0, 0, 1600)], 1, DEFAULT_PARAMS)
        assert large.build_cost_ns == 100 * small.build_cost_ns


class TestSetRange:
    def test_tail_growth_in_place(self):
        t = build_file_table([(0, 0, 10)], 1, DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(10, 500, 5, DEFAULT_PARAMS)
        assert new_leaves == []
        assert t.pages == 15
        assert entries(t)[-1] == (14, 504)

    def test_growth_allocates_leaf_on_overflow(self):
        t = build_file_table([(0, 0, PAGES_PER_LEAF - 2)], 1,
                             DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(PAGES_PER_LEAF - 2, 900, 5,
                                    DEFAULT_PARAMS)
        assert new_leaves == [1]
        assert len(t.leaves) == 2

    def test_hole_fill_in_place(self):
        """Filling a hole inside an existing leaf needs no attach."""
        t = build_file_table([(0, 10, 1), (4, 20, 1)], 1,
                             DEFAULT_PARAMS)
        new_leaves, _ = t.set_range(2, 777, 1, DEFAULT_PARAMS)
        assert new_leaves == []
        assert t.has_entry(2)
        assert dict(entries(t))[2] == 777

    def test_empty_table_growth(self):
        t = FileTable(devid=1)
        new_leaves, _ = t.set_range(0, 10, 3, DEFAULT_PARAMS)
        assert new_leaves == [0]
        assert t.pages == 3

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            FileTable(devid=1).set_range(0, 0, 0, DEFAULT_PARAMS)

    def test_overwrite_remap_updates_entry(self):
        t = build_file_table([(0, 10, 1)], 1, DEFAULT_PARAMS)
        t.set_range(0, 99, 1, DEFAULT_PARAMS)
        assert dict(entries(t))[0] == 99

    def test_negative_logical_page_rejected_before_any_change(self):
        """A negative page must not wrap around to the last leaf."""
        t = FileTable(devid=1)
        t.set_range(0, 100, 600, DEFAULT_PARAMS)
        before = [list(leaf.entries) for leaf in t.leaves]
        with pytest.raises(ValueError, match="negative logical page"):
            t.set_range(-5, 100, 3, DEFAULT_PARAMS)
        assert [list(leaf.entries) for leaf in t.leaves] == before
        assert t.pages == 600
        assert t.build_cost_ns == 600 * DEFAULT_PARAMS.fte_write_ns

    def test_negative_page_has_no_entry(self):
        t = build_file_table([(0, 100, 600)], 1, DEFAULT_PARAMS)
        assert not t.has_entry(-1)
        assert not t.has_entry(-600)


class TestTruncate:
    def test_truncate_clears_entries(self):
        t = build_file_table([(0, 0, 10)], 1, DEFAULT_PARAMS)
        dead = t.truncate_pages(4)
        assert dead == []
        assert t.pages == 4
        assert not t.has_entry(4)
        assert t.has_entry(3)

    def test_truncate_drops_leaves(self):
        t = build_file_table([(0, 0, 2 * PAGES_PER_LEAF)], 1,
                             DEFAULT_PARAMS)
        dead = t.truncate_pages(10)
        assert dead == [1]
        assert len(t.leaves) == 1

    def test_truncate_to_zero(self):
        t = build_file_table([(0, 0, 5)], 1, DEFAULT_PARAMS)
        dead = t.truncate_pages(0)
        assert dead == [0]
        assert t.pages == 0
        assert t.leaves == []

    def test_truncate_noop_beyond_size(self):
        t = build_file_table([(0, 0, 5)], 1, DEFAULT_PARAMS)
        assert t.truncate_pages(10) == []
        assert t.pages == 5

    def test_truncate_skips_hole_leaves(self):
        t = build_file_table(
            [(0, 10, 1), (2 * PAGES_PER_LEAF, 900, 1)], devid=1,
            params=DEFAULT_PARAMS)
        dead = t.truncate_pages(1)
        assert dead == [2]  # the hole leaf (index 1) was never real

    def test_negative_rejected(self):
        t = FileTable(devid=1)
        with pytest.raises(ValueError):
            t.truncate_pages(-1)


class TestDensityInvariant:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["extend", "truncate"]),
                              st.integers(1, 700)), max_size=20))
    def test_grow_shrink_keeps_density(self, ops):
        """Property: tail-only grow/shrink keeps entries dense in
        [0, pages) — the paper's common-case growth pattern."""
        t = FileTable(devid=1)
        phys = 0
        for op, n in ops:
            if op == "extend":
                t.set_range(t.pages, phys, n, DEFAULT_PARAMS)
                phys += n
            else:
                t.truncate_pages(max(0, t.pages - n))
            t.check_dense()
            assert t.entry_count() == t.pages

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1200), st.integers(1, 64)),
                    max_size=16))
    def test_sparse_writes_match_dict_model(self, ranges):
        """Property: arbitrary-order range installs behave like a dict
        of page -> device page."""
        t = FileTable(devid=1)
        model = {}
        phys = 1
        for logical, count in ranges:
            t.set_range(logical, phys, count, DEFAULT_PARAMS)
            for i in range(count):
                model[logical + i] = phys + i
            phys += count + 3
        assert dict(entries(t)) == model
        assert t.entry_count() == len(model)


class TestInputChecks:
    """A bad run raises before the table changes."""

    @pytest.mark.parametrize("devid, logical, device_page, count", [
        (64, 3 * PAGES_PER_LEAF, 10, 5),                 # DevID > 63
        (1, 3 * PAGES_PER_LEAF, (1 << 40) - 2, 5),       # LBA overflows
        (1, 3 * PAGES_PER_LEAF, -1, 5),                  # negative LBA
    ])
    def test_error_leaves_table_unchanged(self, devid, logical,
                                          device_page, count):
        t = build_file_table([(0, 100, PAGES_PER_LEAF + 3)], devid=1,
                             params=DEFAULT_PARAMS)
        t.devid = devid
        before = (list(t.leaves), t.pages, t.build_cost_ns, entries(t))
        with pytest.raises(ValueError):
            t.set_range(logical, device_page, count, DEFAULT_PARAMS)
        assert (list(t.leaves), t.pages, t.build_cost_ns,
                entries(t)) == before
        assert t.span_bytes == 2 * PAGES_PER_LEAF * 4096

    def test_overflow_mid_run_writes_nothing(self):
        """A run whose last page passes 2^40 would once be half written."""
        t = FileTable(devid=1)
        t.set_range(0, 7, 4, DEFAULT_PARAMS)
        before = entries(t)
        with pytest.raises(ValueError):
            t.set_range(2, (1 << 40) - 3, 8, DEFAULT_PARAMS)
        assert entries(t) == before
        assert t.pages == 4


def _oracle_set_range(leaves, logical, device_page, count, devid):
    """Per-page reference: one ``fte_encode`` per FTE."""
    new = []
    for i in range(count):
        leaf_idx, slot = divmod(logical + i, PAGES_PER_LEAF)
        while len(leaves) <= leaf_idx:
            leaves.append(None)
        if leaves[leaf_idx] is None:
            leaves[leaf_idx] = [0] * PAGES_PER_LEAF
            new.append(leaf_idx)
        leaves[leaf_idx][slot] = fte_encode(device_page + i, devid)
    return new


def _oracle_truncate(leaves, keep):
    """Per-page reference for ``truncate_pages(keep)`` below the last
    mapped page: returns the indices of the leaves it drops."""
    first_dead = -(-keep // PAGES_PER_LEAF)
    dead = [idx for idx in range(first_dead, len(leaves))
            if leaves[idx] is not None]
    del leaves[first_dead:]
    for page in range(keep, first_dead * PAGES_PER_LEAF):
        leaf_idx, slot = divmod(page, PAGES_PER_LEAF)
        if leaves[leaf_idx] is not None:
            leaves[leaf_idx][slot] = 0
    return dead


# A run's start: leaf-aligned half the time, else mid-leaf.
_OFFSETS = st.one_of(st.just(0), st.integers(1, PAGES_PER_LEAF - 1))
# A run's length: inside a leaf or two, or 2–6 whole leaves' worth with
# a partial tail (none when the tail draws 0).
_COUNTS = st.one_of(
    st.integers(1, PAGES_PER_LEAF),
    st.builds(lambda whole, tail: whole * PAGES_PER_LEAF + tail,
              st.integers(2, 6), st.integers(0, PAGES_PER_LEAF - 1)))


class TestBulkFillMatchesOracle:
    @settings(max_examples=60, deadline=None)
    # Multi-leaf runs whose first LBA is not 512-aligned: whole new
    # leaves, a head and a tail, across a 4096-LBA boundary and not.
    @example(runs=[(0, 0, 4096 * 5 - 700, 3 * PAGES_PER_LEAF + 9),
                   (4, 17, 4096 * 9 + 3, 2 * PAGES_PER_LEAF)],
             keep=13 * PAGES_PER_LEAF, devid=63)
    @example(runs=[(1, 0, 511, 4 * PAGES_PER_LEAF),
                   (0, 300, (1 << 40) - 8 * PAGES_PER_LEAF + 1,
                    6 * PAGES_PER_LEAF + 5)],
             keep=3 * PAGES_PER_LEAF + 1, devid=0)
    @given(runs=st.lists(
               st.tuples(
                   # logical start: leaf index and offset within the leaf
                   st.integers(0, 5), _OFFSETS,
                   st.integers(0, (1 << 40) - 8 * PAGES_PER_LEAF),
                   _COUNTS),
               min_size=1, max_size=8),
           keep=st.integers(0, 13 * PAGES_PER_LEAF),
           devid=st.integers(0, 63))
    def test_runs_then_truncate(self, runs, keep, devid):
        """Runs that start leaf-aligned or mid-leaf, cover whole new
        leaves, end in a partial tail, overwrite existing leaves and
        leave holes give exactly the per-page entries, new-leaf indices
        and cost; so does a later truncate."""
        t = FileTable(devid=devid)
        oracle = []
        cost = 0
        for leaf, offset, device_page, count in runs:
            logical = leaf * PAGES_PER_LEAF + offset
            new, run_cost = t.set_range(logical, device_page, count,
                                        DEFAULT_PARAMS)
            assert new == _oracle_set_range(oracle, logical, device_page,
                                            count, devid)
            assert run_cost == count * DEFAULT_PARAMS.fte_write_ns
            cost += run_cost
            assert [None if leaf is None else list(leaf.entries)
                    for leaf in t.leaves] == oracle
        assert t.build_cost_ns == cost

        pages = t.pages
        dead = t.truncate_pages(keep)
        if keep >= pages:
            assert dead == []
            return
        assert dead == _oracle_truncate(oracle, keep)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in t.leaves] == oracle
        assert t.pages == keep


class TestHostBytes:
    """A leaf costs the host the 4 KiB page the model charges for it."""

    @pytest.mark.parametrize("size", [2 << 20, 64 << 20, 1 << 30])
    def test_leaf_buffers_are_the_modelled_pages(self, size):
        t = build_file_table([(0, 4096, size // 4096)], devid=3,
                             params=DEFAULT_PARAMS)
        assert len(t.leaves) == size // PMD_SPAN
        for leaf in t.leaves:
            assert leaf.entries.itemsize * len(leaf.entries) == 4096
        assert t.memory_bytes() == sum(
            leaf.entries.itemsize * len(leaf.entries) for leaf in t.leaves)
        assert t.memory_bytes() == size // 512   # Section 6.3: 0.2 %


class TestTopOfRange:
    """A run ending at the last 40-bit LBA under the largest DevID."""

    LAST_LBA = (1 << 40) - 1
    DEVID = 63
    BASE = 0x4000_0000_0000

    @pytest.mark.parametrize("logical, count", [
        (0, 4 * PAGES_PER_LEAF),                          # whole leaves
        (PAGES_PER_LEAF - 7, 4 * PAGES_PER_LEAF + 30),    # head, 3, tail
    ])
    def test_whole_leaves_match_oracle(self, logical, count):
        """Whole leaves made from stepped lanes keep every bit of the
        fullest entries; the run ends at the last LBA."""
        first_lba = self.LAST_LBA - count + 1
        t = FileTable(devid=self.DEVID)
        new, _cost = t.set_range(logical, first_lba, count, DEFAULT_PARAMS)
        oracle = []
        assert new == _oracle_set_range(oracle, logical, first_lba, count,
                                        self.DEVID)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in t.leaves] == oracle

    @pytest.mark.parametrize("writable", [True, False])
    def test_bulk_fill_and_walk(self, writable):
        # Starts mid-leaf, fills one whole leaf and ends mid-leaf.
        logical = PAGES_PER_LEAF - 5
        count = PAGES_PER_LEAF + 42
        first_lba = self.LAST_LBA - count + 1
        t = FileTable(devid=self.DEVID)
        t.set_range(logical, first_lba, count, DEFAULT_PARAMS)
        oracle = []
        _oracle_set_range(oracle, logical, first_lba, count, self.DEVID)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in t.leaves] == oracle

        pt = PageTable()
        pt.attach_leaves(self.BASE, t.leaves, t.leaf_runs(),
                         writable=writable)
        for page in (logical, logical + 5, 2 * PAGES_PER_LEAF,
                     logical + count - 1):
            walk = pt.walk(self.BASE + page * 4096)
            assert walk.is_fte
            assert fte_lba(walk.entry) == first_lba + page - logical
            assert fte_devid(walk.entry) == self.DEVID
            assert walk.effective_writable is writable
        assert not pt.walk(self.BASE + (logical + count) * 4096).present
        assert not pt.walk(self.BASE + (logical - 1) * 4096).present


class TestLeafAllocation:
    def test_leaf_buffers_are_not_over_allocated(self):
        """Whole leaves from lanes and leaves filled by ``fill_run`` hold
        the same exact 4 KiB buffer as a zeroed node, not the ~7 % larger
        one ``array("Q", bytes)`` allocates."""
        t = build_file_table([(5, 4096, 3 * PAGES_PER_LEAF)], devid=3,
                             params=DEFAULT_PARAMS)
        exact = sys.getsizeof(PageTableNode(LEVEL_PT).entries)
        assert [sys.getsizeof(leaf.entries) for leaf in t.leaves] == (
            [exact] * 4)


def _unread(leaf):
    """True when ``leaf`` has never built its entries."""
    try:
        PageTableNode.entries.__get__(leaf)
    except AttributeError:
        return True
    return False


class TestLazyLeaves:
    """Whole leaves of a run hold their first FTE until first read."""

    def test_cold_build_of_2gib_reads_no_entries(self):
        pages = 2 * GiB // 4096
        t = build_file_table([(0, 4096, pages)], devid=3,
                             params=DEFAULT_PARAMS)
        assert len(t.leaves) == pages // PAGES_PER_LEAF
        assert all(_unread(leaf) for leaf in t.leaves)
        assert t.memory_bytes() == 2 * GiB // 512
        assert t.build_cost_ns == pages * DEFAULT_PARAMS.fte_write_ns
        # A warm fmap's attach links the leaves without reading them.
        pt = PageTable()
        pt.attach_leaves(0x4000_0000_0000, t.leaves, t.leaf_runs(),
                         writable=False)
        assert all(_unread(leaf) for leaf in t.leaves)
        # The first walk builds exactly the leaf it lands in, from that
        # leaf's own first FTE.
        walk = pt.walk(0x4000_0000_0000 + (700 * PAGES_PER_LEAF + 9) * 4096)
        assert fte_lba(walk.entry) == 4096 + 700 * PAGES_PER_LEAF + 9
        assert [i for i, leaf in enumerate(t.leaves)
                if not _unread(leaf)] == [700]

    def test_partial_and_existing_leaves_are_built_now(self):
        t = FileTable(devid=1)
        new, _cost = t.set_range(2 * PAGES_PER_LEAF + 5, 100,
                                 3 * PAGES_PER_LEAF, DEFAULT_PARAMS)
        assert new == [2, 3, 4, 5]
        assert [_unread(leaf) for leaf in t.leaves[2:]] == [
            False, True, True, False]
        # Whole new leaves stop at the first existing leaf; existing
        # leaves, unread or not, are built and updated in place.
        leaf3 = t.leaves[3]
        new, _cost = t.set_range(0, 9000, 7 * PAGES_PER_LEAF,
                                 DEFAULT_PARAMS)
        assert new == [0, 1, 6]
        assert t.leaves[3] is leaf3
        assert [_unread(leaf) for leaf in t.leaves] == [
            True, True, False, False, False, False, True]
        assert fte_lba(t.leaves[1].entries[7]) == 9000 + PAGES_PER_LEAF + 7
        assert fte_lba(leaf3.entries[4]) == 9000 + 3 * PAGES_PER_LEAF + 4
        assert fte_lba(t.leaves[6].entries[0]) == 9000 + 6 * PAGES_PER_LEAF

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.integers(0, 5), _OFFSETS,
                      st.integers(0, (1 << 40) - 8 * PAGES_PER_LEAF),
                      _COUNTS),
            st.tuples(st.just("truncate"),
                      st.integers(0, 12 * PAGES_PER_LEAF))),
        min_size=1, max_size=8),
        devid=st.integers(0, 63),
        probes=st.lists(st.integers(-1, 13 * PAGES_PER_LEAF), max_size=20))
    def test_matches_an_eagerly_built_table(self, ops, devid, probes):
        """Random ``set_range`` / ``truncate_pages`` sequences, which
        build a leaf only where they write into it, give the same
        entries and answers as a table built eagerly from the per-page
        oracle."""
        lazy = FileTable(devid=devid)
        oracle, pages = [], 0
        for op in ops:
            if op[0] == "set":
                _, leaf, offset, device_page, count = op
                logical = leaf * PAGES_PER_LEAF + offset
                new, _cost = lazy.set_range(logical, device_page, count,
                                            DEFAULT_PARAMS)
                assert new == _oracle_set_range(oracle, logical, device_page,
                                                count, devid)
                pages = max(pages, logical + count)
            else:
                keep = op[1]
                dead = lazy.truncate_pages(keep)
                if keep >= pages:
                    assert dead == []
                    continue
                assert dead == _oracle_truncate(oracle, keep)
                pages = keep
        eager = FileTable(devid=devid, pages=pages,
                          build_cost_ns=lazy.build_cost_ns,
                          leaves=[None] * len(oracle))
        for idx, leaf in enumerate(oracle):
            if leaf is not None:
                eager.leaves[idx] = PageTableNode(LEVEL_PT)
                eager.leaves[idx].entries[:] = array("Q", leaf)
        assert lazy.pages == eager.pages
        assert lazy.memory_bytes() == eager.memory_bytes()
        assert lazy.leaf_runs() == eager.leaf_runs()
        assert [lazy.has_entry(p) for p in probes] == [
            eager.has_entry(p) for p in probes]
        assert lazy.entry_count() == eager.entry_count()
        assert entries(lazy) == entries(eager)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in lazy.leaves] == oracle


class TestGrowthThroughFmap:
    """``FmapManager.on_extents_added`` on a table a process has
    attached: the shared leaves match the per-page oracle and every
    page of the process's region walks to its oracle entry."""

    @settings(max_examples=10, deadline=None)
    @given(growth=st.lists(
        st.tuples(st.integers(0, 7), _OFFSETS,
                  st.integers(0, (1 << 40) - 8 * PAGES_PER_LEAF), _COUNTS),
        min_size=1, max_size=3))
    def test_growth_matches_oracle(self, growth):
        m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                    capture_data=False)
        proc = m.spawn_process()
        thread = proc.new_thread()

        def open_and_fmap():
            fd = yield from m.kernel.sys_open(
                proc, thread, "/f", O_RDWR | O_CREAT | O_DIRECT,
                bypass_intent=True)
            yield from m.kernel.sys_fallocate(proc, thread, fd, 0, 1 << 20)
            return (yield from m.kernel.sys_fmap(proc, thread, fd))

        vba = m.run_process(open_and_fmap())
        inode = m.fs.lookup("/f")
        table = inode.file_table
        oracle = []
        for mapping in inode.extents.mappings():
            _oracle_set_range(oracle, *mapping, table.devid)
        extents = [(leaf * PAGES_PER_LEAF + offset, device_page,
                    # stay inside the region's growth headroom
                    min(count, 9 * PAGES_PER_LEAF
                        - leaf * PAGES_PER_LEAF - offset))
                   for leaf, offset, device_page, count in growth]
        m.bypassd.on_extents_added(inode, extents)
        for logical, device_page, count in extents:
            _oracle_set_range(oracle, logical, device_page, count,
                              table.devid)
        assert [None if leaf is None else list(leaf.entries)
                for leaf in table.leaves] == oracle
        pt = proc.aspace.page_table
        for leaf_idx, leaf in enumerate(oracle):
            for slot in range(PAGES_PER_LEAF):
                walk = pt.walk(vba + (leaf_idx * PAGES_PER_LEAF + slot)
                               * 4096)
                want = 0 if leaf is None else leaf[slot]
                assert walk.entry == want
                assert walk.effective_writable is bool(want)
