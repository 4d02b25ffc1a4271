"""Unit + property tests for extent trees and the extent-status cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.ext4.extents import Extent, ExtentStatusCache, ExtentTree


class TestExtent:
    def test_validation(self):
        with pytest.raises(ValueError):
            Extent(0, 0, 0)
        with pytest.raises(ValueError):
            Extent(-1, 0, 1)

    def test_contains(self):
        e = Extent(10, 100, 5)
        assert e.contains(10)
        assert e.contains(14)
        assert not e.contains(15)
        assert not e.contains(9)


class TestExtentTree:
    def test_lookup_hit_and_hole(self):
        t = ExtentTree()
        t.insert(Extent(0, 500, 4))
        t.insert(Extent(8, 900, 2))
        assert t.lookup(0) == (500, 4)
        assert t.lookup(2) == (502, 2)
        assert t.lookup(4) is None  # hole
        assert t.lookup(9) == (901, 1)

    def test_lookup_edges(self):
        t = ExtentTree()
        assert t.lookup(0) is None
        t.insert(Extent(3, 700, 5))
        assert t.lookup(-1) is None
        assert t.lookup(2) is None   # hole before the first extent
        assert t.lookup(3) == (700, 5)
        assert t.lookup(7) == (704, 1)  # the extent's last block
        assert t.lookup(8) is None   # one past it

    def test_adjacent_extents_merge(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 4))
        t.insert(Extent(4, 104, 4))
        assert len(t) == 1
        assert t.lookup(0) == (100, 8)

    def test_non_mergeable_stay_separate(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 4))
        t.insert(Extent(4, 300, 4))  # logical-adjacent, phys not
        assert len(t) == 2

    def test_overlap_rejected(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 4))
        with pytest.raises(ValueError):
            t.insert(Extent(2, 600, 4))

    def test_truncate_frees_tail(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 10))
        freed = t.truncate(4)
        assert freed == [(104, 6)]
        assert t.lookup(3) == (103, 1)
        assert t.lookup(4) is None
        assert t.block_count == 4

    def test_truncate_whole_extents(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 4))
        t.insert(Extent(4, 200, 4))
        freed = t.truncate(2)
        assert (200, 4) in freed
        assert (102, 2) in freed

    def test_truncate_to_zero(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 4))
        t.truncate(0)
        assert len(t) == 0
        assert t.last_logical == 0

    def test_last_logical(self):
        t = ExtentTree()
        assert t.last_logical == 0
        t.insert(Extent(10, 100, 5))
        assert t.last_logical == 15

    def test_physical_runs(self):
        t = ExtentTree()
        t.insert(Extent(0, 100, 2))
        t.insert(Extent(2, 400, 3))
        assert t.physical_runs() == [(100, 2), (400, 3)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60),
                              st.integers(1, 8)), max_size=25))
    def test_matches_dict_model(self, inserts):
        """Property: the tree behaves like a per-block dict."""
        t = ExtentTree()
        model = {}
        next_phys = 1000
        for logical, count in inserts:
            blocks = range(logical, logical + count)
            if any(b in model for b in blocks):
                with pytest.raises(ValueError):
                    t.insert(Extent(logical, next_phys, count))
                continue
            t.insert(Extent(logical, next_phys, count))
            for i, b in enumerate(blocks):
                model[b] = next_phys + i
            next_phys += count + 7  # gap prevents accidental merges
            t.check_invariants()
        for b in range(70):
            got = t.lookup(b)
            if b in model:
                assert got is not None and got[0] == model[b]
            else:
                assert got is None
        # The run length reaches the end of the extent holding the
        # block (last block: 1); before block 0 everything is a hole.
        for b in range(-3, 72):
            want = None
            for logical, physical, count in t.mappings():
                if logical <= b < logical + count:
                    want = (physical + b - logical, logical + count - b)
            assert t.lookup(b) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 45))
    def test_truncate_property(self, count, cut):
        t = ExtentTree()
        t.insert(Extent(0, 100, count))
        freed = t.truncate(cut)
        kept = t.block_count
        assert kept == min(count, cut)
        assert kept + sum(c for _, c in freed) == count


class TestExtentStatusCache:
    def test_miss_then_hit(self):
        c = ExtentStatusCache()
        assert not c.is_cached(5)
        c.mark_cached(5)
        assert c.is_cached(5)
        assert c.hits == 1
        assert c.misses == 1

    def test_evict(self):
        c = ExtentStatusCache()
        c.mark_cached(5)
        c.evict(5)
        assert not c.is_cached(5)

    def test_clear(self):
        c = ExtentStatusCache()
        c.mark_cached(1)
        c.mark_cached(2)
        c.clear()
        assert not c.is_cached(1)
        assert not c.is_cached(2)
