"""Unit tests for the workload models' geometry and mechanics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import GiB, Machine
from repro.apps.bpfkv import BPFKVGeometry
from repro.apps.kvell import KVellConfig
from repro.apps.wiredtiger import BTreeGeometry, WiredTigerModel


def _reference_path(g, key):
    """``path_pages`` as a per-level loop: the leaf index, divided by
    the fanout once per level above it, offset by the pages of the
    levels before it in the file (root first)."""
    sizes = g.level_sizes  # leaves first
    idx = key // g.entries_per_leaf
    per_level = [idx]
    for _ in sizes[1:]:
        idx //= g.internal_fanout
        per_level.append(idx)
    path = []
    base = 0
    for level in range(len(sizes) - 1, -1, -1):
        path.append(base + per_level[level])
        base += sizes[level]
    return path


class TestBTreeGeometry:
    def test_paper_scale(self):
        """1B keys, 512B pages, 16B k/v: the paper's 46GB store."""
        g = BTreeGeometry(1_000_000_000)
        assert g.entries_per_leaf == 16
        assert 30 * (1 << 30) < g.file_size < 50 * (1 << 30)
        assert 5 <= g.height <= 8

    def test_level_sizes_shrink(self):
        g = BTreeGeometry(100_000)
        sizes = g.level_sizes
        assert sizes[-1] == 1  # root
        for a, b in zip(sizes, sizes[1:]):
            assert b < a

    def test_path_pages_root_first(self):
        g = BTreeGeometry(100_000)
        path = g.path_pages(0)
        assert len(path) == g.height
        assert path[0] == 0  # root is the first page in the file
        # Leaf pages live in the last region of the file.
        leaf_base = g.total_pages - g.level_sizes[0]
        assert path[-1] >= leaf_base

    def test_adjacent_keys_share_leaf(self):
        g = BTreeGeometry(100_000)
        p1 = g.path_pages(0)
        p2 = g.path_pages(1)
        assert p1 == p2  # same leaf: 16 entries per leaf

    def test_distant_keys_different_leaves(self):
        g = BTreeGeometry(100_000)
        assert g.path_pages(0)[-1] != g.path_pages(50_000)[-1]

    def test_key_out_of_range(self):
        g = BTreeGeometry(1000)
        with pytest.raises(KeyError):
            g.path_pages(1000)

    @settings(max_examples=200, deadline=None)
    @given(n_keys=st.integers(min_value=1, max_value=10**12),
           page_size=st.integers(min_value=16, max_value=8192),
           key_size=st.integers(min_value=1, max_value=64),
           value_size=st.integers(min_value=1, max_value=256),
           data=st.data())
    def test_path_pages_equals_the_per_level_loop(
            self, n_keys, page_size, key_size, value_size, data):
        g = BTreeGeometry(n_keys, page_size=page_size, key_size=key_size,
                          value_size=value_size)
        key = data.draw(st.integers(min_value=0, max_value=n_keys - 1))
        for k in (0, n_keys - 1, key):
            assert g.path_pages(k) == _reference_path(g, k)
        for k in (-1, n_keys, n_keys + key):
            with pytest.raises(KeyError):
                g.path_pages(k)


class TestBPFKVGeometry:
    def test_paper_scale_six_levels(self):
        g = BPFKVGeometry()
        assert g.fanout == 32
        assert g.height == 6       # paper: 6-level index for 920M
        assert len(g.lookup_offsets(0)) == 7  # 6 index + 1 value

    def test_offsets_are_node_aligned(self):
        g = BPFKVGeometry(n_objects=10_000_000)
        for key in (0, 12345, 9_999_999):
            for off in g.lookup_offsets(key):
                assert off % 512 == 0

    def test_index_before_log(self):
        g = BPFKVGeometry(n_objects=1_000_000)
        offsets = g.lookup_offsets(500_000)
        assert all(off < g.log_offset for off in offsets[:-1])
        assert offsets[-1] >= g.log_offset

    def test_distinct_levels(self):
        g = BPFKVGeometry(n_objects=1_000_000)
        offsets = g.lookup_offsets(999_999)
        assert len(set(offsets)) == len(offsets)

    def test_small_store_fewer_levels(self):
        g = BPFKVGeometry(n_objects=1000)
        assert g.height == 2
        assert len(g.lookup_offsets(999)) == 3


class TestKVellConfig:
    def test_slot_size_power_of_two(self):
        c = KVellConfig()
        assert c.item_size == 2048  # 16 + 1024 rounds up
        assert c.items_per_page == 2

    def test_slab_sizing(self):
        c = KVellConfig(n_objects=1000)
        assert c.slab_bytes(4) >= 250 * c.item_size

    def test_item_offsets_within_slab(self):
        c = KVellConfig(n_objects=1000)
        slab = c.slab_bytes(1)
        for i in (0, 1, 500, 999):
            off = c.item_offset(i)
            assert 0 <= off < slab
            assert off % c.item_size == 0 or off % 4096 == 0


class TestWiredTigerMechanics:
    def test_cache_contention_grows_with_threads(self):
        """The cache lock is the high-thread bottleneck (Figure 13)."""
        from repro.apps.wiredtiger import run_wiredtiger_ycsb

        geom = BTreeGeometry(200_000)

        def latency(threads):
            m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                        capture_data=False)
            r = run_wiredtiger_ycsb(m, "bypassd", "C", threads=threads,
                                    ops_per_thread=120, geometry=geom)
            return r.mean_lat_us

        # More threads warm the shared cache (hit rate rises), but past
        # the core/lock limits latency climbs anyway.
        assert latency(16) > latency(1)

    def test_cache_hit_rate_responds_to_cache_size(self):
        from repro.apps.wiredtiger import run_wiredtiger_ycsb

        geom = BTreeGeometry(200_000)

        def hit_rate(ratio):
            m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                        capture_data=False)
            r = run_wiredtiger_ycsb(
                m, "sync", "C", threads=1, ops_per_thread=200,
                geometry=geom,
                cache_bytes=int(geom.file_size * ratio))
            return r.cache_hit_rate

        assert hit_rate(0.5) > hit_rate(0.05)


class _RecordingFile:
    """An engine file that records the reads it is asked for and
    returns at once; ``chained`` gives it XRP's ``chained_read``."""

    def __init__(self, chained):
        self.calls = []
        if chained:
            self.chained_read = self._chained_read

    def pread(self, thread, offset, nbytes):
        self.calls.append(("pread", offset, nbytes))
        return nbytes, None
        yield

    def _chained_read(self, thread, offsets, nbytes):
        self.calls.append(("chained_read", list(offsets), nbytes))
        return nbytes, None
        yield


class _RecordingEngine:
    def __init__(self, f):
        self.f = f

    def open(self, thread, path, write=False):
        return self.f
        yield


# Path positions already cached -> the reads a 4-page path issues, as
# (call, path positions): consecutive misses are one chained read on a
# file that has chained_read, one pread each otherwise.
_MISS_PATTERNS = {
    "all-miss": ((), [("chained_read", [0, 1, 2, 3])],
                 [("pread", 0), ("pread", 1), ("pread", 2), ("pread", 3)]),
    "leaf-only": ((0, 1, 2), [("pread", 3)], [("pread", 3)]),
    "miss-hit-miss-miss": ((1,), [("pread", 0), ("chained_read", [2, 3])],
                           [("pread", 0), ("pread", 2), ("pread", 3)]),
}


@pytest.mark.parametrize("chained", [True, False],
                         ids=["chained", "plain"])
@pytest.mark.parametrize("pattern", sorted(_MISS_PATTERNS))
def test_read_path_issues_one_read_per_run_of_misses(pattern, chained):
    cached, with_chain, without_chain = _MISS_PATTERNS[pattern]
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False)
    thread = m.spawn_process("wt").new_thread()
    geom = BTreeGeometry(100_000)
    f = _RecordingFile(chained)
    model = WiredTigerModel(m, geom, 1 << 20, _RecordingEngine(f))
    m.run_process(model.open(thread))
    path = geom.path_pages(23_456)
    assert len(path) == 4
    for i in cached:
        model.cache.insert(path[i])
    hits, misses = model.cache.hits, model.cache.misses

    m.run_process(model._read_path(thread, model._file, path))
    ps = geom.page_size
    want = []
    for call, where in (with_chain if chained else without_chain):
        if call == "pread":
            want.append(("pread", path[where] * ps, ps))
        else:
            want.append(("chained_read", [path[i] * ps for i in where],
                         ps))
    assert f.calls == want
    assert model.ios == 4 - len(cached)
    assert (model.cache.hits - hits, model.cache.misses - misses) == (
        len(cached), 4 - len(cached))
    # Every page of the path is cached now: the next walk reads nothing.
    m.run_process(model._read_path(thread, model._file, path))
    assert len(f.calls) == len(want)
