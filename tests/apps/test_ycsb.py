"""Unit + property tests for the YCSB generators."""

import importlib.util
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ycsb
from repro.apps.ycsb import (
    WORKLOAD_MIXES,
    LatestGenerator,
    YCSBWorkload,
    ZipfianGenerator,
    fnv_hash,
)


class TestZipfian:
    def test_keys_in_range(self):
        g = ZipfianGenerator(1000, seed=1)
        for _ in range(500):
            assert 0 <= g.next() < 1000

    def test_skew_unscrambled(self):
        """Unscrambled zipfian: rank 0 is by far the hottest."""
        g = ZipfianGenerator(10_000, seed=2, scrambled=False)
        counts = {}
        for _ in range(5000):
            k = g.next()
            counts[k] = counts.get(k, 0) + 1
        top = max(counts, key=counts.get)
        assert top == 0
        assert counts[0] > 5000 * 0.05  # >5% on one key of 10k

    def test_scrambled_spreads_hot_keys(self):
        g = ZipfianGenerator(10_000, seed=3)
        seen = {g.next() for _ in range(2000)}
        # The hottest scrambled key is not key 0.
        assert 0 not in list(seen)[:1] or len(seen) > 10

    def test_deterministic_with_seed(self):
        a = [ZipfianGenerator(100, seed=7).next() for _ in range(10)]
        b = [ZipfianGenerator(100, seed=7).next() for _ in range(10)]
        assert a == b

    def test_paper_scale_construction_is_fast(self):
        g = ZipfianGenerator(1_000_000_000, seed=1)
        assert 0 <= g.next() < 1_000_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_fnv_stays_64bit(self, v):
        assert 0 <= fnv_hash(v) < (1 << 64)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=100_000),
           st.integers(min_value=0, max_value=2**32))
    def test_any_size_in_range(self, n, seed):
        g = ZipfianGenerator(n, seed=seed)
        for _ in range(20):
            assert 0 <= g.next() < n


def _reference_zetas(ns, theta):
    """zeta(n, theta) for each n: one term-by-term loop up to 10^6, then
    the integral continuation -- the definition, independent of the
    module's cache and shipped constant."""
    limit = 1_000_000
    prefix = {}
    checkpoints = {min(n, limit) for n in ns}
    total = 0.0
    for i in range(1, max(checkpoints) + 1):
        total += 1.0 / (i ** theta)
        if i in checkpoints:
            prefix[i] = total
    out = {}
    for n in ns:
        m = min(n, limit)
        z = prefix[m]
        if n > m:
            z += ((n + 0.5) ** (1 - theta) - (m + 0.5) ** (1 - theta)) \
                / (1 - theta)
        out[n] = z
    return out


@pytest.fixture
def fresh_ycsb(monkeypatch):
    """A new instance of the ycsb module: its cache holds exactly what
    ships, whatever earlier tests summed into the imported one."""
    spec = importlib.util.spec_from_file_location("fresh_ycsb",
                                                  ycsb.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


class TestZeta:
    def test_shipped_sum_is_the_term_by_term_sum(self, fresh_ycsb):
        shipped = fresh_ycsb._PARTIAL_SUMS[(1_000_000, 0.99)]
        assert shipped == fresh_ycsb._sum_terms(1_000_000, 0.99)

    def test_zeta_equals_the_reference_loop(self):
        ns = [1, 2, 256, 125_000, 10**6, 2 * 10**6, 34 * 10**6]
        want = _reference_zetas(ns, 0.99)
        for n in ns:
            assert ycsb._zeta(n, 0.99) == want[n], n

    def test_paper_theta_never_sums_at_or_above_the_exact_limit(
            self, fresh_ycsb, monkeypatch):
        def boom(m, theta):
            raise AssertionError(f"summed {m} terms at theta {theta}")

        monkeypatch.setattr(fresh_ycsb, "_sum_terms", boom)
        for n in (10**6, 10**6 + 1, 2 * 10**6, 34 * 10**6, 10**9):
            assert fresh_ycsb._zeta(n, 0.99) == ycsb._zeta(n, 0.99)

    def test_partial_sum_is_cached_by_prefix_not_by_n(self, monkeypatch):
        calls = []
        real = ycsb._sum_terms

        def counting(m, theta):
            calls.append((m, theta))
            return real(m, theta)

        monkeypatch.setattr(ycsb, "_EXACT_ZETA_LIMIT", 1000)
        monkeypatch.setattr(ycsb, "_PARTIAL_SUMS", {})
        monkeypatch.setattr(ycsb, "_sum_terms", counting)
        for n in (1000, 2000, 3000, 10**9):
            ycsb._zeta(n, 0.5)
        assert calls == [(1000, 0.5)]


class TestLatest:
    def test_favours_recent(self):
        g = LatestGenerator(10_000, seed=4)
        counts_high = sum(1 for _ in range(2000)
                          if g.next() > 10_000 - 100)
        assert counts_high > 600  # newest 1% gets the bulk

    def test_insert_advances(self):
        g = LatestGenerator(10, seed=1)
        new = g.record_insert()
        assert new == 10
        assert g.count == 11
        for _ in range(50):
            assert 0 <= g.next() < 11


class TestWorkloads:
    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            YCSBWorkload("Z", 100)

    @pytest.mark.parametrize("letter", list(WORKLOAD_MIXES))
    def test_mix_ratios_roughly_hold(self, letter):
        wl = YCSBWorkload(letter, 100_000, seed=9)
        kinds = {}
        for op in wl.ops(3000):
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        for kind, frac in WORKLOAD_MIXES[letter].items():
            share = kinds.get(kind, 0) / 3000
            assert share == pytest.approx(frac, abs=0.05)

    def test_scan_lengths_bounded(self):
        wl = YCSBWorkload("E", 1000, seed=2, max_scan_len=50)
        for op in wl.ops(500):
            if op.kind == "scan":
                assert 1 <= op.scan_len <= 50

    def test_inserts_grow_keyspace(self):
        wl = YCSBWorkload("D", 1000, seed=3)
        inserted_keys = [op.key for op in wl.ops(2000)
                         if op.kind == "insert"]
        assert inserted_keys
        assert inserted_keys == sorted(inserted_keys)
        assert inserted_keys[0] == 1000

    def test_keys_in_range(self):
        wl = YCSBWorkload("A", 500, seed=5)
        for op in wl.ops(1000):
            if op.kind != "insert":
                assert 0 <= op.key < wl._latest.count
