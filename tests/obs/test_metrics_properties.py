"""Property tests for the log-linear histogram.

The histogram promises: exact count/sum/min/max; any reported
percentile falls in the same bucket as the exact nearest-rank
percentile of the raw samples (relative error <= 2**-sub_bits); and
merging two histograms equals recording the union of their samples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.sim.stats import percentile as exact_percentile

samples = st.lists(st.integers(min_value=0, max_value=1 << 40),
                   min_size=1, max_size=200)
pcts = st.floats(min_value=0.001, max_value=100.0,
                 allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(samples)
def test_count_sum_min_max_exact(values):
    h = Histogram("h")
    h.record_many(values)
    assert h.count == len(values)
    assert h.sum == sum(values)
    assert h.min == min(values)
    assert h.max == max(values)


@settings(deadline=None, max_examples=200)
@given(samples, pcts)
def test_percentile_within_one_bucket(values, pct):
    h = Histogram("h")
    h.record_many(values)
    exact = int(exact_percentile(values, pct))
    reported = h.percentile(pct)
    # Same bucket as the exact sample...
    assert h._index(reported) == h._index(exact)
    # ...which bounds the relative error at 2**-sub_bits.
    assert exact <= reported
    assert reported - exact <= max(1, exact >> h.sub_bits)


@settings(deadline=None, max_examples=200)
@given(samples, pcts)
def test_quantile_bounds_bracket_exact_sample(values, pct):
    h = Histogram("h")
    h.record_many(values)
    exact = int(exact_percentile(values, pct))
    lower, upper = h.quantile_bounds(pct)
    # The exact nearest-rank sample lies inside the reported bucket...
    assert lower <= exact <= upper
    # ...and the bucket is narrow enough for the <= 1/32 contract
    # (sub_bits=5): width < lower / 2**sub_bits above the linear range.
    assert upper - lower <= max(0, lower >> h.sub_bits)
    # percentile() reports from the same bucket (clamped to max).
    assert lower <= h.percentile(pct) <= upper


@settings(deadline=None, max_examples=100)
@given(samples, samples)
def test_quantile_bounds_p999_relative_error_under_merge(left, right):
    """The exemplar-threshold contract: after any merge, the p999
    bucket's bounds stay within 1/32 relative error of the exact
    nearest-rank p999 of the union."""
    a = Histogram("a")
    a.record_many(left)
    b = Histogram("b")
    b.record_many(right)
    a.merge(b)
    exact = int(exact_percentile(left + right, 99.9))
    lower, upper = a.quantile_bounds(99.9)
    assert lower <= exact <= upper
    if exact > 0:
        assert (exact - lower) / exact <= 1.0 / (1 << a.sub_bits)
        assert (upper - exact) / exact <= 1.0 / (1 << a.sub_bits)


def test_quantile_bounds_empty_and_edge():
    h = Histogram("h")
    with pytest.raises(ValueError, match="no samples"):
        h.quantile_bounds(99.9)
    h.record_many([7, 7, 7])
    # Linear range: unit-width bucket, bounds are exact.
    assert h.quantile_bounds(50) == (7, 7)
    assert h.quantile_bounds(0) == (7, 7)
    # Above the linear range the bucket brackets the sample but is
    # NOT clamped to the observed max (thresholds need the raw lower).
    big = Histogram("big")
    big.record(1000)
    lower, upper = big.quantile_bounds(99.9)
    assert lower <= 1000 <= upper


@settings(deadline=None, max_examples=100)
@given(samples, samples)
def test_merge_equals_union(left, right):
    a = Histogram("a")
    a.record_many(left)
    b = Histogram("b")
    b.record_many(right)
    a.merge(b)
    u = Histogram("u")
    u.record_many(left + right)
    assert a.counts == u.counts
    assert a.count == u.count
    assert a.sum == u.sum
    assert a.min == u.min
    assert a.max == u.max
    assert a.summary() == u.summary()


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=1 << 50))
def test_bucket_bounds_roundtrip(value):
    h = Histogram("h")
    idx = h._index(value)
    lower, upper = h.bucket_bounds(idx)
    assert lower <= value <= upper
    # Bucket width respects the relative-error contract.
    assert upper - lower <= max(0, lower >> h.sub_bits)


def test_histogram_rejects_bad_input():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.record(-1)
    with pytest.raises(ValueError):
        h.record(1, n=0)
    with pytest.raises(ValueError):
        h.percentile(50)  # empty
    with pytest.raises(ValueError):
        h.merge(Histogram("other", sub_bits=4))
    with pytest.raises(ValueError):
        Histogram("h", sub_bits=0)


def test_empty_summary():
    assert Histogram("h").summary() == {"count": 0, "sum": 0}


def test_empty_histogram_contract():
    """Pinned: quantile accessors raise on empty; summary degrades."""
    h = Histogram("h")
    with pytest.raises(ValueError, match="no samples"):
        h.percentile(50)
    with pytest.raises(ValueError, match="no samples"):
        h.mean
    # Exactly these keys, no min/max/quantiles.
    assert h.summary() == {"count": 0, "sum": 0}


@settings(deadline=None, max_examples=100)
@given(samples)
def test_merge_with_empty_side_is_identity(values):
    # Non-empty ← empty: nothing changes.
    a = Histogram("a")
    a.record_many(values)
    before = (dict(a.counts), a.count, a.sum, a.min, a.max)
    a.merge(Histogram("empty"))
    assert (dict(a.counts), a.count, a.sum, a.min, a.max) == before

    # Empty ← non-empty: the empty side becomes a copy.
    b = Histogram("b")
    src = Histogram("src")
    src.record_many(values)
    b.merge(src)
    assert b.counts == src.counts
    assert (b.count, b.sum, b.min, b.max) == \
        (src.count, src.sum, src.min, src.max)
    assert b.summary() == src.summary()

    # Empty ← empty stays empty.
    e = Histogram("e")
    e.merge(Histogram("e2"))
    assert e.summary() == {"count": 0, "sum": 0}

