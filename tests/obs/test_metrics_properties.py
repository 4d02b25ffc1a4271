"""Property tests for the log-linear histogram.

The histogram promises: exact count/sum/min/max, and the bucket that
``quantile_bounds`` reports holds the exact nearest-rank percentile of
the raw samples within a relative error of 2**-sub_bits.
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


def histogram(name, values):
    h = Histogram(name)
    for v in values:
        h.record(v)
    return h


@settings(deadline=None, max_examples=200)
@given(samples)
def test_count_sum_min_max_exact(values):
    h = histogram("h", values)
    assert h.count == len(values)
    assert h.sum == sum(values)
    assert h.min == min(values)
    assert h.max == max(values)


@settings(deadline=None, max_examples=200)
@given(samples, pcts)
def test_quantile_bounds_bracket_exact_sample(values, pct):
    h = histogram("h", values)
    exact = int(exact_percentile(values, pct))
    lower, upper = h.quantile_bounds(pct)
    # The exact nearest-rank sample lies inside the reported bucket...
    assert lower <= exact <= upper
    # ...and the bucket is narrow enough for the <= 1/32 contract
    # (sub_bits=5): width < lower / 2**sub_bits above the linear range.
    assert upper - lower <= max(0, lower >> h.sub_bits)


@settings(deadline=None, max_examples=100)
@given(samples, samples)
def test_quantile_bounds_p999_relative_error(left, right):
    """The exemplar-threshold contract: over two batches of samples,
    the p999 bucket's bounds stay within 1/32 relative error of the
    exact nearest-rank p999 of both."""
    h = histogram("h", left)
    for v in right:
        h.record(v)
    exact = int(exact_percentile(left + right, 99.9))
    lower, upper = h.quantile_bounds(99.9)
    assert lower <= exact <= upper
    if exact > 0:
        assert (exact - lower) / exact <= 1.0 / (1 << h.sub_bits)
        assert (upper - exact) / exact <= 1.0 / (1 << h.sub_bits)


def test_quantile_bounds_empty_and_edge():
    h = Histogram("h")
    with pytest.raises(ValueError, match="no samples"):
        h.quantile_bounds(99.9)
    h.record(7, n=3)
    # Linear range: unit-width bucket, bounds are exact.
    assert h.quantile_bounds(50) == (7, 7)
    assert h.quantile_bounds(0) == (7, 7)
    # Above the linear range the bucket brackets the sample but is
    # NOT clamped to the observed max (thresholds need the raw lower).
    big = Histogram("big")
    big.record(1000)
    lower, upper = big.quantile_bounds(99.9)
    assert lower <= 1000 <= upper


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
        h.quantile_bounds(50)  # empty
    with pytest.raises(ValueError):
        Histogram("h", sub_bits=0)
