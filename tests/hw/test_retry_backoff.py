"""Property tests for ``HardwareParams.retry_backoff_ns``.

The retry loops in kernel/blockio.py and core/userlib.py call this on
every failed attempt; the chaos retry-bounds oracle audits its output.
Four properties must hold for *any* (base, cap, attempt): bounded by
the cap, monotone non-decreasing in attempt, overflow-safe for
pathological attempt counts, and exactly the documented
``min(base << (attempt-1), cap)`` wherever that formula is evaluable."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.params import HardwareParams

bases = st.integers(min_value=0, max_value=10 ** 9)
caps = st.integers(min_value=0, max_value=10 ** 12)
attempts = st.integers(min_value=1, max_value=10 ** 6)


def params(base, cap):
    return HardwareParams().replace(io_retry_backoff_ns=base,
                                    io_retry_backoff_max_ns=cap)


@given(base=bases, cap=caps, attempt=attempts)
def test_bounded_by_the_cap(base, cap, attempt):
    v = params(base, cap).retry_backoff_ns(attempt)
    assert 0 <= v <= cap


@given(base=bases, cap=caps, attempt=st.integers(1, 200))
def test_monotone_non_decreasing(base, cap, attempt):
    p = params(base, cap)
    assert p.retry_backoff_ns(attempt) <= p.retry_backoff_ns(attempt + 1)


@given(base=bases, cap=caps,
       attempt=st.integers(min_value=10 ** 6, max_value=10 ** 18))
@settings(max_examples=30)
def test_overflow_safe_for_pathological_attempts(base, cap, attempt):
    # base << (attempt - 1) would be a ~10^17-bit integer; the shift
    # must saturate at the cap without materialising it.
    assert params(base, cap).retry_backoff_ns(attempt) == \
        (cap if base else 0)


@given(base=bases, cap=caps, attempt=st.integers(1, 60))
def test_matches_documented_formula_in_evaluable_range(base, cap,
                                                       attempt):
    v = params(base, cap).retry_backoff_ns(attempt)
    assert v == min(base << (attempt - 1), cap)


@given(attempt=st.integers(max_value=0))
@settings(max_examples=20)
def test_attempts_are_one_based(attempt):
    with pytest.raises(ValueError, match="1-based"):
        HardwareParams().retry_backoff_ns(attempt)


def test_default_params_schedule():
    p = HardwareParams()     # 50us base, 400us cap
    assert [p.retry_backoff_ns(a) for a in range(1, 6)] == \
        [50_000, 100_000, 200_000, 400_000, 400_000]
