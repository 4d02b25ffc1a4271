"""Log-linear latency histograms.

:class:`Histogram` backs the tail-exemplar reservoir
(:mod:`repro.obs.exemplar`): it finds each tenant's percentile
threshold without sorting every sample.  Counters and gauges have no
registry here; each lives on the layer that counts it (see
``docs/observability.md``).

The histogram uses HdrHistogram-style log-linear buckets: values below
``2**sub_bits`` get exact unit buckets; above that, each power-of-two
range is split into ``2**sub_bits`` linear sub-buckets, so the bucket
that holds a quantile is within a relative error of ``2**-sub_bits``
of the exact sample.  Ranks follow the same nearest-rank convention as
:func:`repro.sim.stats.percentile` (rank = ceil(pct/100 * n)).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

__all__ = ["Histogram"]


class Histogram:
    """Fixed-bucket log-linear histogram of non-negative integers.

    ``sub_bits=5`` (the default) bounds the relative quantile error at
    1/32 ≈ 3.1%; count, sum, min and max are exact.
    """

    __slots__ = ("name", "sub_bits", "counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, sub_bits: int = 5):
        if not 0 < sub_bits < 16:
            raise ValueError(f"sub_bits out of range: {sub_bits}")
        self.name = name
        self.sub_bits = sub_bits
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    # -- bucket arithmetic -------------------------------------------------

    def _index(self, value: int) -> int:
        sub = 1 << self.sub_bits
        if value < sub:
            return value
        msb = value.bit_length() - 1
        shift = msb - self.sub_bits
        return ((shift + 1) << self.sub_bits) + ((value >> shift) - sub)

    def bucket_bounds(self, index: int) -> Tuple[int, int]:
        """Inclusive ``(lower, upper)`` value range of a bucket."""
        sub = 1 << self.sub_bits
        if index < sub:
            return index, index
        shift = (index >> self.sub_bits) - 1
        lower = (sub + (index & (sub - 1))) << shift
        return lower, lower + (1 << shift) - 1

    # -- recording ---------------------------------------------------------

    def record(self, value: int, n: int = 1) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative value {value}")
        if n <= 0:
            raise ValueError(f"histogram {self.name}: non-positive count {n}")
        value = int(value)
        idx = self._index(value)
        self.counts[idx] = self.counts.get(idx, 0) + n
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- quantiles ---------------------------------------------------------

    def quantile_bounds(self, pct: float) -> Tuple[int, int]:
        """Exact inclusive ``(lower, upper)`` value bounds of the
        bucket holding the nearest-rank percentile.

        The true sample at that rank lies inside these bounds — the
        log-linear layout makes ``upper - lower < lower / 2**sub_bits``
        above the linear range, which is where the ≤1/32 relative-error
        contract comes from.  The bounds are *not* clamped to the
        observed max: they describe the bucket, so thresholds derived
        from ``lower`` (the exemplar reservoir) admit exactly the
        samples that landed in or above the bucket.

        Raises ``ValueError("no samples")`` on an empty histogram: a
        quantile of nothing is a bug at the call site, not a zero.
        """
        if self.count == 0:
            raise ValueError("no samples")
        if pct <= 0:
            return self.bucket_bounds(self._index(int(self.min)))  # type: ignore[arg-type]
        rank = min(self.count, math.ceil(pct / 100.0 * self.count))
        cum = 0
        for idx in sorted(self.counts):
            cum += self.counts[idx]
            if cum >= rank:
                return self.bucket_bounds(idx)
        raise AssertionError("unreachable: rank exceeded total count")
