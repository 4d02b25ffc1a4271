"""YCSB workload generators (workloads A-F).

Implements the Yahoo! Cloud Serving Benchmark core distributions the
paper's Figures 13, 14 and 16 are driven by:

- scrambled zipfian (theta = 0.99) for skewed key popularity,
- "latest" for insert-heavy workload D (recent keys are hottest),
- uniform scan lengths for workload E.

The zipfian zeta constant is computed exactly up to 10^6 items and by
integral continuation beyond, so paper-scale key counts (10^9) are
cheap while staying within a fraction of a percent of the true value.

Workload mixes (standard YCSB):

    A: 50% read / 50% update          D: 95% read / 5% insert (latest)
    B: 95% read /  5% update          E: 95% scan / 5% insert
    C: 100% read                      F: 50% read / 50% read-modify-write
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

__all__ = ["ZipfianGenerator", "LatestGenerator", "YCSBWorkload",
           "WORKLOAD_MIXES"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

WORKLOAD_MIXES = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}

_EXACT_ZETA_LIMIT = 1_000_000

# Exact partial sums S(m, theta), keyed by (m, theta).  Every n above
# the exact limit shares S(10^6, theta), so the cache is keyed by the
# summed prefix, not by n.  The paper's theta = 0.99 entry ships
# precomputed, as YCSB's ScrambledZipfianGenerator ships its ZETAN: a
# fresh interpreter would otherwise spend ~0.13 s on 10^6 pow calls
# before drawing its first key.  tests/apps/test_ycsb.py re-derives the
# literal from _sum_terms bit for bit.
_PARTIAL_SUMS = {
    (_EXACT_ZETA_LIMIT, 0.99): float.fromhex("0x1.ec8a087a85a53p+3"),
}


def _sum_terms(m: int, theta: float) -> float:
    """S(m, theta) = sum_{i=1..m} 1/i^theta, summed term by term."""
    total = 0.0
    for i in range(1, m + 1):
        total += 1.0 / (i ** theta)
    return total


def _zeta(n: int, theta: float) -> float:
    """zeta(n, theta) = sum_{i=1..n} 1/i^theta, exact then integral."""
    m = min(n, _EXACT_ZETA_LIMIT)
    total = _PARTIAL_SUMS.get((m, theta))
    if total is None:
        total = _PARTIAL_SUMS[(m, theta)] = _sum_terms(m, theta)
    if n > m:
        total += ((n + 0.5) ** (1 - theta) - (m + 0.5) ** (1 - theta)) \
            / (1 - theta)
    return total


def fnv_hash(value: int) -> int:
    """64-bit FNV-1a over the integer's 8 bytes (YCSB's scrambler)."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class ZipfianGenerator:
    """Scrambled zipfian over [0, n): skewed, hash-scattered keys."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1,
                 scrambled: bool = True):
        if n < 1:
            raise ValueError("need at least one item")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0,1)")
        self.n = n
        self.theta = theta
        self.scrambled = scrambled
        self.rng = random.Random(seed)
        self.zetan = _zeta(n, theta)
        self.zeta2 = _zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        denom = 1 - self.zeta2 / self.zetan
        # For n <= 2 the first two branches of next() cover the whole
        # probability mass, so eta never matters; avoid the 0/0.
        self.eta = ((1 - (2.0 / n) ** (1 - theta)) / denom
                    if denom > 1e-12 else 0.0)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1)
                       ** self.alpha)
            rank = min(rank, self.n - 1)
        if self.scrambled:
            return fnv_hash(rank) % self.n
        return rank

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()


class LatestGenerator:
    """YCSB's 'latest': zipfian over recency, newest keys hottest."""

    def __init__(self, initial_count: int, seed: int = 1):
        self.count = initial_count
        self._zipf = ZipfianGenerator(max(initial_count, 1), seed=seed,
                                      scrambled=False)

    def record_insert(self) -> int:
        """A new key was inserted; it becomes the most recent."""
        self.count += 1
        return self.count - 1

    def next(self) -> int:
        # Rank 0 = the most recently inserted key.
        rank = self._zipf.next() % self.count
        return self.count - 1 - rank


class YCSBOp:
    """One YCSB operation: its kind (read, update, insert, scan or rmw),
    key and (for scans) length."""

    def __init__(self, kind: str, key: int, scan_len: int = 0) -> None:
        self.kind = kind
        self.key = key
        self.scan_len = scan_len


class YCSBWorkload:
    """Op stream for one YCSB workload letter."""

    def __init__(self, letter: str, record_count: int, seed: int = 7,
                 max_scan_len: int = 100):
        letter = letter.upper()
        if letter not in WORKLOAD_MIXES:
            raise ValueError(f"unknown YCSB workload {letter!r}")
        self.letter = letter
        self.mix = WORKLOAD_MIXES[letter]
        self.record_count = record_count
        self.max_scan_len = max_scan_len
        self.rng = random.Random(seed)
        self._zipf = ZipfianGenerator(record_count, seed=seed + 1)
        self._latest = LatestGenerator(record_count, seed=seed + 2)
        self.inserted = 0

    def _choose_kind(self) -> str:
        u = self.rng.random()
        acc = 0.0
        for kind, frac in self.mix.items():
            acc += frac
            if u < acc:
                return kind
        return next(iter(self.mix))

    def next_op(self) -> YCSBOp:
        kind = self._choose_kind()
        if kind == "insert":
            key = self._latest.record_insert()
            self.inserted += 1
            return YCSBOp("insert", key)
        if self.letter == "D":
            return YCSBOp(kind, self._latest.next())
        key = self._zipf.next()
        if kind == "scan":
            return YCSBOp("scan", key,
                          scan_len=self.rng.randint(1, self.max_scan_len))
        return YCSBOp(kind, key)

    def ops(self, count: int) -> Iterator[YCSBOp]:
        for _ in range(count):
            yield self.next_op()
