"""Figure 8: effect of VBA translation latency on read bandwidth.

Paper: bandwidth decreases slightly as translation slows; even at
1.35 us of translation latency BypassD keeps significantly higher
bandwidth than the sync baseline; the 350 ns (cached FTE) vs 550 ns
(uncached) difference is minimal, so an FTE IOTLB is not critical.
"""


def test_fig8(experiment):
    table = experiment("fig8")
    bw = {}
    for delay, engine, gbps in table.rows:
        bw[delay if engine == "bypassd" else "sync"] = gbps

    # Monotone decrease with translation latency.
    delays = sorted(d for d in bw if isinstance(d, int) and d >= 0)
    for lo, hi in zip(delays, delays[1:]):
        assert bw[lo] >= bw[hi]
    # Even the slowest translation beats sync comfortably.
    assert bw[1350] > 1.15 * bw["sync"]
    # Caching FTEs (350ns) barely helps over 550ns: <8% difference.
    assert (bw[350] - bw[550]) / bw[550] < 0.08
