"""Figure 14: WiredTiger throughput vs cache size (normalized to sync).

Paper: as the cache grows, XRP's advantage shrinks (fewer consecutive
misses to chain), while BypassD keeps a consistent improvement — it
accelerates *every* I/O, not just chained ones.
"""


def test_fig14(experiment):
    table = experiment("fig14")
    norm = {}
    for wl, cache_gb, engine, ratio in table.rows:
        norm[(wl, cache_gb, engine)] = ratio
    caches = sorted({k[1] for k in norm})
    workloads = sorted({k[0] for k in norm})

    for wl in workloads:
        for cache in caches:
            assert norm[(wl, cache, "sync")] == 1.0
            # BypassD above sync at every cache size.
            assert norm[(wl, cache, "bypassd")] > 1.0
            # BypassD at or above XRP at every cache size.
            assert norm[(wl, cache, "bypassd")] >= \
                0.97 * norm[(wl, cache, "xrp")]

    # Consistency: bypassd's improvement band is narrower than xrp's
    # trend across cache sizes on read-heavy workloads.
    for wl in ("B", "C"):
        xrp = [norm[(wl, c, "xrp")] for c in caches]
        byp = [norm[(wl, c, "bypassd")] for c in caches]
        assert min(byp) > 1.0
        # XRP's benefit at the largest cache is no bigger than at the
        # smallest (its chains disappear as the cache grows).
        assert xrp[-1] <= xrp[0] + 0.1
