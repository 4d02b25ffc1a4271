"""Figure 16: KVell throughput and latency for YCSB A/B/C.

Paper: BypassD beats KVell_1 (+33%/+24% on B/C) but trails KVell_64 in
throughput — except on YCSB A, where ext4's concurrent-write
serialisation bottlenecks KVell and BypassD gets close while cutting
latency by around two orders of magnitude.
"""


def grid(table):
    out = {}
    for wl, config, threads, kops, lat in table.rows:
        out[(wl, config, threads)] = (kops, lat)
    return out


def test_fig16(experiment):
    table = experiment("fig16")
    g = grid(table)
    threads = sorted({k[2] for k in g})
    mid = threads[len(threads) // 2]

    for wl in ("A", "B", "C"):
        for t in threads:
            kv1 = g[(wl, "kvell_1", t)]
            kv64 = g[(wl, "kvell_64", t)]
            byp = g[(wl, "bypassd", t)]
            # More throughput than KVell_1...
            assert byp[0] > kv1[0], f"{wl} x{t}"
            # ...with the lowest latency of the three.
            assert byp[1] < kv1[1]
            assert byp[1] < kv64[1]
        # KVell_64 buys throughput with queueing latency: >20x worse
        # latency than bypassd (paper: two orders of magnitude).
        assert g[(wl, "kvell_64", mid)][1] > \
            20 * g[(wl, "bypassd", mid)][1]

    # YCSB A: bypassd comes closest to kvell_64 because the inode
    # write lock throttles KVell's deep write queues.
    def closeness(wl, t):
        return g[(wl, "bypassd", t)][0] / g[(wl, "kvell_64", t)][0]

    t_hi = threads[-1]
    assert closeness("A", t_hi) > 0.99 * closeness("C", t_hi)
    assert closeness("A", t_hi) > 0.6
