"""Figure 13: WiredTiger YCSB throughput scaling with threads.

Paper: BypassD improves throughput ~18% on average over the sync
baseline and ~13% over XRP; the improvement is larger at small thread
counts (at high counts the WiredTiger cache lock hides faster I/O);
YCSB D (insert-heavy, latest distribution) sees little benefit; on
YCSB E XRP cannot help (scans are single I/Os) while BypassD still
accelerates every I/O.
"""


def grid(table):
    out = {}
    for wl, engine, threads, kops, lat in table.rows:
        out[(wl, engine, threads)] = kops
    return out


def test_fig13(experiment):
    table = experiment("fig13")
    g = grid(table)
    workloads = sorted({k[0] for k in g})
    threads = sorted({k[2] for k in g})

    # Throughput scales with threads for every engine.
    for wl in workloads:
        for eng in ("sync", "bypassd"):
            assert g[(wl, eng, threads[-1])] > 1.5 * g[(wl, eng, 1)]

    # BypassD beats sync everywhere except (possibly) insert-heavy D.
    gains = []
    for wl in workloads:
        for t in threads:
            ratio = g[(wl, "bypassd", t)] / g[(wl, "sync", t)]
            if wl != "D":
                assert ratio > 1.0, f"bypassd<=sync on {wl} x{t}"
                gains.append(ratio)

    avg_gain = sum(gains) / len(gains)
    assert 1.08 < avg_gain < 1.9   # paper: ~1.18 average

    # The improvement is larger at 1 thread than at the max count.
    for wl in ("B", "C"):
        low = g[(wl, "bypassd", 1)] / g[(wl, "sync", 1)]
        high = g[(wl, "bypassd", threads[-1])] / \
            g[(wl, "sync", threads[-1])]
        assert low >= high * 0.95

    # D: little benefit (recent keys are cached; barely any I/O).
    d_gain = g[("D", "bypassd", 1)] / g[("D", "sync", 1)]
    c_gain = g[("C", "bypassd", 1)] / g[("C", "sync", 1)]
    assert d_gain < c_gain

    # E: XRP cannot accelerate scans, BypassD can.
    assert g[("E", "bypassd", 1)] > g[("E", "xrp", 1)]
    e_xrp_gain = g[("E", "xrp", 1)] / g[("E", "sync", 1)]
    assert e_xrp_gain < 1.1

    # BypassD vs XRP averaged across read workloads: paper ~13%.
    vs_xrp = [g[(wl, "bypassd", t)] / g[(wl, "xrp", t)]
              for wl in ("A", "B", "C", "F") for t in threads]
    assert sum(vs_xrp) / len(vs_xrp) > 1.03
