"""Figure 15: BPF-KV average and p99.9 request latency.

Paper: sync has the highest latency; XRP crosses into the kernel once
per lookup; BypassD never does, so it is slightly lower than XRP; SPDK
is the floor, with BypassD ~4 us above it (7 translations x 550 ns);
overall ~72% throughput over sync and ~9.6% over XRP.
"""


def series(table, engine):
    out = {}
    for eng, threads, avg, p999, kops in table.rows:
        if eng == engine:
            out[threads] = (avg, p999, kops)
    return out


def test_fig15(experiment):
    table = experiment("fig15")
    sync = series(table, "sync")
    xrp = series(table, "xrp")
    spdk = series(table, "spdk")
    byp = series(table, "bypassd")

    low_threads = [t for t in sync if t <= 8]
    for t in low_threads:
        # Latency order: sync > xrp > bypassd > spdk.
        assert sync[t][0] > xrp[t][0] > byp[t][0] > spdk[t][0]
        # p99.9 keeps the same order (no BypassD tail blowup — the
        # MonetaD contrast from Section 2).
        assert sync[t][1] > byp[t][1]
        assert byp[t][1] < 1.5 * byp[t][0]

    # BypassD ~4us above SPDK: 7 lookup I/Os x ~550ns translation.
    gap = byp[1][0] - spdk[1][0]
    assert 2.5 < gap < 6.0

    # Throughput: bypassd over sync ~72% in the paper; accept >40%.
    gain_sync = byp[1][2] / sync[1][2]
    assert gain_sync > 1.4
    # Over XRP ~9.6%; accept 3%-35%.
    gain_xrp = byp[1][2] / xrp[1][2]
    assert 1.03 < gain_xrp < 1.35
