"""Figure 9: 4 KB random-read latency and IOPS scaling with threads.

Paper claims reproduced:
- at low thread counts SPDK and BypassD beat all kernel approaches;
- BypassD's latency stays flat until the device saturates (~8 threads);
- past saturation everyone converges (BypassD gives no benefit on an
  overloaded device);
- io_uring collapses past 12 threads: its pollers burn one core per
  ring, so on a 24-CPU box 12 app threads already use every core.
"""


def series(table, engine):
    out = {}
    for eng, threads, lat, kiops in table.rows:
        if eng == engine:
            out[threads] = (lat, kiops)
    return out


def test_fig9(experiment):
    table = experiment("fig9")
    sync = series(table, "sync")
    byp = series(table, "bypassd")
    spdk = series(table, "spdk")
    iou = series(table, "io_uring")

    # Low thread counts: userspace wins on latency.
    for threads in (1, 2, 4):
        assert byp[threads][0] < sync[threads][0]
        assert spdk[threads][0] <= byp[threads][0]

    # BypassD latency flat until saturation.
    assert byp[8][0] < 1.5 * byp[1][0]

    # At saturation (>=16 threads) latencies converge within ~20%.
    assert abs(byp[24][0] - sync[24][0]) / sync[24][0] < 0.2

    # Device saturates around 1.5-1.8M IOPS for everyone who gets there.
    assert 1300 < byp[24][1] < 1900
    assert 1300 < sync[24][1] < 1900

    # io_uring drops hard after 12 threads (needs 2 cores per thread):
    # visible by 16-20 threads, drastic by 24.
    assert iou[16][1] < 0.8 * iou[12][1] or iou[20][1] < 0.8 * iou[12][1]
    assert iou[24][1] < 0.45 * iou[12][1]
