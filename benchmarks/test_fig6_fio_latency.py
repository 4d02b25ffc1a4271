"""Figure 6: fio single-threaded random latency/bandwidth, QD 1.

Paper claims reproduced here:
- BypassD achieves lower latency and higher bandwidth than all kernel
  approaches at every block size (reads ~30.5% better than sync/libaio
  on average, writes ~27.8%).
- io_uring sits between the kernel baselines and userspace approaches.
- BypassD is very close to SPDK, slightly higher due to VBA
  translation on reads; writes hide the translation entirely.
"""

import pytest


def by_engine_size(table):
    out = {}
    for row in table.rows:
        engine, kb, lat, bw = row
        out[(engine, kb)] = (lat, bw)
    return out


def test_fig6_read(experiment):
    table = experiment("fig6")
    data = by_engine_size(table)
    sizes = sorted({kb for _, kb in data})
    for kb in sizes:
        sync_lat = data[("sync", kb)][0]
        byp_lat = data[("bypassd", kb)][0]
        spdk_lat = data[("spdk", kb)][0]
        iou_lat = data[("io_uring", kb)][0]
        assert byp_lat < sync_lat, f"bypassd must beat sync at {kb}KB"
        assert byp_lat < iou_lat, f"bypassd must beat io_uring at {kb}KB"
        assert spdk_lat <= byp_lat, f"spdk is the floor at {kb}KB"
        # BypassD tracks SPDK closely: translation plus the user/DMA
        # copy (which grows with size) stay under ~18% of the latency.
        assert (byp_lat - spdk_lat) / spdk_lat < 0.18
    # At 4KB the absolute gap is the paper's <0.8us overhead claim.
    assert data[("bypassd", 4)][0] - data[("spdk", 4)][0] < 0.85

    # Average read-latency improvement over sync: paper says 30.5%.
    improvements = [1 - data[("bypassd", kb)][0] / data[("sync", kb)][0]
                    for kb in sizes]
    avg = sum(improvements) / len(improvements)
    assert 0.10 < avg < 0.45
    # 4KB specifically: the headline ~42% (we accept 30-45%).
    assert 0.30 < improvements[0] < 0.45


def test_fig6_write(experiment):
    table = experiment("fig6-write")
    data = by_engine_size(table)
    sizes = sorted({kb for _, kb in data})
    for kb in sizes:
        assert data[("bypassd", kb)][0] < data[("sync", kb)][0]
    # Writes overlap translation with the data transfer: bypassd is
    # even closer to SPDK than on reads.
    gap_4k = data[("bypassd", 4)][0] - data[("spdk", 4)][0]
    assert gap_4k < 0.4
    improvements = [1 - data[("bypassd", kb)][0] / data[("sync", kb)][0]
                    for kb in sizes]
    assert sum(improvements) / len(improvements) > 0.10
