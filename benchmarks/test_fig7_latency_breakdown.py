"""Figure 7: random read latency breakdown (user/kernel/device).

Paper: for sync the kernel share is large at small sizes; for BypassD
very little time is spent in UserLib, the majority of the non-device
time being the user/DMA buffer copy, which grows with block size.
"""


def test_fig7(experiment):
    table = experiment("fig7")
    rows = {}
    for kb, engine, user, kernel, device, total in table.rows:
        rows[(engine, kb)] = (user, kernel, device, total)

    sizes = sorted({kb for _, kb in rows})
    for kb in sizes:
        s_user, s_kernel, s_dev, s_total = rows[("sync", kb)]
        b_user, b_kernel, b_dev, b_total = rows[("bypassd", kb)]
        assert b_kernel == 0                 # no kernel on the data path
        assert s_kernel > 3.5                # full Table 1 stack
        assert b_total < s_total
    # The sync kernel share dominates at 4KB...
    assert rows[("sync", 4)][1] / rows[("sync", 4)][3] > 0.4
    # ...and the bypassd user share (the copy) grows with size.
    assert rows[("bypassd", 128)][0] > rows[("bypassd", 4)][0] * 8
