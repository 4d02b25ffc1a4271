"""Table 1: latency breakdown of a 4 KB read() on the Optane SSD.

Paper: 160 / 2810 / 540 / 220 / 4020 / 100 ns, total 7850 ns, with the
device at ~51% and VFS+ext4 at ~36%.
"""


def test_table1(experiment):
    table = experiment("table1")
    rows = table.by("Layer")
    total = rows["Total (measured)"][1]
    assert abs(total - 7850) < 60

    device_share = rows["Device time"][2]
    assert 48 <= device_share <= 54          # paper: 51%
    vfs_share = rows["VFS + ext4"][2]
    assert 33 <= vfs_share <= 39             # paper: 36%
    # Software overhead is ~half of the access: the paper's motivation.
    software = total - rows["Device time"][1]
    assert 0.45 <= software / total <= 0.55
