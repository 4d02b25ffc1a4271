"""Section 6.3: file-table memory overheads.

Paper: each 2 MB of file costs one 4 KB page of FTEs — a ~0.2%
overhead.
"""


def test_memory_overheads(experiment):
    table = experiment("memory")
    for mb, fte_kb, pct in table.rows:
        assert 0.18 <= pct <= 0.22
        assert fte_kb == mb * 4 / 2  # 4KB per 2MB
