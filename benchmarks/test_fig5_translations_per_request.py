"""Figure 5: IOMMU overhead vs number of translations per ATS request.

Paper: a slight increase going from 2 to 3 translations, then flat —
one 64 B cacheline holds 8 FTEs, so a single extra memory reference
extends a request by up to 32 KB.
"""


def test_fig5(experiment):
    table = experiment("fig5")
    overhead = dict(zip(table.column("Translations"),
                        table.column("IOMMU overhead (ns)")))
    assert overhead[1] == overhead[2]          # flat 1..2
    assert overhead[3] > overhead[2]           # bump at 3
    assert overhead[3] == overhead[10]         # flat 3..10
    assert overhead[11] > overhead[10]         # next cacheline
    # The whole curve stays within ~120ns: not a per-page cost.
    assert max(overhead.values()) - min(overhead.values()) <= 130
