"""Table 6: the qualitative comparison, probed from the running models.

sync: shares but is slow.  SPDK: fast but cannot share.  BypassD: fast
and shares, with only the minor VBA/ATS device change.
"""


def test_table6(experiment):
    table = experiment("table6")
    rows = table.by("Approach")
    assert rows["sync"][1] == "no" and rows["sync"][2] == "yes"
    assert rows["spdk"][1] == "yes" and rows["spdk"][2] == "no"
    assert rows["bypassd"][1] == "yes" and rows["bypassd"][2] == "yes"
