"""Table 4: IOMMU translation overheads via IOAT DMA copies.

Paper: IOMMU off 1120 ns; on with IOTLB hit 1134 ns (+14); on with a
forced IOTLB miss 1317 ns (+183 page walk).
"""


def test_table4(experiment):
    table = experiment("table4")
    lat = dict(zip(table.column("Configuration"),
                   table.column("Latency (ns)")))
    off = lat["IOMMU off"]
    hit = lat["IOMMU on; constant src and dest (IOTLB hit)"]
    miss = lat["IOMMU on; varying src, const dest (IOTLB miss)"]
    assert off == 1120
    assert hit - off == 14        # negligible when the IOTLB hits
    assert miss - hit == 183      # one page walk
