"""PCIe link cost model.

The paper measures a 345 ns device-register round trip and assumes the
latency is symmetric (Section 6.2).  The link is modelled as pure
latency — ATS translation traffic is small compared to data DMA, and
the paper notes ATS requests can be prioritised, so the model does not
queue translation messages behind data transfers.
"""

from __future__ import annotations

from .params import HardwareParams

__all__ = ["PCIeLink"]


class PCIeLink:
    """Point-to-point link between host root complex and a device."""

    def __init__(self, params: HardwareParams) -> None:
        self.params = params
        self.posted_writes = 0
        self.round_trips = 0

    @property
    def one_way_ns(self) -> int:
        return self.params.pcie_round_trip_ns // 2

    def doorbell_ns(self) -> int:
        """Posted MMIO write (does not wait for completion)."""
        self.posted_writes += 1
        return self.params.doorbell_ns

    def round_trip(self) -> int:
        """Request/response pair, e.g. an ATS translation request."""
        self.round_trips += 1
        return self.params.pcie_round_trip_ns
