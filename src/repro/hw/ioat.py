"""IOAT DMA engine model (Section 6.2 methodology).

The paper calibrates IOMMU translation costs by timing DMA copies
through Intel's I/OAT engine with the IOMMU off, with IOTLB hits
(constant buffers) and with forced IOTLB misses (varying the source
virtual address).  This model reproduces that experiment: a copy costs
a fixed engine time plus whatever the IOMMU charges for translating
the source and destination addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .iommu import IOMMU
from .params import HardwareParams

__all__ = ["IOATEngine", "CopyTiming"]


@dataclass
class CopyTiming:
    """One copy's latency, split into IOMMU translation and engine time."""

    total_ns: int
    translation_ns: int
    engine_ns: int


@dataclass
class IOATEngine:
    """DMA copy engine issuing IOVA-addressed transfers."""

    params: HardwareParams
    iommu: Optional[IOMMU] = None
    pasid: int = 0
    copies: int = field(default=0, init=False)

    def copy(self, src_iova: int, dst_iova: int, size: int) -> CopyTiming:
        """Time one descriptor's copy of ``size`` bytes."""
        if size <= 0:
            raise ValueError("copy size must be positive")
        self.copies += 1
        engine_ns = self.params.ioat_base_ns
        translation_ns = 0
        if self.iommu is not None and self.iommu.enabled:
            _, src_cost = self.iommu.translate_iova(self.pasid, src_iova,
                                                    write=False)
            _, dst_cost = self.iommu.translate_iova(self.pasid, dst_iova,
                                                    write=True)
            translation_ns = src_cost + dst_cost
        return CopyTiming(
            total_ns=engine_ns + translation_ns,
            translation_ns=translation_ns,
            engine_ns=engine_ns,
        )
