"""Hardware substrate: parameters, memory, page tables, IOMMU, PCIe.

The I/OAT DMA engine model is imported by its full name,
:mod:`repro.hw.ioat`: only Table 4 (IOMMU translation overheads) uses it.
"""

from .params import DEFAULT_PARAMS, GiB, HardwareParams, KiB, MiB
from .memory import DMABuffer, OutOfMemoryError, PhysicalMemory
from .pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PT,
    LEVEL_PUD,
    PAGE_SHIFT,
    PAGE_SIZE,
    PMD_SPAN,
    PUD_SPAN,
    PageTable,
    PageTableNode,
    RunLeaf,
    WalkResult,
    fte_devid,
    fte_encode,
    fte_lba,
    level_span,
    pte_encode,
    pte_is_fte,
    pte_pfn,
    pte_present,
    pte_user,
    pte_writable,
)
from .pcie import PCIeLink
from .iommu import IOMMU, AtsResult, TranslationFault

__all__ = [
    "DEFAULT_PARAMS",
    "GiB",
    "HardwareParams",
    "KiB",
    "MiB",
    "DMABuffer",
    "OutOfMemoryError",
    "PhysicalMemory",
    "ENTRIES_PER_NODE",
    "LEVEL_PGD",
    "LEVEL_PMD",
    "LEVEL_PT",
    "LEVEL_PUD",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PMD_SPAN",
    "PUD_SPAN",
    "PageTable",
    "PageTableNode",
    "RunLeaf",
    "WalkResult",
    "fte_devid",
    "fte_encode",
    "fte_lba",
    "level_span",
    "pte_encode",
    "pte_is_fte",
    "pte_pfn",
    "pte_present",
    "pte_user",
    "pte_writable",
    "PCIeLink",
    "IOMMU",
    "AtsResult",
    "TranslationFault",
]
