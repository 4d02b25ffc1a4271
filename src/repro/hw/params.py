"""Calibrated hardware and software-stack constants.

Every latency number the simulation uses lives here, traceable to the
paper:

- Table 1 gives the per-layer cost of a 4 KB ``read()`` through Linux
  on the Optane P5800X (160 / 2810 / 540 / 220 / 4020 / 100 ns).
- Section 6.2 gives the PCIe round trip (345 ns), the IOTLB-hit
  translation delta (~14 ns), the page-walk delta (~183 ns), and the
  550 ns minimum end-to-end VBA translation the authors emulate.
- Figure 6 pins the single-thread 128 KB bandwidth near 3.5 GB/s and
  Figure 9 pins 4 KB saturation near 1.5 M IOPS, which calibrate the
  device's media bandwidth and channel parallelism.

`HardwareParams` is frozen: experiments derive variants with
:meth:`HardwareParams.replace` so a configuration is never mutated
behind a running simulation's back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["HardwareParams", "DEFAULT_PARAMS", "KiB", "MiB", "GiB"]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class HardwareParams:
    """All model constants, in nanoseconds / bytes unless noted."""

    # -- machine -----------------------------------------------------------
    cpu_cores: int = 24  # 12 physical, 24 with hyper-threading
    memcpy_bytes_per_ns: float = 40.0  # ~40 GB/s single-thread copy

    # -- kernel software stack (Table 1) ------------------------------------
    user_to_kernel_ns: int = 160
    kernel_to_user_ns: int = 100
    vfs_ext4_ns: int = 2810
    block_layer_ns: int = 540
    nvme_driver_ns: int = 220
    # Interrupt-driven completion handling, folded into Table 1's layers on
    # real hardware; kept explicit so polling paths can omit it.
    irq_completion_ns: int = 0
    syscall_dispatch_ns: int = 120  # entry bookkeeping before VFS
    page_cache_hit_ns: int = 450  # buffered-read hit cost excl. copy
    # Per-4KB-page kernel cost beyond the first page of a direct I/O:
    # bio assembly, get_user_pages pinning, sg-list setup.  This is why
    # the kernel's relative overhead does not vanish at 128 KB (Fig. 6).
    kernel_per_page_ns: int = 150

    # -- async interfaces ----------------------------------------------------
    libaio_submit_extra_ns: int = 150
    libaio_getevents_extra_ns: int = 150
    io_uring_sqe_prep_ns: int = 80
    io_uring_poll_interval_ns: int = 120  # SQPOLL pickup latency
    io_uring_kernel_stack_scale: float = 0.55  # fixed buffers/fds shortcut

    # -- userspace direct access ---------------------------------------------
    userlib_submit_ns: int = 110  # interception + VBA arithmetic + SQE
    userlib_complete_ns: int = 90  # CQE processing
    spdk_submit_ns: int = 90
    spdk_complete_ns: int = 80
    doorbell_ns: int = 100  # MMIO write posting

    # -- PCIe / IOMMU (Section 6.2, Table 4, Figure 5) ------------------------
    pcie_round_trip_ns: int = 345
    iotlb_hit_ns: int = 7  # per translation; 2 hits/copy give Table 4's +14
    pagewalk_memref_ns: int = 61  # one page-table cacheline fetch;
    # a full 3-level walk below cached upper levels costs ~183 ns.
    walk_cache_hit_ns: int = 8
    iotlb_entries: int = 64
    walk_cache_entries: int = 32
    # Nested (two-dimensional) walks for processes inside VMs with
    # Scalable-IOV/SR-IOV (Section 5.2): each guest level also walks
    # the host tables, roughly doubling the walk cost.
    nested_walk_factor: float = 2.33
    ats_processing_ns: int = 22  # ATS request decode/encode in the IOMMU;
    # 345 + 183 + 22 = 550 ns, the paper's minimum emulated VBA delay.
    ioat_base_ns: int = 1120  # IOAT DMA copy with the IOMMU off (Table 4)
    command_fetch_ns: int = 180  # device fetching the SQE over PCIe

    # -- NVMe device (Optane P5800X-like) -------------------------------------
    device_channels: int = 8
    # Media times are set so fetch + media + transfer + completion for a
    # 4 KB read totals Table 1's 4020 ns device time.
    read_media_ns: int = 2820
    write_media_ns: int = 2900
    media_bytes_per_ns: float = 4.3  # per-command transfer rate
    device_link_bytes_per_ns: float = 7.2  # aggregate device bandwidth
    flush_ns: int = 2_000
    completion_post_ns: int = 60
    device_block_size: int = 512
    device_page_size: int = 4096

    # -- filesystem / kernel memory management --------------------------------
    fte_write_ns: int = 5  # writing one file-table entry (cold fmap)
    pmd_attach_ns: int = 30  # pointer-update attach of a cached leaf
    fmap_base_ns: int = 650  # fixed fmap() syscall overhead
    open_base_ns: int = 1250  # open() path resolution + inode load
    extent_lookup_ns: int = 90  # extent-status-tree lookup per extent
    extent_miss_read_blocks: int = 1  # metadata blocks read per missing extent
    journal_commit_ns: int = 12_000
    block_zero_ns_per_kb: int = 45  # zeroing newly allocated blocks

    # -- XRP model -------------------------------------------------------------
    xrp_bpf_exec_ns: int = 300
    xrp_resubmit_ns: int = 900  # completion-path hook + requeue per hop

    # -- host error handling (fault-injection recovery policy) ----------------
    # Linux's nvme io_timeout is 30 s; scaled down so simulated fault
    # runs stay cheap while remaining >> any legitimate service time.
    io_timeout_ns: int = 5_000_000
    io_retry_limit: int = 3  # retries after the first failed attempt
    io_retry_backoff_ns: int = 50_000  # first backoff; doubles per retry
    io_retry_backoff_max_ns: int = 400_000  # bound on the exponential

    def replace(self, **kwargs) -> "HardwareParams":
        """Return a copy with some constants overridden."""
        return dataclasses.replace(self, **kwargs)

    # -- derived helpers ------------------------------------------------------

    def memcpy_ns(self, nbytes: int) -> int:
        """User-buffer <-> DMA-buffer copy time."""
        if nbytes < 0:
            raise ValueError("negative copy size")
        return int(round(nbytes / self.memcpy_bytes_per_ns))

    def media_transfer_ns(self, nbytes: int) -> int:
        return int(round(nbytes / self.media_bytes_per_ns))

    def kernel_read_stack_ns(self) -> int:
        """Software-only cost of a sync O_DIRECT read (Table 1 minus device)."""
        return (
            self.user_to_kernel_ns
            + self.vfs_ext4_ns
            + self.block_layer_ns
            + self.nvme_driver_ns
            + self.kernel_to_user_ns
        )

    def retry_backoff_ns(self, attempt: int) -> int:
        """Bounded exponential backoff before retry ``attempt`` (1-based).

        Monotone non-decreasing in ``attempt`` and capped at
        ``io_retry_backoff_max_ns``.  The shift saturates before it is
        evaluated, so a pathological attempt count (a retry loop gone
        wrong, a fuzzer-supplied huge value) cannot materialise a
        million-bit integer on its way to the cap.
        """
        if attempt < 1:
            raise ValueError(f"retry attempts are 1-based, got {attempt}")
        base = self.io_retry_backoff_ns
        cap = self.io_retry_backoff_max_ns
        shift = attempt - 1
        if base > 0 and shift >= cap.bit_length():
            return cap  # base << shift would already exceed the cap
        return min(base << shift, cap)

    def full_pagewalk_ns(self) -> int:
        """IOTLB miss with hot upper levels: ~3 memory references."""
        return 3 * self.pagewalk_memref_ns

    def device_read_ns(self, nbytes: int) -> int:
        """Unloaded end-to-end device service time for a read.

        fetch + media + transfer + completion; 4013 ns for 4 KB, matching
        Table 1's 4020 ns device time.
        """
        return (
            self.command_fetch_ns
            + self.read_media_ns
            + self.media_transfer_ns(nbytes)
            + self.completion_post_ns
        )


DEFAULT_PARAMS = HardwareParams()
