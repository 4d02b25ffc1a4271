"""fmap(): mapping file blocks into process address spaces.

The kernel-side half of BypassD.  ``fmap`` (Section 3.2) resembles
``mmap``: it reserves a virtual region, attaches the inode's cached
file-table leaves at PMD granularity, and returns the starting Virtual
Block Address.  A returned VBA of 0 means the file is not eligible for
direct access and the caller must use the kernel interface.

This module also owns the *revocation* mechanism (Section 3.6): the
kernel can detach a process's FTEs at any time; the process's next
direct I/O faults in the IOMMU, UserLib re-issues fmap(), receives 0,
and falls back to the kernel path.

Eligibility rules implemented (Section 4.5.2):

- a file already open through the kernel interface cannot be fmap()ed;
- a kernel-interface open of an fmap()ed file revokes all attachments;
- multiple processes doing metadata-modifying writes force revocation.

The manager registers itself as the filesystem's *extent listener*:
whenever ext4 maps new blocks (appends, fallocate, hole-filling
writes), the cached file table gains the FTEs in place and any
brand-new leaves are attached to every mapped process.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..fs.ext4.filesystem import Ext4Filesystem
from ..fs.ext4.inode import Inode
from ..hw.iommu import IOMMU
from ..hw.pagetable import PMD_SPAN
from ..hw.params import HardwareParams
from ..kernel.process import FileDescription, Process
from ..sim.cpu import Thread
from ..sim.engine import Simulator
from .filetable import PAGES_PER_LEAF, FileTable, build_file_table

__all__ = ["FmapManager", "Attachment"]

PAGE = 4096
_GROWTH_HEADROOM_LEAVES = 8

Runs = List[Tuple[int, int]]  # (first leaf index, count), ascending


def _runs(indices: Sequence[int]) -> Runs:
    """Ascending, distinct leaf indices as ``(first, count)`` runs."""
    runs: Runs = []
    for idx in indices:
        if runs and runs[-1][0] + runs[-1][1] == idx:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((idx, 1))
    return runs


class Attachment:
    """One process's live mapping of one file.

    It links every allocated leaf of the inode's table: fmap links them
    all, growth links each new one (or dooms the attachment) and
    truncate unlinks each dropped one, so the table's ``leaf_runs()``
    are always what it has linked.  ``region_leaves`` is its VA
    capacity in leaves (growth headroom).
    """

    def __init__(self, proc: Process, base_va: int, region_leaves: int,
                 writable: bool, refcount: int = 1) -> None:
        self.proc = proc
        self.base_va = base_va
        self.region_leaves = region_leaves
        self.writable = writable
        self.refcount = refcount


class FmapManager:
    """Kernel-side BypassD state machine."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 fs: Ext4Filesystem, iommu: IOMMU):
        self.sim = sim
        self.params = params
        self.fs = fs
        self.iommu = iommu
        # inode.ino -> {pasid -> Attachment}
        self._attachments: Dict[int, Dict[int, Attachment]] = {}
        self.cold_fmaps = 0
        self.warm_fmaps = 0
        self.rejected_fmaps = 0
        self.revocations = 0
        # Keep cached tables in sync with every block allocation.
        fs.extent_listener = self.on_extents_added

    # -- fmap ----------------------------------------------------------------

    def fmap(self, proc: Process, thread: Thread,
             fdesc: FileDescription) -> Generator:
        """Attach the file's FTEs; returns the starting VBA (0 = refused)."""
        inode = fdesc.inode
        yield from thread.compute(self.params.fmap_base_ns)
        if not self._eligible(inode):
            self.rejected_fmaps += 1
            return 0

        attachments = self._attachments.setdefault(inode.ino, {})
        existing = attachments.get(proc.pasid)
        if existing is not None:
            existing.refcount += 1
            if fdesc.writable and not existing.writable:
                # Permission upgrade: re-attach with the R/W bit set at
                # the private intermediate entries.
                pt = proc.aspace.page_table
                runs = inode.file_table.leaf_runs()
                pt.detach_leaves(existing.base_va, runs)
                pt.attach_leaves(existing.base_va, inode.file_table.leaves,
                                 runs, writable=True)
                self.iommu.invalidate_range(
                    proc.pasid, existing.base_va,
                    existing.region_leaves * PMD_SPAN)
                existing.writable = True
            fdesc.vba = existing.base_va
            inode.fmap_attachments[proc.pasid] = existing.base_va
            return existing.base_va

        # Make the extent map resident (cold penalty when it is not).
        yield from self.fs.load_extents(inode)

        if inode.file_table is None:
            table = build_file_table(inode.extents.mappings(),
                                     self.fs.devid, self.params)
            inode.file_table = table
            self.cold_fmaps += 1
            yield from thread.compute(table.build_cost_ns)
        else:
            table = inode.file_table
            self.warm_fmaps += 1

        leaves = max(1, len(table.leaves))
        region_leaves = leaves + _GROWTH_HEADROOM_LEAVES
        base_va = proc.aspace.alloc_fmap_region(region_leaves * PMD_SPAN)
        attachment = Attachment(
            proc=proc, base_va=base_va, region_leaves=region_leaves,
            writable=fdesc.writable)
        runs = table.leaf_runs()
        proc.aspace.page_table.attach_leaves(
            base_va, table.leaves, runs, writable=fdesc.writable)
        linked = sum(map(itemgetter(1), runs))
        yield from thread.compute(
            max(1, linked) * self.params.pmd_attach_ns)

        attachments[proc.pasid] = attachment
        inode.fmap_attachments[proc.pasid] = base_va
        fdesc.vba = base_va
        return base_va

    def _eligible(self, inode: Inode) -> bool:
        if inode.is_dir:
            return False
        if inode.kernel_openers > 0:
            # Concurrent kernel-interface access is never allowed
            # (Section 4.5.2).
            return False
        if inode.bypass_revoked:
            # The inode quiesced; direct access may resume.
            if not inode.fmap_attachments and inode.kernel_openers == 0:
                inode.bypass_revoked = False
                return True
            return False
        return True

    # -- close ---------------------------------------------------------------

    def on_close(self, proc: Process, fdesc: FileDescription) -> None:
        inode = fdesc.inode
        attachments = self._attachments.get(inode.ino, {})
        attachment = attachments.get(proc.pasid)
        if attachment is None:
            return
        attachment.refcount -= 1
        if attachment.refcount > 0:
            return
        self._detach(attachment, inode.file_table.leaf_runs())
        del attachments[proc.pasid]
        inode.fmap_attachments.pop(proc.pasid, None)
        if not attachments:
            self._attachments.pop(inode.ino, None)

    def _detach(self, attachment: Attachment, linked: Runs) -> None:
        """Unlink ``linked``, the leaf runs ``attachment`` has linked."""
        attachment.proc.aspace.page_table.detach_leaves(
            attachment.base_va, linked)
        self.iommu.invalidate_range(
            attachment.proc.pasid, attachment.base_va,
            attachment.region_leaves * PMD_SPAN)

    # -- revocation (Section 3.6) ------------------------------------------

    def revoke(self, inode: Inode) -> None:
        """Detach every process's FTEs for this inode, immediately."""
        attachments = self._attachments.pop(inode.ino, {})
        if not attachments and not inode.fmap_attachments:
            return
        self.revocations += 1
        linked = inode.file_table.leaf_runs() if attachments else []
        for attachment in attachments.values():
            self._detach(attachment, linked)
        inode.fmap_attachments.clear()
        inode.bypass_revoked = True

    def note_metadata_write(self, inode: Inode, pasid: int) -> None:
        """Multiple processes changing a file's metadata force revocation."""
        inode.metadata_writers.add(pasid)
        if len(inode.metadata_writers) > 1:
            self.revoke(inode)

    # -- growth / shrink hooks (called under the kernel lock) -----------------

    def on_extents_added(self, inode: Inode,
                         extents: List[Tuple[int, int, int]]) -> None:
        """Filesystem mapped new blocks: install their FTEs in place
        and attach any brand-new leaves to every mapped process."""
        table: Optional[FileTable] = inode.file_table
        if table is None:
            return
        attachments = self._attachments.get(inode.ino, {})
        # What every attachment has linked before the growth.  A doomed
        # one unlinks just these: its region is followed directly by the
        # next one, so a new leaf past its end is another file's slot.
        linked = table.leaf_runs() if attachments else []
        created: List[int] = []
        for logical, phys, count in extents:
            new, _cost = table.set_range(logical, phys, count, self.params)
            created += new
        if not created:
            return
        new_runs = _runs(sorted(created))
        last_new = new_runs[-1][0] + new_runs[-1][1] - 1
        doomed: List[Attachment] = []
        for attachment in attachments.values():
            if last_new >= attachment.region_leaves:
                doomed.append(attachment)
                continue
            attachment.proc.aspace.page_table.attach_leaves(
                attachment.base_va, table.leaves, new_runs,
                writable=attachment.writable)
        for attachment in doomed:
            # The VA region cannot hold the grown file: revoke just this
            # process; its UserLib will re-fmap into a larger region.
            self._detach(attachment, linked)
            attachments.pop(attachment.proc.pasid, None)
            inode.fmap_attachments.pop(attachment.proc.pasid, None)

    def on_truncate(self, inode: Inode, new_size: int) -> None:
        """Blocks are about to be freed: clear FTEs so no process can
        reach them from userspace afterwards."""
        table: Optional[FileTable] = inode.file_table
        if table is None:
            return
        keep_pages = -(-new_size // PAGE)
        dead = _runs(table.truncate_pages(keep_pages))
        attachments = self._attachments.get(inode.ino, {})
        for attachment in attachments.values():
            attachment.proc.aspace.page_table.detach_leaves(
                attachment.base_va, dead)
            self.iommu.invalidate_range(
                attachment.proc.pasid,
                attachment.base_va + keep_pages * PAGE,
                max(PAGE, (attachment.region_leaves * PMD_SPAN
                           - keep_pages * PAGE)))

    # -- accounting -----------------------------------------------------------

    def file_table_bytes(self) -> int:
        total = 0
        for inode in self.fs.inodes.values():
            if inode.file_table is not None:
                total += inode.file_table.memory_bytes()
        return total

    def attachment_count(self) -> int:
        return sum(len(a) for a in self._attachments.values())
