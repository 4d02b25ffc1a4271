"""XRP: in-kernel storage functions with eBPF (Zhong et al., OSDI '22).

XRP attaches a BPF program to a hook in the NVMe driver's completion
path.  A chained lookup (e.g. a B-tree traversal that needs the content
of one block to find the next) enters the kernel *once*; every
subsequent hop is issued from the driver — no extra mode switches, no
VFS — paying only the resubmission hook, the BPF execution and the
device.

It accelerates exactly chained I/O: single reads still take the normal
kernel path, and it "only works with data structures that have a fixed
layout on disk" (Section 7) — here, the hop offsets must be resolvable
against the file's extent map without filesystem help.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, List

from ..kernel.blockio import extent_runs, negative_offset, read_covering
from ..kernel.process import Process
from ..kernel.syscalls import Kernel
from ..nvme.spec import OP_READ
from ..sim.cpu import Thread
from ..sim.trace import charge_phases
from .sync_io import KernelFile, SyncEngine

__all__ = ["XRPEngine", "XRPFile"]


class XRPFile(KernelFile):
    """Kernel file with a BPF resubmission program attached."""

    def __init__(self, kernel: Kernel, proc: Process, fd: int,
                 engine: "XRPEngine"):
        super().__init__(kernel, proc, fd)
        self.engine = engine

    def chained_read(self, thread: Thread, offsets: List[int],
                     nbytes: int) -> Generator:
        """Read ``offsets`` in sequence, each hop resubmitted in-kernel.

        The offsets model a pointer chase: offset *k+1* is computed by
        the BPF program from the block read at offset *k*.  Returns the
        final hop's (n, data).
        """
        if not offsets:
            raise ValueError("chained read needs at least one offset")
        for offset in offsets:
            if offset < 0:
                raise negative_offset(offset)
        params = self.kernel.params
        kernel = self.kernel
        # One normal kernel entry for the first hop.
        yield from kernel.enter(thread, (None, params.vfs_ext4_ns))
        result = (0, None)
        inode = self.inode
        for hop, offset in enumerate(offsets):
            n = max(0, min(nbytes, self.size - offset))
            read = self._hop
            if hop:
                # Resubmission from the driver's completion path: the
                # BPF program runs, re-queues, and the thread stays
                # asleep in the original syscall.
                yield from charge_phases(
                    kernel.sim, ((None, params.xrp_resubmit_ns),
                                 (None, params.xrp_bpf_exec_ns)),
                    thread=thread)
                # Issued from the driver: no block-layer or driver charge.
                read = partial(self._hop, charge_layers=False)
            data = yield from read_covering(read, thread, inode, offset,
                                            max(n, 1))
            result = (n, data[:n] if data is not None else None)
        yield from kernel.leave(thread)
        return result

    def _hop(self, thread: Thread, inode, offset: int, n: int,
             charge_layers: bool = True) -> Generator:
        return self.kernel.blockio.rw_runs(
            thread, OP_READ, extent_runs(inode, offset, n),
            charge_layers=charge_layers)


class XRPEngine(SyncEngine):
    """sync-plus-BPF: plain ops use the kernel path, chains use XRP."""

    name = "xrp"

    def _file(self, thread: Thread, fd: int) -> XRPFile:
        return XRPFile(self.kernel, self.proc, fd, self)
