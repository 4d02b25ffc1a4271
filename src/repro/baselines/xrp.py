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

from typing import Generator, List, Optional

from ..fs.ext4.filesystem import FsError
from ..kernel.process import O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, Process
from ..kernel.syscalls import Kernel
from ..nvme.spec import Opcode
from ..sim.cpu import Thread
from ..sim.trace import charge_phases
from .sync_io import KernelFile

__all__ = ["XRPEngine", "XRPFile"]

PAGE = 4096
SECTOR = 512


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
        params = self.kernel.params
        kernel = self.kernel
        # One normal kernel entry for the first hop.
        yield from kernel._enter(thread, (None, params.vfs_ext4_ns))
        result = (0, None)
        for hop, offset in enumerate(offsets):
            n = max(0, min(nbytes, self.size - offset))
            aligned = -(-max(n, 1) // SECTOR) * SECTOR
            lba512 = self._resolve(offset)
            if hop == 0:
                data = yield from kernel.blockio.rw_bytes(
                    thread, Opcode.READ, lba512, aligned)
            else:
                # Resubmission from the driver's completion path: the
                # BPF program runs, re-queues, and the thread stays
                # asleep in the original syscall.
                yield from charge_phases(
                    kernel.sim, ((None, params.xrp_resubmit_ns),
                                 (None, params.xrp_bpf_exec_ns)),
                    thread=thread)
                data = yield from kernel.blockio.rw_bytes(
                    thread, Opcode.READ, lba512, aligned,
                    charge_layers=False)
            self.engine.hops += 1
            result = (n, data[:n] if data is not None else None)
        yield from kernel._exit(thread)
        return result

    def _resolve(self, offset: int) -> int:
        mapping = self.kernel.fs.bmap(self.inode, offset // PAGE)
        if mapping is None:
            raise FsError(f"XRP hop into hole at {offset}")
        return mapping[0] * (PAGE // SECTOR) + (offset % PAGE) // SECTOR


class XRPEngine:
    """sync-plus-BPF: plain ops use the kernel path, chains use XRP."""

    name = "xrp"

    def __init__(self, kernel: Kernel, proc: Process):
        self.kernel = kernel
        self.proc = proc
        self.hops = 0

    def open(self, thread: Thread, path: str, write: bool = False,
             create: bool = False) -> Generator:
        flags = (O_RDWR if write else O_RDONLY) | O_DIRECT
        if create:
            flags |= O_CREAT
        fd = yield from self.kernel.sys_open(self.proc, thread, path,
                                             flags)
        return XRPFile(self.kernel, self.proc, fd, self)
