"""sync: the baseline Linux path with synchronous system calls.

Every operation pays the full Table 1 stack: mode switches, VFS+ext4,
block layer, NVMe driver, interrupt-driven completion.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..kernel.process import O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, Process
from ..kernel.syscalls import Kernel
from ..sim.cpu import Thread

__all__ = ["SyncEngine", "KernelFile"]


class KernelFile:
    """A file reached through kernel syscalls."""

    def __init__(self, kernel: Kernel, proc: Process, fd: int):
        self.kernel = kernel
        self.proc = proc
        self.fd = fd
        self.offset = 0

    @property
    def inode(self):
        return self.proc.get_fd(self.fd).inode

    @property
    def size(self) -> int:
        return self.inode.size

    def pread(self, thread: Thread, offset: int,
              nbytes: int) -> Generator:
        return self.kernel.sys_pread(self.proc, thread, self.fd, offset,
                                     nbytes)

    def pwrite(self, thread: Thread, offset: int, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        return self.kernel.sys_pwrite(self.proc, thread, self.fd, offset,
                                      nbytes, data)

    def append(self, thread: Thread, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        offset = self.size
        yield from self.kernel.sys_pwrite(self.proc, thread, self.fd,
                                          offset, nbytes, data)
        return offset

    def fsync(self, thread: Thread) -> Generator:
        return self.kernel.sys_fsync(self.proc, thread, self.fd)

    def close(self, thread: Thread) -> Generator:
        return self.kernel.sys_close(self.proc, thread, self.fd)


class SyncEngine:
    """Baseline Linux with synchronous syscalls (``sync`` in the figures).

    The base of every kernel-interface engine: they all open files with
    ``open(2)`` (O_DIRECT unless ``direct`` is off) and differ only in
    the file object :meth:`_file` wraps the descriptor in.
    """

    name = "sync"

    def __init__(self, kernel: Kernel, proc: Process,
                 direct: bool = True):
        self.kernel = kernel
        self.proc = proc
        self.direct = direct

    def open(self, thread: Thread, path: str, write: bool = False,
             create: bool = False) -> Generator:
        flags = O_RDWR if write else O_RDONLY
        if self.direct:
            flags |= O_DIRECT
        if create:
            flags |= O_CREAT
        fd = yield from self.kernel.sys_open(self.proc, thread, path,
                                             flags)
        return self._file(thread, fd)

    def _file(self, thread: Thread, fd: int) -> KernelFile:
        return KernelFile(self.kernel, self.proc, fd)
