"""Processes, address spaces and file descriptors.

Each process owns a page table (identified by a PASID, as with Shared
Virtual Addressing) and a virtual-address region allocator.  BypassD
attaches file-table subtrees into these page tables at PMD/PUD
granularity, so the region allocator hands out regions aligned to the
attach granularity (Section 4.1).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Set

from ..hw.pagetable import PMD_SPAN, PUD_SPAN, PageTable
from ..sim.cpu import CPUSet, Thread

__all__ = [
    "O_RDONLY",
    "O_WRONLY",
    "O_RDWR",
    "O_CREAT",
    "O_DIRECT",
    "O_APPEND",
    "AddressSpace",
    "FileDescription",
    "Process",
]

O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_APPEND = 0o2000
O_DIRECT = 0o40000

_ACCESS_MASK = 0o3


class AddressSpace:
    """Page table + VA allocator for one process."""

    _FMAP_BASE = 0x5000_0000_0000  # distinct region for file mappings
    _MMAP_BASE = 0x2000_0000_0000

    def __init__(self, pasid: int):
        self.pasid = pasid
        self.page_table = PageTable()
        self._next_fmap_va = self._FMAP_BASE
        self._next_mmap_va = self._MMAP_BASE

    def alloc_fmap_region(self, size: int) -> int:
        """Reserve VA space for a file mapping.

        The region is sized and aligned to the page-table attach
        granularity: whole PMDs (2 MB) for files up to 1 GB, whole PUDs
        (1 GB) beyond, so cached file-table subtrees can be linked with
        pointer updates.
        """
        if size <= 0:
            raise ValueError("empty mapping")
        align = PMD_SPAN if size <= PUD_SPAN else PUD_SPAN
        length = -(-size // align) * align
        base = -(-self._next_fmap_va // align) * align
        self._next_fmap_va = base + length
        return base

    def alloc_mmap_region(self, size: int) -> int:
        base = self._next_mmap_va
        pages = -(-size // 4096)
        self._next_mmap_va += pages * 4096
        return base


class FileDescription:
    """An open file: inode reference, flags, offset.

    ``flags`` are fixed once the file is open, so the access checks the
    syscalls make on every call (``readable``, ``writable``, ``direct``,
    ``append_mode``) are plain attributes computed here.
    """

    def __init__(self, fd: int, path: str, inode, flags: int):
        self.fd = fd
        self.path = path
        self.inode = inode
        self.flags = flags
        access = flags & _ACCESS_MASK
        self.readable = access in (O_RDONLY, O_RDWR)
        self.writable = access in (O_WRONLY, O_RDWR)
        self.direct = bool(flags & O_DIRECT)
        self.append_mode = bool(flags & O_APPEND)
        self.offset = 0
        # BypassD-side state, managed by UserLib:
        self.vba = 0                 # starting VBA if fmap()ed, else 0
        self.accessed = False
        self.modified = False


class Process:
    """A user process: credentials, address space, descriptors, threads."""

    _pids = itertools.count(100)
    _pasids = itertools.count(1)

    def __init__(self, cpus: CPUSet, uid: int = 1000,
                 gids: Optional[Set[int]] = None, name: str = "",
                 chroot: str = ""):
        self.pid = next(self._pids)
        self.name = name or f"proc{self.pid}"
        self.uid = uid
        self.gids = set(gids) if gids else {uid}
        self.aspace = AddressSpace(pasid=next(self._pasids))
        self.cpus = cpus
        self.fds: Dict[int, FileDescription] = {}
        self._next_fd = 3
        self.threads: list = []
        # Mount-namespace root (container isolation, paper Section 5.2):
        # every path the process names is resolved under this prefix.
        self.chroot = chroot.rstrip("/")

    def resolve_path(self, path: str) -> str:
        """Apply the process's mount namespace to an absolute path."""
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute: {path!r}")
        return (self.chroot + path) if self.chroot else path

    @property
    def pasid(self) -> int:
        return self.aspace.pasid

    def new_thread(self, name: str = "") -> Thread:
        thread = self.cpus.thread(name or f"{self.name}-t{len(self.threads)}")
        self.threads.append(thread)
        return thread

    def install_fd(self, path: str, inode, flags: int) -> FileDescription:
        fdesc = FileDescription(self._next_fd, path, inode, flags)
        self.fds[self._next_fd] = fdesc
        self._next_fd += 1
        return fdesc

    def get_fd(self, fd: int) -> FileDescription:
        try:
            return self.fds[fd]
        except KeyError:
            raise OSError(f"bad file descriptor {fd}") from None

    def drop_fd(self, fd: int) -> FileDescription:
        fdesc = self.get_fd(fd)
        del self.fds[fd]
        return fdesc
