"""Syscall layer: the kernel interface of the paper (Figure 1a).

Costs follow Table 1: 160 ns to enter the kernel, 2810 ns of VFS+ext4,
540 ns block layer, 220 ns NVMe driver, 100 ns to return — plus the
device.  Metadata operations (open, append, fallocate, ftruncate,
fsync, close) always run here, both for the kernel interface and for
the BypassD interface (Table 3); only the data path differs.

All syscalls are generators executed on a caller thread inside a
simulation process:

    n, data = yield from kernel.sys_pread(proc, thread, fd, off, nbytes)
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from ..fs.ext4.filesystem import Ext4Filesystem
from ..fs.ext4.inode import Inode
from ..hw.params import HardwareParams
from ..nvme.spec import OP_READ, OP_WRITE
from ..sim.cpu import Thread
from ..sim.engine import Simulator
from ..sim.resources import Lock
from ..sim.trace import NULL_TRACER, charge_phases
from .blockio import (
    PAGE,
    SECTOR,
    BlockIOLayer,
    extent_runs,
    negative_offset,
    read_covering,
    write_covering,
)
from .pagecache import PageCache
from .process import (
    O_APPEND,
    O_CREAT,
    O_DIRECT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    FileDescription,
    Process,
)

__all__ = ["Kernel", "PermissionError_"]


class PermissionError_(Exception):
    pass


def _pad_to(data: Optional[bytes], size: int) -> Optional[bytes]:
    if data is None:
        return None
    if len(data) > size:
        raise ValueError("payload larger than padded size")
    return data + bytes(size - len(data))


class Kernel:
    """Syscall entry points plus kernel-side BypassD hooks."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 fs: Ext4Filesystem, blockio: BlockIOLayer,
                 pagecache: PageCache):
        self.sim = sim
        self.params = params
        self.fs = fs
        self.blockio = blockio
        self.pagecache = pagecache
        # Set by the machine once the BypassD manager exists; the kernel
        # works fine without it (pure kernel-interface machine).
        self.bypassd = None
        self.syscall_count = 0
        self.tracer = NULL_TRACER
        # The fixed phases of every entry, built once: HardwareParams
        # is frozen.
        self._enter_phase = ("mode-switch-enter", params.user_to_kernel_ns)
        self._vfs_phase = ("vfs-ext4", params.vfs_ext4_ns)
        # ext4 serialises concurrent writes to one inode (i_rwsem); the
        # paper calls this bottleneck out for KVell on YCSB A, which
        # BypassD sidesteps by writing from userspace (Section 6.5).
        self._inode_write_locks: dict = {}

    def write_begin(self, thread: Thread, inode: Inode,
                    offset: Optional[int], nbytes: int) -> Generator:
        """ext4's write entry: take the inode's write lock
        (i_rwsem), then allocate any unmapped blocks the write touches
        (``offset`` None writes at EOF).  Returns ``(offset, lock)``;
        once the data is written the caller calls :meth:`write_end`, or
        releases ``lock`` if the write failed."""
        lock = self._inode_write_locks.get(inode.ino)
        if lock is None:
            lock = self._inode_write_locks[inode.ino] = Lock(self.sim)
        lock_t0 = self.sim.now
        yield from thread.block(lock.acquire())
        self.tracer.add_wait("inode_lock", self.sim.now - lock_t0,
                             thread=thread)
        if offset is None:
            offset = inode.size
        try:
            yield from self._extend_for_write(thread, inode, offset,
                                              nbytes)
        except BaseException:
            lock.release()
            raise
        return offset, lock

    def write_end(self, inode: Inode, lock: Lock, end: int) -> None:
        """Publish the size of a write whose data has landed at
        ``[..., end)`` and release the inode's write lock: the size
        never covers bytes that are not on the device yet."""
        if end > inode.size:
            self.fs.set_size(inode, end)
        lock.release()

    # -- mode switches ------------------------------------------------------

    def enter(self, thread: Thread,
              *then: Tuple[Optional[str], int]) -> Generator:
        """Switch into the kernel, then run the fixed phases ``then``
        (``(label, ns)`` pairs, a ``None`` label untraced) in the same
        delay: nothing between them reads shared state."""
        self.syscall_count += 1
        return charge_phases(self.sim, (self._enter_phase,) + then,
                             thread=thread, tracer=self.tracer)

    def leave(self, thread: Thread) -> Generator:
        # A generator of its own even untraced: the exit's compute is
        # charged to this call site (scripts/event_sites.py).
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("kernel", "mode-switch-exit",
                                 thread=thread)
        yield from thread.compute(self.params.kernel_to_user_ns)
        if traced:
            tracer.end(token)

    # -- open/close ---------------------------------------------------------

    def sys_open(self, proc: Process, thread: Thread, path: str,
                 flags: int = O_RDONLY, mode: int = 0o644,
                 bypass_intent: bool = False) -> Generator:
        """Open (optionally creating) a file; returns the fd number.

        ``bypass_intent`` marks opens made by UserLib that will be
        followed by fmap(); those do not count as kernel-interface
        openers for the sharing rules of Section 4.5.2.
        """
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("syscall", "open", thread=thread)
        try:
            yield from self.enter(thread,
                                  (None, self.params.open_base_ns))
            path = proc.resolve_path(path)
            if (flags & O_CREAT) and not self.fs.exists(path):
                inode = self.fs.create(path, mode, proc.uid,
                                       min(proc.gids))
            else:
                inode = self.fs.lookup(path)
            self._check_access(proc, inode, flags)
            fdesc = proc.install_fd(path, inode, flags)
            if not bypass_intent:
                inode.kernel_openers += 1
                if inode.fmap_attachments and self.bypassd is not None:
                    # A kernel-interface open on an fmap()ed file forces
                    # the mappers back to the kernel path (Section 4.5.2).
                    self.bypassd.revoke(inode)
            yield from self.leave(thread)
        finally:
            if traced:
                tracer.end(token)
        return fdesc.fd

    def _check_access(self, proc: Process, inode: Inode,
                      flags: int) -> None:
        acc = flags & 0o3
        if acc in (O_RDONLY, O_RDWR) and not inode.may_read(proc.uid,
                                                            proc.gids):
            raise PermissionError_(f"uid {proc.uid} cannot read "
                                   f"inode {inode.ino}")
        if acc in (O_WRONLY, O_RDWR) and not inode.may_write(proc.uid,
                                                             proc.gids):
            raise PermissionError_(f"uid {proc.uid} cannot write "
                                   f"inode {inode.ino}")

    def sys_close(self, proc: Process, thread: Thread,
                  fd: int) -> Generator:
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("syscall", "close", thread=thread)
        try:
            yield from self.enter(thread)
            fdesc = proc.drop_fd(fd)
            inode = fdesc.inode
            if fdesc.vba and self.bypassd is not None:
                self.bypassd.on_close(proc, fdesc)
            elif inode.kernel_openers > 0:
                inode.kernel_openers -= 1
            if fdesc.accessed or fdesc.modified:
                self.fs.update_timestamps(inode, fdesc.accessed,
                                          fdesc.modified)
            yield from self.leave(thread)
        finally:
            if traced:
                tracer.end(token)

    # -- data path (kernel interface) -------------------------------------

    def sys_pread(self, proc: Process, thread: Thread, fd: int,
                  offset: int, nbytes: int) -> Generator:
        """Returns (bytes_read, payload-or-None)."""
        if offset < 0:
            raise negative_offset(offset)
        fdesc = proc.get_fd(fd)
        if not fdesc.readable:
            raise PermissionError_("fd not open for reading")
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("syscall", "pread", thread=thread)
        try:
            yield from self.enter(thread, self._vfs_phase)
            inode = fdesc.inode
            n = max(0, min(nbytes, inode.size - offset))
            data: Optional[bytes] = b"" if n == 0 else None
            if n > 0:
                if fdesc.direct:
                    data = yield from self._direct_read(thread, inode,
                                                        offset, n)
                else:
                    data = yield from self._buffered_read(thread, inode,
                                                          offset, n)
            fdesc.accessed = True
            yield from self.leave(thread)
        finally:
            if traced:
                tracer.end(token)
        return n, data

    def _direct_read(self, thread: Thread, inode: Inode, offset: int,
                     n: int) -> Generator:
        """What to ``yield from`` for an O_DIRECT read: for an aligned
        read of at most a page (most reads) the block layer's generator
        itself, with no frame of this method around it."""
        if offset % SECTOR or n % SECTOR:
            return read_covering(self._direct_read, thread, inode, offset,
                                 n)
        if n > PAGE:
            return self._direct_read_pages(thread, inode, offset, n)
        return self.blockio.rw_runs(thread, OP_READ,
                                    extent_runs(inode, offset, n))

    def _direct_read_pages(self, thread: Thread, inode: Inode, offset: int,
                           n: int) -> Generator:
        # Per-page pinning/bio costs for multi-page direct I/O.
        yield from thread.compute(
            (n - 1) // PAGE * self.params.kernel_per_page_ns)
        return (yield from self.blockio.rw_runs(
            thread, OP_READ, extent_runs(inode, offset, n)))

    def _buffered_read(self, thread: Thread, inode: Inode, offset: int,
                       n: int) -> Generator:
        chunks = []
        pos = offset
        remaining = n
        while remaining > 0:
            page_idx = pos // PAGE
            in_page = min(remaining, PAGE - pos % PAGE)
            yield from thread.compute(self.params.page_cache_hit_ns)
            page = yield from self.pagecache.read_page(thread, inode,
                                                       page_idx)
            yield from thread.compute(self.params.memcpy_ns(in_page))
            if page is not None:
                start = pos % PAGE
                chunks.append(page[start:start + in_page])
            pos += in_page
            remaining -= in_page
        return b"".join(chunks) if chunks else None

    def sys_pwrite(self, proc: Process, thread: Thread, fd: int,
                   offset: int, nbytes: int,
                   data: Optional[bytes] = None) -> Generator:
        """Returns bytes written.  Grows the file when needed."""
        if offset < 0:
            raise negative_offset(offset)
        fdesc = proc.get_fd(fd)
        if not fdesc.writable:
            raise PermissionError_("fd not open for writing")
        if data is not None and len(data) != nbytes:
            raise ValueError("payload length mismatch")
        yield from self._write(thread, fdesc, "pwrite",
                               None if fdesc.append_mode else offset,
                               nbytes, data, fdesc.direct)
        return nbytes

    def _write(self, thread: Thread, fdesc: FileDescription, label: str,
               offset: Optional[int], nbytes: int, data: Optional[bytes],
               direct: bool) -> Generator:
        """The write syscall body; returns the offset written at."""
        token = self.tracer.begin("syscall", label, thread=thread)
        try:
            yield from self.enter(thread, self._vfs_phase)
            inode = fdesc.inode
            offset, lock = yield from self.write_begin(thread, inode,
                                                       offset, nbytes)
            try:
                if direct:
                    yield from self._direct_write(thread, inode, offset,
                                                  nbytes, data)
                else:
                    yield from self._buffered_write(thread, inode, offset,
                                                    nbytes, data)
            except BaseException:
                lock.release()
                raise
            self.write_end(inode, lock, offset + nbytes)
            fdesc.modified = True
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)
        return offset

    def _extend_for_write(self, thread: Thread, inode: Inode,
                          offset: int, nbytes: int) -> Generator:
        """Allocate any unmapped blocks the write touches."""
        first = offset // PAGE
        last = (offset + nbytes - 1) // PAGE
        block = first
        while block <= last:
            mapping = self.fs.bmap(inode, block)
            if mapping is not None:
                block += mapping[1]
                continue
            nxt = inode.extents.next_mapped(block)
            run_end = last + 1 if nxt is None else min(nxt, last + 1)
            # Skip the zeroing I/O only when the write covers the whole
            # run: a partially-covered fresh block must be zeroed or an
            # RMW could resurrect another file's stale bytes
            # (Section 4.1's security rule).
            covered = (offset <= block * PAGE
                       and offset + nbytes >= run_end * PAGE)
            yield from self.fs.allocate_blocks(inode, block,
                                               run_end - block,
                                               zero=not covered)
            block = run_end

    def _direct_write(self, thread: Thread, inode: Inode, offset: int,
                      nbytes: int, data: Optional[bytes]) -> Generator:
        if offset % SECTOR or nbytes % SECTOR:
            return (yield from write_covering(
                self._direct_read, self._direct_write, thread, inode,
                offset, nbytes, data))
        if nbytes > PAGE:
            yield from thread.compute(
                (nbytes - 1) // PAGE * self.params.kernel_per_page_ns)
        yield from self.blockio.rw_runs(
            thread, OP_WRITE, extent_runs(inode, offset, nbytes),
            _pad_to(data, nbytes))

    def _buffered_write(self, thread: Thread, inode: Inode, offset: int,
                        nbytes: int, data: Optional[bytes]) -> Generator:
        pos = offset
        remaining = nbytes
        consumed = 0
        while remaining > 0:
            page_idx = pos // PAGE
            in_page = min(remaining, PAGE - pos % PAGE)
            yield from charge_phases(
                self.sim, ((None, self.params.page_cache_hit_ns),
                           (None, self.params.memcpy_ns(in_page))),
                thread=thread)
            if in_page == PAGE:
                page = data[consumed:consumed + PAGE] if data is not None \
                    else None
            else:
                # Read-modify-write of a partial page.
                page = yield from self.pagecache.read_page(thread, inode,
                                                           page_idx)
                if page is not None:
                    start = pos % PAGE
                    new = data[consumed:consumed + in_page] \
                        if data is not None else bytes(in_page)
                    page = page[:start] + new + page[start + in_page:]
            yield from self.pagecache.write_page(thread, inode, page_idx,
                                                 page)
            pos += in_page
            remaining -= in_page
            consumed += in_page

    # -- metadata syscalls ----------------------------------------------------

    def sys_append(self, proc: Process, thread: Thread, fd: int,
                   nbytes: int, data: Optional[bytes] = None) -> Generator:
        """Kernel-routed append for the BypassD interface (Table 3):
        allocate, attach new FTEs, write unbuffered straight to the
        device (sub-sector alignment is handled by the write path's
        RMW), update size.  Returns the offset appended at."""
        fdesc = proc.get_fd(fd)
        if not fdesc.writable:
            raise PermissionError_("fd not open for appending")
        return (yield from self._write(thread, fdesc, "append", None,
                                       nbytes, data, True))

    def sys_fallocate(self, proc: Process, thread: Thread, fd: int,
                      offset: int, length: int) -> Generator:
        fdesc = proc.get_fd(fd)
        if not fdesc.writable:
            raise PermissionError_("fd not open for writing")
        token = self.tracer.begin("syscall", "fallocate", thread=thread)
        try:
            yield from self.enter(thread, self._vfs_phase)
            inode = fdesc.inode
            yield from self.fs.fallocate(inode, offset, length)
            fdesc.modified = True
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)

    def sys_ftruncate(self, proc: Process, thread: Thread, fd: int,
                      length: int) -> Generator:
        fdesc = proc.get_fd(fd)
        if not fdesc.writable:
            raise PermissionError_("fd not open for writing")
        token = self.tracer.begin("syscall", "ftruncate", thread=thread)
        try:
            yield from self.enter(thread, self._vfs_phase)
            inode = fdesc.inode
            if self.bypassd is not None and inode.file_table is not None:
                # Detach before blocks are freed so no stale FTE survives.
                self.bypassd.on_truncate(inode, length)
            shrinking = length < inode.size
            yield from self.fs.truncate(inode, length)
            if shrinking and length % PAGE and \
                    self.fs.bmap(inode, length // PAGE) is not None:
                # Zero the tail of the (kept) final block so a later
                # size extension cannot resurrect stale bytes.
                block_end = (length // PAGE + 1) * PAGE
                pad = block_end - length
                yield from self._direct_write(thread, inode, length, pad,
                                              bytes(pad))
            self.pagecache.invalidate_inode(inode.ino)
            fdesc.modified = True
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)

    def sys_fsync(self, proc: Process, thread: Thread,
                  fd: int) -> Generator:
        fdesc = proc.get_fd(fd)
        token = self.tracer.begin("syscall", "fsync", thread=thread)
        try:
            yield from self.enter(
                thread, ("vfs-ext4", self.params.vfs_ext4_ns // 2))
            inode = fdesc.inode
            yield from self.pagecache.sync_inode(thread, inode)
            if fdesc.accessed or fdesc.modified:
                self.fs.update_timestamps(inode, fdesc.accessed,
                                          fdesc.modified)
                fdesc.accessed = fdesc.modified = False
            commit_t0 = self.sim.now
            yield from thread.compute(self.params.journal_commit_ns)
            yield from self.fs.fsync(inode)
            self.tracer.add_wait("journal_commit",
                                 self.sim.now - commit_t0, thread=thread)
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)

    def sys_unlink(self, proc: Process, thread: Thread,
                   path: str) -> Generator:
        token = self.tracer.begin("syscall", "unlink", thread=thread)
        try:
            yield from self.enter(thread,
                                  (None, self.params.open_base_ns))
            path = proc.resolve_path(path)
            inode = self.fs.lookup(path)
            if self.bypassd is not None and inode.fmap_attachments:
                self.bypassd.revoke(inode)
            self.pagecache.invalidate_inode(inode.ino)
            self.fs.unlink(path)
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)

    def sys_stat(self, proc: Process, thread: Thread,
                 path: str) -> Generator:
        token = self.tracer.begin("syscall", "stat", thread=thread)
        try:
            yield from self.enter(thread,
                                  (None, self.params.open_base_ns // 2))
            inode = self.fs.lookup(proc.resolve_path(path))
            yield from self.leave(thread)
        finally:
            self.tracer.end(token)
        return inode.attrs

    # -- BypassD entry point ---------------------------------------------------

    def sys_fmap(self, proc: Process, thread: Thread,
                 fd: int) -> Generator:
        """Map the file's blocks into the process address space.

        Returns the starting VBA, or 0 if the file is not eligible for
        direct access (Section 4.1).
        """
        if self.bypassd is None:
            return 0
        fdesc = proc.get_fd(fd)
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("syscall", "fmap", thread=thread)
        try:
            yield from self.enter(thread)
            vba = yield from self.bypassd.fmap(proc, thread, fdesc)
            yield from self.leave(thread)
        finally:
            if traced:
                tracer.end(token)
        return vba
