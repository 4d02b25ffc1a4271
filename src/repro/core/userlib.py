"""UserLib: the LD_PRELOAD-style interception shim (Sections 3.2, 4.2).

UserLib owns the userspace half of the BypassD interface:

- per-thread NVMe queue pairs (registered with the process's PASID) and
  pinned DMA buffers, so threads never synchronise on the data path;
- interception of read/write: all reads and non-extending writes go
  straight to the device with Virtual Block Addresses, everything that
  modifies metadata is forwarded to the kernel (Table 3);
- partial-write serialisation: sub-sector writes are read-modify-write
  and concurrent RMWs to overlapping sectors are ordered (Section 4.5.1);
- the fault-and-fallback protocol: on a translation fault UserLib
  re-issues fmap(); a zero VBA means access was revoked and the file
  permanently drops to the kernel interface (Section 3.6).  Every
  other device error follows the kernel driver's error policy, which
  UserLib inherits from :class:`~repro.kernel.blockio.GuardedIO`:
  transient errors are retried with bounded backoff before surfacing
  ``EIO``, and lost completions are timed out and aborted so the
  polling thread is never stranded;
- optional optimised appends that pre-allocate with fallocate() and
  overwrite from userspace (Section 5.1).

Applications see :class:`BypassDFile`, which mirrors the POSIX calls.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..hw.memory import DMABuffer, PhysicalMemory
from ..kernel.blockio import GuardedIO, negative_offset
from ..kernel.process import O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, Process
from ..kernel.syscalls import Kernel
from ..nvme.device import NVMeDevice
from ..nvme.queues import QueuePair
from ..nvme.spec import ADDR_VBA, OP_READ, OP_WRITE, Command, Opcode, Status
from ..sim.cpu import Thread
from ..sim.engine import Event, Simulator

__all__ = ["UserLib", "BypassDFile", "FileState"]

SECTOR = 512
_DMA_BUFFER_BYTES = 256 * 1024
_PREALLOC_CHUNK = 4 * 1024 * 1024
_MAX_FAULT_RETRIES = 3


class FileState:
    """UserLib's per-open-file record (flags, offset, size, VBA)."""

    def __init__(self, fd: int, path: str, inode: object, vba: int,
                 writable: bool, size: int, offset: int = 0,
                 fallback: bool = False, prealloc_end: int = 0,
                 partial_writes: Optional[
                     Dict[Tuple[int, int], Event]] = None,
                 pending_writes: Optional[
                     Dict[Tuple[int, int], Event]] = None) -> None:
        self.fd = fd
        self.path = path
        self.inode = inode
        self.vba = vba
        self.writable = writable
        self.size = size
        self.offset = offset
        self.fallback = fallback
        self.prealloc_end = prealloc_end
        # Offsets of in-flight partial (sub-sector) writes -> completion
        # event.
        self.partial_writes: Dict[Tuple[int, int], Event] = (
            {} if partial_writes is None else partial_writes)
        # Non-blocking mode: in-flight async overwrites, byte range ->
        # event.
        self.pending_writes: Dict[Tuple[int, int], Event] = (
            {} if pending_writes is None else pending_writes)

    @property
    def direct(self) -> bool:
        return self.vba != 0 and not self.fallback


class _ThreadCtx:
    """Per-thread queue pair + DMA buffer."""

    def __init__(self, qp: QueuePair, buf: DMABuffer):
        self.qp = qp
        self.buf = buf


class UserLib(GuardedIO):
    """One instance per process (threads share it, Section 4.5.1)."""

    def __init__(self, sim: Simulator, proc: Process, kernel: Kernel,
                 device: NVMeDevice, memory: PhysicalMemory,
                 optimized_appends: bool = False,
                 nonblocking_writes: bool = False):
        super().__init__(sim, kernel.params, device)
        self.proc = proc
        self.kernel = kernel
        self.memory = memory
        self.optimized_appends = optimized_appends
        # Section 5.1 enhancement: overwrites return once submitted;
        # reads serialise against overlapping in-flight writes
        # (CrossFS-style per-inode range ordering) and fsync drains.
        self.nonblocking_writes = nonblocking_writes
        self._ctxs: Dict[int, _ThreadCtx] = {}
        self.files: Dict[int, FileState] = {}
        self.direct_reads = 0
        self.direct_writes = 0
        self.kernel_fallbacks = 0
        self.faults_handled = 0
        # Async writes whose completion reported an error (e.g. access
        # revoked mid-flight); surfaced at the next fsync.
        self.async_write_errors = 0

    # -- setup ------------------------------------------------------------

    def _ctx(self, thread: Thread) -> _ThreadCtx:
        ctx = self._ctxs.get(thread.tid)
        if ctx is None:
            qp = self.device.create_queue_pair(pasid=self.proc.pasid,
                                               depth=1024)
            buf = self.memory.alloc_dma_buffer(_DMA_BUFFER_BYTES,
                                               self.proc.pasid)
            # Map the pinned buffer so the IOMMU can validate device DMA.
            self.proc.aspace.page_table.map_pages(buf.iova, buf.frames,
                                                  writable=True)
            ctx = _ThreadCtx(qp, buf)
            self._ctxs[thread.tid] = ctx
        return ctx

    # -- open/close ---------------------------------------------------------

    def open(self, thread: Thread, path: str, write: bool = False,
             create: bool = False) -> Generator:
        """Open + fmap; returns a :class:`BypassDFile`."""
        flags = (O_RDWR if write else O_RDONLY) | O_DIRECT
        if create:
            flags |= O_CREAT
        fd = yield from self.kernel.sys_open(self.proc, thread, path,
                                             flags, bypass_intent=True)
        vba = yield from self.kernel.sys_fmap(self.proc, thread, fd)
        fdesc = self.proc.get_fd(fd)
        state = FileState(fd=fd, path=path, inode=fdesc.inode, vba=vba,
                          writable=write, size=fdesc.inode.size)
        if vba == 0:
            # Not eligible: behave as a plain kernel-interface open.
            state.fallback = True
            fdesc.inode.kernel_openers += 1
            self.kernel_fallbacks += 1
        self.files[fd] = state
        return BypassDFile(self, state)

    def close(self, thread: Thread, state: FileState) -> Generator:
        if state.pending_writes:
            yield from self.drain_writes(thread, state)
        yield from self.kernel.sys_close(self.proc, thread, state.fd)
        self.files.pop(state.fd, None)

    # -- reads ------------------------------------------------------------

    def pread(self, thread: Thread, state: FileState, offset: int,
              nbytes: int) -> Generator:
        """Returns (bytes_read, payload-or-None)."""
        return self.kernel.tracer.wrap(
            "op", "pread", self._pread(thread, state, offset, nbytes),
            thread=thread)

    def _pread(self, thread: Thread, state: FileState, offset: int,
               nbytes: int) -> Generator:
        if offset < 0:
            raise negative_offset(offset)
        if not state.direct:
            return (yield from self._kernel_read(thread, state,
                                                 offset, nbytes))
        # ``_refresh_size`` only ever raises ``state.size``, so a read
        # that ends inside the size UserLib knows reads in full and
        # needs no look at the inode.
        n = nbytes
        size = state.size
        if offset + n > size:
            if not state.prealloc_end:
                inode_size = state.inode.size
                if inode_size > size:
                    size = state.size = inode_size
            if size - offset < n:
                n = size - offset
        if n <= 0:
            return 0, b""
        if self.nonblocking_writes and state.pending_writes:
            # Reads must see the latest data: order behind overlapping
            # in-flight writes (Section 5.1's consistency cost).
            yield from self._wait_pending(thread, state, offset, n)
        params, tracer = self.params, self.kernel.tracer
        traced = tracer.enabled
        if traced:
            token = tracer.begin("user", "submit", thread=thread)
        yield from thread.compute(params.userlib_submit_ns)
        if traced:
            tracer.end(token)
        aligned_off = (offset // SECTOR) * SECTOR
        aligned_len = -(-(offset - aligned_off + n) // SECTOR) * SECTOR
        completion = yield from self._issue(
            thread, state, OP_READ, aligned_off, aligned_len, None)
        if completion is None:
            # Access revoked mid-stream; retry through the kernel.
            return (yield from self._kernel_read(thread, state,
                                                 offset, nbytes))
        self.direct_reads += 1
        if traced:
            token = tracer.begin("user", "complete+copy", thread=thread)
        yield from thread.compute(params.userlib_complete_ns
                                  + params.memcpy_ns(n))
        if traced:
            tracer.end(token)
        data = completion.data
        if data is not None:
            skip = offset - aligned_off
            data = data[skip:skip + n]
        return n, data

    # -- writes ------------------------------------------------------------

    def pwrite(self, thread: Thread, state: FileState, offset: int,
               nbytes: int, data: Optional[bytes] = None) -> Generator:
        """Returns bytes written."""
        return self.kernel.tracer.wrap(
            "op", "pwrite",
            self._pwrite(thread, state, offset, nbytes, data),
            thread=thread)

    def _pwrite(self, thread: Thread, state: FileState, offset: int,
                nbytes: int, data: Optional[bytes]) -> Generator:
        if offset < 0:
            raise negative_offset(offset)
        if not state.direct:
            return (yield from self.kernel.sys_pwrite(
                self.proc, thread, state.fd, offset, nbytes, data))
        if not state.writable:
            raise PermissionError("file opened read-only")
        self._refresh_size(state)
        if offset + nbytes > state.size:
            return (yield from self._extending_write(
                thread, state, offset, nbytes, data))
        if offset % SECTOR or nbytes % SECTOR:
            return (yield from self._partial_write(
                thread, state, offset, nbytes, data))
        return (yield from self._overwrite(thread, state, offset,
                                           nbytes, data))

    @staticmethod
    def _refresh_size(state: FileState) -> None:
        """Track the file size UserLib-side.

        With optimised appends the filesystem size includes fallocate
        padding, so UserLib's own logical size is authoritative; plain
        files may have grown through kernel-path operations.
        """
        if not state.prealloc_end:
            state.size = max(state.size, state.inode.size)

    def _overwrite(self, thread: Thread, state: FileState, offset: int,
                   nbytes: int, data: Optional[bytes]) -> Generator:
        """Sector-aligned overwrite: pure userspace."""
        if self.nonblocking_writes:
            return (yield from self._overwrite_async(
                thread, state, offset, nbytes, data))
        yield from thread.compute(self.params.userlib_submit_ns
                                  + self.params.memcpy_ns(nbytes))
        completion = yield from self._issue(
            thread, state, OP_WRITE, offset, nbytes, data)
        if completion is None:
            return (yield from self.kernel.sys_pwrite(
                self.proc, thread, state.fd, offset, nbytes, data))
        self.direct_writes += 1
        yield from thread.compute(self.params.userlib_complete_ns)
        return nbytes

    def _overwrite_async(self, thread: Thread, state: FileState,
                         offset: int, nbytes: int,
                         data: Optional[bytes]) -> Generator:
        """Non-blocking overwrite (Section 5.1): submit and return."""
        yield from thread.compute(self.params.userlib_submit_ns
                                  + self.params.memcpy_ns(nbytes))
        # Order against any overlapping write already in flight.
        yield from self._wait_pending(thread, state, offset, nbytes)
        ctx = self._ctx(thread)
        # Backpressure: never outrun the submission queue.
        tracer = self.kernel.tracer
        while ctx.qp.inflight >= ctx.qp.depth - 1:
            oldest = next(iter(state.pending_writes.values()), None)
            if oldest is None:
                break
            stall_t0 = self.sim.now
            yield from thread.block(oldest)
            tracer.add_wait("sq_full", self.sim.now - stall_t0,
                            thread=thread)
        cmd = Command(OP_WRITE, addr=state.vba + offset,
                      nbytes=nbytes, addr_kind=ADDR_VBA,
                      buffer_iova=ctx.buf.iova, data=data)
        self.kernel.tracer.stamp(cmd, thread=thread)
        ev = self.device.submit(ctx.qp, cmd)
        # A lost write's ABORTED CQE is an async error, seen at fsync.
        self._guard_async(ctx.qp, cmd, ev, "userlib-timeout")
        key = (offset, offset + nbytes)
        done = self.sim.event()
        state.pending_writes[key] = done

        def on_complete(event, key=key, done=done):
            state.pending_writes.pop(key, None)
            if not event.value.ok:
                self.async_write_errors += 1
            done.succeed(event.value)

        ev.add_callback(on_complete)
        self.direct_writes += 1
        return nbytes

    def _wait_pending(self, thread: Thread, state: FileState,
                      offset: int, nbytes: int) -> Generator:
        """Block until no in-flight async write overlaps the range."""
        end = offset + nbytes
        while True:
            blockers = [ev for (lo, hi), ev in
                        state.pending_writes.items()
                        if lo < end and offset < hi]
            if not blockers:
                return
            yield from thread.block(blockers[0])

    def drain_writes(self, thread: Thread,
                     state: FileState) -> Generator:
        """Wait for every in-flight async write of this file."""
        while state.pending_writes:
            ev = next(iter(state.pending_writes.values()))
            yield from thread.block(ev)

    def _extending_write(self, thread: Thread, state: FileState,
                         offset: int, nbytes: int,
                         data: Optional[bytes]) -> Generator:
        """Writes past EOF modify metadata and go through the kernel —
        unless optimised appends have pre-allocated the blocks."""
        if (self.optimized_appends and offset == state.size):
            if offset + nbytes > state.prealloc_end:
                chunk = max(_PREALLOC_CHUNK, nbytes)
                yield from self.kernel.sys_fallocate(
                    self.proc, thread, state.fd, offset, chunk)
                state.prealloc_end = offset + chunk
            # The blocks exist now; overwrite them from userspace.
            # UserLib's logical size grows; the filesystem size stays at
            # the fallocate boundary (zero padding, Section 5.1).
            if offset % SECTOR or nbytes % SECTOR:
                n = yield from self._partial_write(thread, state, offset,
                                                   nbytes, data)
            else:
                n = yield from self._overwrite(thread, state, offset,
                                               nbytes, data)
            state.size = max(state.size, offset + nbytes)
            return n
        if offset == state.size:
            yield from self.kernel.sys_append(self.proc, thread,
                                              state.fd, nbytes, data)
            state.size = state.inode.size
            return nbytes
        # Straddling write (overwrite + extend): kernel handles it whole.
        n = yield from self.kernel.sys_pwrite(self.proc, thread, state.fd,
                                              offset, nbytes, data)
        state.size = state.inode.size
        return n

    def _kernel_read(self, thread: Thread, state: FileState,
                     offset: int, nbytes: int) -> Generator:
        """Kernel-interface read (the kernel shims sector alignment)."""
        return (yield from self.kernel.sys_pread(
            self.proc, thread, state.fd, offset, nbytes))

    def _kernel_unaligned_write(self, thread: Thread, state: FileState,
                                offset: int, nbytes: int,
                                data: Optional[bytes]) -> Generator:
        """Kernel-interface write (the kernel RMWs sub-sector spans)."""
        return (yield from self.kernel.sys_pwrite(
            self.proc, thread, state.fd, offset, nbytes, data))

    def _partial_write(self, thread: Thread, state: FileState,
                       offset: int, nbytes: int,
                       data: Optional[bytes]) -> Generator:
        """Sub-sector write: serialised read-modify-write (Section 4.5.1)."""
        first = offset // SECTOR
        last = (offset + nbytes - 1) // SECTOR
        # Wait for any overlapping in-flight partial write, FIFO order.
        while True:
            blockers = [ev for (lo, hi), ev in state.partial_writes.items()
                        if lo <= last and first <= hi]
            if not blockers:
                break
            yield from thread.block(blockers[0])
        done = self.sim.event()
        state.partial_writes[(first, last)] = done
        try:
            aligned_off = first * SECTOR
            aligned_len = (last - first + 1) * SECTOR
            yield from thread.compute(self.params.userlib_submit_ns)
            read_c = yield from self._issue(thread, state, OP_READ,
                                            aligned_off, aligned_len, None)
            merged: Optional[bytes] = None
            if read_c is not None and read_c.data is not None:
                skip = offset - aligned_off
                old = read_c.data
                new = data if data is not None else bytes(nbytes)
                merged = old[:skip] + new + old[skip + nbytes:]
            yield from thread.compute(self.params.userlib_submit_ns
                                      + self.params.memcpy_ns(nbytes))
            write_c = yield from self._issue(thread, state, OP_WRITE,
                                             aligned_off, aligned_len,
                                             merged)
            if read_c is None or write_c is None:
                return (yield from self._kernel_unaligned_write(
                    thread, state, offset, nbytes, data))
            self.direct_writes += 1
            yield from thread.compute(self.params.userlib_complete_ns)
            return nbytes
        finally:
            del state.partial_writes[(first, last)]
            done.succeed()

    # -- submission & fault handling -----------------------------------------

    def _issue(self, thread: Thread, state: FileState, opcode: Opcode,
               file_off: int, nbytes: int,
               data: Optional[bytes]) -> Generator:
        """Submit one VBA command, polling for completion.

        Returns the completion, or None after the kernel confirmed the
        file is no longer directly accessible (VBA of 0) or translation
        faults persisted past the retry budget.  Every other error
        follows the inherited driver error policy: transient errors are
        retried in place with bounded backoff, and an exhausted budget
        raises ``IOError_`` (errno ``EIO``) — the kernel path's
        contract, so applications see one errno model regardless of
        path.
        """
        ctx = self._ctx(thread)
        tracer = self.kernel.tracer
        traced = tracer.enabled
        fault_attempts = 0
        attempt = 0
        while True:
            cmd = Command(opcode, addr=state.vba + file_off,
                          nbytes=nbytes, addr_kind=ADDR_VBA,
                          buffer_iova=ctx.buf.iova, data=data)
            if traced:
                # Open the wait span before ringing the doorbell and
                # stamp the command with it, so device-side phase spans
                # parent here (a retry opens a fresh span under the
                # same op).
                token = tracer.begin("device", "direct-io", thread=thread)
                tracer.stamp(cmd, thread=thread)
            try:
                # Unnamed, so the processed event can be recycled.
                completion = yield from self._guarded_wait(
                    thread.poll, ctx.qp, cmd, self.device.submit(ctx.qp, cmd))
            finally:
                if traced:
                    tracer.end(token)
            if completion.ok:
                return completion
            if completion.status is Status.TRANSLATION_FAULT:
                # Revoked (or raced a truncate): ask the kernel to
                # re-attach before giving up on the direct path.
                self.faults_handled += 1
                fault_attempts += 1
                vba = yield from self.kernel.sys_fmap(self.proc, thread,
                                                      state.fd)
                if vba == 0 or fault_attempts >= _MAX_FAULT_RETRIES:
                    self._fallback(state)
                    return None
                state.vba = vba
                continue
            attempt += 1
            backoff = self._retry_backoff(completion, attempt)
            backoff_t0 = self.sim.now
            yield from thread.sleep(backoff)
            tracer.add_wait("retry_backoff", self.sim.now - backoff_t0,
                            thread=thread)

    def _fallback(self, state: FileState) -> None:
        """Permanently drop this open to the kernel interface."""
        if not state.fallback:
            state.fallback = True
            state.vba = 0
            state.inode.kernel_openers += 1
            self.kernel_fallbacks += 1

    # -- sync -------------------------------------------------------------

    def fsync(self, thread: Thread, state: FileState) -> Generator:
        """Flush this process's queues, then kernel fsync (Table 3)."""
        tracer = self.kernel.tracer
        op = tracer.begin("op", "fsync", thread=thread)
        try:
            if state.direct:
                yield from self.drain_writes(thread, state)
                for _tid, ctx in sorted(self._ctxs.items()):
                    cmd = Command(Opcode.FLUSH, addr=0, nbytes=0)
                    token = tracer.begin("device", "direct-io",
                                         thread=thread)
                    try:
                        tracer.stamp(cmd, thread=thread)
                        ev = self.device.submit(ctx.qp, cmd)
                        yield from thread.poll(ev)
                    finally:
                        tracer.end(token)
            yield from self.kernel.sys_fsync(self.proc, thread, state.fd)
        finally:
            tracer.end(op)


class BypassDFile:
    """POSIX-looking handle over UserLib.  All methods are generators."""

    def __init__(self, lib: UserLib, state: FileState):
        self._lib = lib
        self.state = state

    @property
    def size(self) -> int:
        if self.state.prealloc_end:
            return self.state.size  # logical size excludes padding
        return max(self.state.size, self.state.inode.size)

    @property
    def using_direct_path(self) -> bool:
        return self.state.direct

    def pread(self, thread: Thread, offset: int,
              nbytes: int) -> Generator:
        return self._lib.pread(thread, self.state, offset, nbytes)

    def pwrite(self, thread: Thread, offset: int, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        return self._lib.pwrite(thread, self.state, offset, nbytes, data)

    def read(self, thread: Thread, nbytes: int) -> Generator:
        n, data = yield from self._lib.pread(thread, self.state,
                                             self.state.offset, nbytes)
        self.state.offset += n
        return n, data

    def write(self, thread: Thread, nbytes: int,
              data: Optional[bytes] = None) -> Generator:
        n = yield from self._lib.pwrite(thread, self.state,
                                        self.state.offset, nbytes, data)
        self.state.offset += n
        return n

    def append(self, thread: Thread, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        offset = self.size
        yield from self._lib.pwrite(thread, self.state, offset, nbytes,
                                    data)
        return offset

    def fsync(self, thread: Thread) -> Generator:
        return self._lib.fsync(thread, self.state)

    def close(self, thread: Thread) -> Generator:
        return self._lib.close(thread, self.state)
