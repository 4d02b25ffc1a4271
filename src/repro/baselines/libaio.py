"""libaio: Linux native asynchronous I/O.

At queue depth 1 the latency is the sync path plus the extra
``io_submit``/``io_getevents`` round trips; deeper queues trade latency
for throughput — the trade-off Figure 16 shows with KVell at QD 1
versus QD 64.

``AIOContext`` exposes batched submission: ``submit`` charges the
kernel-side CPU for every iocb and returns immediately; the device
completes asynchronously and ``get_events`` reaps.

Tracing: ``io_submit`` and ``io_getevents`` are ``syscall`` spans, and
``io_getevents`` sleeps inside a ``device/kernel-io`` wait span like
the sync path's.  ``LibaioFile`` opens an ``op`` root per read/write
whose trace context rides in the iocb; the device command is stamped
with it, so the device phases parent under the op.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod
from typing import Generator, List, Optional, Tuple

from ..kernel.blockio import (
    PAGE,
    extent_runs,
    negative_offset,
    read_covering,
    write_covering,
)
from ..kernel.process import Process
from ..kernel.syscalls import Kernel
from ..nvme.spec import ST_SUCCESS, Completion, Opcode
from ..sim.cpu import Thread
from ..sim.engine import Event, Simulator
from ..sim.trace import charge_phases
from .sync_io import KernelFile, SyncEngine

__all__ = ["AioOp", "AIOContext", "LibaioEngine", "LibaioFile"]


@dataclass
class AioOp:
    """One iocb: a sector-aligned read or write against an open file."""

    file: "LibaioFile"
    opcode: Opcode
    offset: int
    nbytes: int
    data: Optional[bytes] = None
    trace: Optional[Tuple[int, int]] = None


def _io_event(parts: List[Completion]) -> Completion:
    """The io_event for an iocb the block layer split into several
    device commands (one per extent run): the first failed part's
    status, the parts' payloads reassembled."""
    first = next((p for p in parts if not p.ok), parts[0])
    chunks = [p.data for p in parts]
    return Completion(first.cid, first.status,
                      None if None in chunks else b"".join(chunks),
                      first.fault_reason)


class AIOContext:
    """An io_setup()ed context owned by one thread."""

    def __init__(self, sim: Simulator, kernel: Kernel, proc: Process):
        self.sim = sim
        self.kernel = kernel
        self.proc = proc
        self._inflight: List[Event] = []

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def submit(self, thread: Thread, ops: List[AioOp]) -> Generator:
        """io_submit(): one mode switch, then per-iocb kernel work."""
        return self.kernel.tracer.wrap("syscall", "io_submit",
                                       self._submit(thread, ops),
                                       thread=thread)

    def _submit(self, thread: Thread, ops: List[AioOp]) -> Generator:
        params = self.kernel.params
        blockio = self.kernel.blockio
        yield from thread.compute(params.user_to_kernel_ns
                                  + params.libaio_submit_extra_ns)
        for op in ops:
            extra_pages = max(0, -(-op.nbytes // PAGE) - 1)
            yield from charge_phases(
                self.sim, ((None, params.vfs_ext4_ns),
                           (None, extra_pages * params.kernel_per_page_ns)),
                thread=thread)
            inode = op.file.inode
            lock = None
            if op.opcode is Opcode.WRITE:
                # ext4 takes the inode rwsem for direct writes: async
                # writes to the same file serialise until completion —
                # the KVell YCSB-A bottleneck of Section 6.5.
                _, lock = yield from self.kernel.write_begin(
                    thread, inode, op.offset, op.nbytes)
            # One iocb may span several extent runs; like the kernel
            # bio layer, split at run boundaries but still post a single
            # io_event for the iocb.  A hole reads as zeros.
            parts: List[Event] = []
            pos = 0
            for lba512, run_bytes in extent_runs(inode, op.offset,
                                                 op.nbytes):
                if lba512 is None:
                    parts.append(self.sim.event().succeed(Completion(
                        -1, ST_SUCCESS, bytes(run_bytes))))
                else:
                    chunk = None if op.data is None \
                        else op.data[pos:pos + run_bytes]
                    parts.append((yield from blockio.submit_async(
                        thread, op.opcode, lba512, run_bytes, data=chunk,
                        trace=op.trace)))
                pos += run_bytes
            if len(parts) == 1:
                ev = parts[0]
            else:
                ev = self.sim.event()
                gate = self.sim.all_of(parts)
                gate.add_callback(
                    lambda _e, parts=parts, ev=ev: ev.succeed(
                        _io_event([p.value for p in parts])))
            if lock is not None:
                # The size covers the new bytes once they have landed.
                ev.add_callback(
                    lambda e, inode=inode, lock=lock,
                    end=op.offset + op.nbytes: self.kernel.write_end(
                        inode, lock, end if e.value.ok else 0))
            self._inflight.append(ev)
        yield from thread.compute(params.kernel_to_user_ns)

    def get_events(self, thread: Thread, min_nr: int) -> Generator:
        """io_getevents(): block until ``min_nr`` completions, reap all."""
        return self.kernel.tracer.wrap("syscall", "io_getevents",
                                       self._get_events(thread, min_nr),
                                       thread=thread)

    def _get_events(self, thread: Thread, min_nr: int) -> Generator:
        params = self.kernel.params
        tracer = self.kernel.tracer
        yield from thread.compute(params.user_to_kernel_ns
                                  + params.libaio_getevents_extra_ns)
        min_nr = min(min_nr, len(self._inflight))
        completions = []
        while len(completions) < min_nr:
            pending = [ev for ev in self._inflight if not ev.triggered]
            done = [ev for ev in self._inflight if ev.triggered]
            for ev in done:
                completions.append(ev.value)
                self._inflight.remove(ev)
            if len(completions) >= min_nr:
                break
            if not pending:
                break
            # The interrupt-driven sleep, as in the sync path.
            yield from tracer.wrap("device", "kernel-io",
                                   thread.block(self.sim.any_of(pending)),
                                   thread=thread)
        # Opportunistically reap everything already finished.
        for ev in list(self._inflight):
            if ev.triggered:
                completions.append(ev.value)
                self._inflight.remove(ev)
        yield from thread.compute(params.kernel_to_user_ns)
        return completions


class LibaioFile(KernelFile):
    """Sync-looking wrapper: each op is submit + getevents at QD 1."""

    def __init__(self, kernel: Kernel, proc: Process, fd: int,
                 ctx: AIOContext):
        super().__init__(kernel, proc, fd)
        self.ctx = ctx

    @staticmethod
    def _check(completion) -> None:
        # libaio reports errors in io_event.res as a negative errno;
        # the sync-looking wrapper turns that into the OSError a plain
        # read()/write() would have raised.
        res = completion.errno
        if res:
            raise OSError(-res, f"libaio I/O failed: {completion.status} "
                                f"{completion.fault_reason}")

    def pread(self, thread: Thread, offset: int,
              nbytes: int) -> Generator:
        return self.kernel.tracer.wrap("op", "pread",
                                       self._pread(thread, offset, nbytes),
                                       thread=thread)

    def _pread(self, thread: Thread, offset: int,
               nbytes: int) -> Generator:
        if offset < 0:
            # io_submit() refuses the iocb: no io_event, no command.
            raise negative_offset(offset)
        n = max(0, min(nbytes, self.size - offset))
        if n == 0:
            return 0, b""
        data = yield from read_covering(self._read, thread, self.inode,
                                        offset, n)
        return n, data

    def _io(self, opcode: Opcode, thread: Thread, inode, offset: int,
            nbytes: int, data: Optional[bytes] = None) -> Generator:
        """One sector-aligned iocb at queue depth 1: io_submit, then
        io_getevents."""
        yield from self.ctx.submit(thread, [
            AioOp(self, opcode, offset, nbytes, data,
                  trace=self.kernel.tracer.current(thread))])
        completions = yield from self.ctx.get_events(thread, 1)
        self._check(completions[0])
        return completions[0].data

    _read = partialmethod(_io, Opcode.READ)
    _write = partialmethod(_io, Opcode.WRITE)

    def pwrite(self, thread: Thread, offset: int, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        return self.kernel.tracer.wrap(
            "op", "pwrite", self._pwrite(thread, offset, nbytes, data),
            thread=thread)

    def _pwrite(self, thread: Thread, offset: int, nbytes: int,
                data: Optional[bytes]) -> Generator:
        if offset < 0:
            raise negative_offset(offset)
        yield from write_covering(self._read, self._write, thread,
                                  self.inode, offset, nbytes, data)
        return nbytes


class LibaioEngine(SyncEngine):
    name = "libaio"

    def __init__(self, sim: Simulator, kernel: Kernel, proc: Process):
        super().__init__(kernel, proc)
        self.sim = sim
        self._ctxs = {}

    def context(self, thread: Thread) -> AIOContext:
        ctx = self._ctxs.get(thread.tid)
        if ctx is None:
            ctx = AIOContext(self.sim, self.kernel, self.proc)
            self._ctxs[thread.tid] = ctx
        return ctx

    def _file(self, thread: Thread, fd: int) -> "LibaioFile":
        return LibaioFile(self.kernel, self.proc, fd, self.context(thread))
