"""io_uring with SQPOLL: kernel poller threads, no mode switches.

The application writes SQEs into a shared ring; a *kernel poller
thread* picks them up, runs a shortened kernel stack (fixed buffers and
registered files skip parts of VFS), submits to the device, and posts
CQEs the application polls for.

The poller burns a whole core per ring.  That is exactly why Figure 9
shows io_uring collapsing past 12 application threads on a 24-CPU box:
each app thread + poller pair takes two cores, so io_uring "needs twice
as many cores" (Section 6.3).

Tracing: every ``pread``/``pwrite`` opens an ``op`` root on the app
thread, and its trace context rides in the SQE.  The poller parents
its per-SQE ``kernel/sqpoll`` span (with the block layer and driver
under it) on that context, and stamps the device command with it too,
so the device phases land under the op rather than under the poller's
span, which ends at the doorbell.
"""

from __future__ import annotations

from functools import partialmethod
from typing import Dict, Generator, Optional, Tuple

from ..kernel.blockio import PAGE, extent_runs, read_covering, write_covering
from ..kernel.process import Process
from ..kernel.syscalls import Kernel
from ..nvme.spec import Completion, Opcode, Status
from ..sim.cpu import CPUSet, Thread
from ..sim.engine import Simulator
from ..sim.resources import Store
from .sync_io import KernelFile, SyncEngine

__all__ = ["CQEError", "IOUringEngine", "IOUringFile", "IOUringRing"]


class CQEError(Exception):
    """A reaped CQE carried an error result.

    io_uring reports errors per-completion (``cqe->res`` is a negative
    errno); this is the simulation's equivalent, raised at reap time
    with the device completion attached.
    """

    def __init__(self, completion: Completion):
        super().__init__(f"io_uring cqe error: res={completion.errno} "
                         f"({completion.status})")
        self.completion = completion
        self.res = completion.errno  # the cqe->res field, negative errno


def _negative_offset(offset: int) -> CQEError:
    """The CQE the kernel posts for an SQE with a negative file offset:
    ``res == -EINVAL``, with no device command behind it."""
    return CQEError(Completion(-1, Status.INVALID_FIELD,
                               fault_reason=f"negative file offset "
                                            f"{offset}"))


class IOUringRing:
    """One SQ/CQ ring pair plus its dedicated kernel poller thread."""

    def __init__(self, sim: Simulator, cpus: CPUSet, kernel: Kernel,
                 index: int):
        self.sim = sim
        self.kernel = kernel
        self.sq: Store = Store(sim)
        self.poller = cpus.thread(f"iou-sqpoll-{index}")
        self.inflight = 0
        self._last_work_ns = 0
        sim.process(self._poll_loop(), name=f"iou-sqpoll-{index}",
                    daemon=True)

    # While busy, the poller spins in bounded leases: it burns the core
    # (the Figure 9 cost) but yields at lease boundaries, which stands
    # in for OS preemption on an oversubscribed machine.
    SPIN_LEASE_NS = 25_000
    PREEMPT_GAP_NS = 500
    IDLE_PARK_NS = 2_000_000  # sq_thread_idle: keep spinning ~2ms

    def _wait_for_sqe(self) -> Generator:
        sqe = self.sq.try_get()
        if sqe is not None:
            return sqe
        ev = self.sq.get()
        while True:
            idle_ns = self.sim.now - self._last_work_ns
            if self.inflight == 0 and idle_ns > self.IDLE_PARK_NS:
                # Long idle: park off-core (sq_thread_idle elapsed).
                return (yield from self.poller.block(ev))
            lease = self.sim.timeout(self.SPIN_LEASE_NS)
            yield from self.poller.poll(self.sim.any_of([ev, lease]))
            if ev.processed:
                return ev.value
            # Lease expired: preemption point so starved threads run.
            self.poller.release_core()
            yield self.sim.timeout(self.PREEMPT_GAP_NS)
            if ev.processed:
                return ev.value
            # loop: re-check the idle-park condition

    def _poll_loop(self) -> Generator:
        params, tracer = self.kernel.params, self.kernel.tracer
        scale = params.io_uring_kernel_stack_scale
        while True:
            sqe = yield from self._wait_for_sqe()
            self._last_work_ns = self.sim.now
            opcode, lba512, nbytes, data, cq, trace = sqe
            token = tracer.begin("kernel", "sqpoll", thread=self.poller,
                                 parent=trace)
            yield from self.poller.compute(params.io_uring_poll_interval_ns)
            yield from self.poller.compute(int(params.vfs_ext4_ns * scale))
            extra_pages = max(0, -(-nbytes // PAGE) - 1)
            if extra_pages:
                # Fixed buffers halve the per-page pinning cost.
                yield from self.poller.compute(
                    extra_pages * params.kernel_per_page_ns // 2)
            ev = yield from self.kernel.blockio.submit_async(
                self.poller, opcode, lba512, nbytes, data=data,
                charge_layers=True, trace=trace)
            tracer.end(token)
            # Completions flow to the app's CQ without poller involvement.
            def completed(event, cq=cq):
                self.inflight -= 1
                cq.put(event.value)

            ev.add_callback(completed)

    def submit(self, opcode: Opcode, lba512: int, nbytes: int,
               data: Optional[bytes], cq: Store,
               trace: Optional[Tuple[int, int]]) -> None:
        self.inflight += 1
        self.sq.put((opcode, lba512, nbytes, data, cq, trace))


class IOUringFile(KernelFile):
    """A registered file driven through a ring.

    Reads and in-place writes go through the ring, one SQE per extent
    run of the kernel's direct-I/O mapping; ``append``, ``fsync`` and
    ``close`` (and writes that need the allocator) are plain syscalls.
    """

    def __init__(self, engine: "IOUringEngine", proc: Process, fd: int):
        super().__init__(engine.kernel, proc, fd)
        self.engine = engine

    def pread(self, thread: Thread, offset: int,
              nbytes: int) -> Generator:
        return self.kernel.tracer.wrap("op", "pread",
                                       self._pread(thread, offset, nbytes),
                                       thread=thread)

    def _pread(self, thread: Thread, offset: int,
               nbytes: int) -> Generator:
        if offset < 0:
            raise _negative_offset(offset)
        n = max(0, min(nbytes, self.size - offset))
        if n == 0:
            return 0, b""
        data = yield from read_covering(self._read, thread, self.inode,
                                        offset, n)
        return n, data

    def _rw(self, opcode: Opcode, thread: Thread, inode, offset: int,
            nbytes: int, data: Optional[bytes] = None) -> Generator:
        """Sector-aligned I/O: one SQE per extent run, in order, each
        reaped before the next; a hole reads as zeros."""
        ring, cq = self.engine.ring_for(thread)
        prep_ns = self.kernel.params.io_uring_sqe_prep_ns
        chunks = []
        pos = 0
        for lba512, run_bytes in extent_runs(inode, offset, nbytes):
            if lba512 is None:
                chunks.append(bytes(run_bytes))
            else:
                yield from thread.compute(prep_ns)
                ring.submit(opcode, lba512, run_bytes,
                            None if data is None
                            else data[pos:pos + run_bytes],
                            cq, self.kernel.tracer.current(thread))
                # The app busy-polls the CQ (leased so oversubscription
                # cannot wedge the machine): together with the SQ poller
                # this is the "two cores per thread" cost of Figure 9.
                completion = yield from thread.poll_leased(cq.get())
                if not completion.ok:
                    raise CQEError(completion)
                chunks.append(completion.data)
            pos += run_bytes
        return None if None in chunks else b"".join(chunks)

    _read = partialmethod(_rw, Opcode.READ)
    _write = partialmethod(_rw, Opcode.WRITE)

    def pwrite(self, thread: Thread, offset: int, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        return self.kernel.tracer.wrap(
            "op", "pwrite", self._pwrite(thread, offset, nbytes, data),
            thread=thread)

    def _pwrite(self, thread: Thread, offset: int, nbytes: int,
                data: Optional[bytes]) -> Generator:
        if offset < 0:
            raise _negative_offset(offset)
        inode = self.inode
        if offset + nbytes > inode.size or any(
                lba512 is None
                for lba512, _ in extent_runs(inode, offset, nbytes)):
            # Extending writes and writes into holes need the
            # allocator: plain kernel path.
            return (yield from self.kernel.sys_pwrite(
                self.proc, thread, self.fd, offset, nbytes, data))
        yield from write_covering(self._read, self._write, thread, inode,
                                  offset, nbytes, data)
        return nbytes


class IOUringEngine(SyncEngine):
    """One ring (and one poller core) per application thread."""

    name = "io_uring"

    def __init__(self, sim: Simulator, cpus: CPUSet, kernel: Kernel,
                 proc: Process):
        super().__init__(kernel, proc)
        self.sim = sim
        self.cpus = cpus
        self._rings: Dict[int, tuple] = {}

    def ring_for(self, thread: Thread):
        entry = self._rings.get(thread.tid)
        if entry is None:
            ring = IOUringRing(self.sim, self.cpus, self.kernel,
                               len(self._rings))
            cq = Store(self.sim)
            entry = (ring, cq)
            self._rings[thread.tid] = entry
        return entry

    @property
    def poller_count(self) -> int:
        return len(self._rings)

    def _file(self, thread: Thread, fd: int) -> IOUringFile:
        return IOUringFile(self, self.proc, fd)
