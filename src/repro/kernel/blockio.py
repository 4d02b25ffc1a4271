"""Kernel block layer, NVMe driver, and the driver error policy.

This is the in-kernel data path of Table 1: the block layer costs
540 ns, the driver 220 ns, and completions arrive by interrupt (the
submitting thread sleeps off-core).  The same machinery backs the
filesystem's metadata volume.

The kernel is trusted, so its commands carry physical addresses
(``buffer_iova=0`` skips the device's per-process buffer validation)
and kernel queues use PASID 0.

Error handling mirrors the Linux nvme driver and lives once, in
:class:`GuardedIO`, which the block layer, the metadata volume and
BypassD's UserLib all inherit:

- every synchronous command is guarded by a timeout
  (``params.io_timeout_ns``); on expiry the driver aborts the command,
  which flushes an ABORTED completion out of a device that dropped the
  CQE (the timeout wait is only armed when the machine's fault plan can
  actually drop completions, so fault-free timing is untouched);
- transient error completions (media errors, aborts) are retried up to
  ``params.io_retry_limit`` times with bounded exponential backoff;
- exhausted retries and permanent errors surface as :class:`IOError_`,
  an ``OSError`` whose ``errno`` is what the syscall would return
  (``EIO`` for media failures) — callers up the stack see ``-EIO``;
- async submissions get no retry, only a watchdog that aborts a lost
  command so the reaper sees an error completion.

The shape of a direct I/O request lives here once, for every kernel
engine (sync, libaio, io_uring, XRP): :func:`extent_runs` turns a file
byte range into one device piece per extent run (holes marked), and
:func:`read_covering` / :func:`write_covering` round a byte-granular
request to the sectors that cover it.  The engines differ only in how
they submit those pieces and reap their completions.
"""

from __future__ import annotations

import errno as _errno
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..faults import canary
from ..fs.ext4.filesystem import FsError
from ..hw.params import HardwareParams
from ..nvme.device import NVMeDevice
from ..nvme.queues import QueuePair
from ..nvme.spec import OP_WRITE, Command, Completion, Opcode
from ..sim.cpu import Thread
from ..sim.engine import Event, Simulator
from ..sim.trace import NULL_TRACER, charge_phases

__all__ = ["BlockIOLayer", "GuardedIO", "KernelVolume", "IOError_",
           "PAGE", "SECTOR", "extent_runs", "negative_offset",
           "read_covering", "write_covering"]

PAGE = 4096    # filesystem block and memory page
SECTOR = 512   # device logical block: the unit of every command
_SECTORS_PER_PAGE = PAGE // SECTOR

# One device piece of a file range: (lba512, nbytes), lba512 None = hole.
Run = Tuple[Optional[int], int]


def extent_runs(inode, offset: int, nbytes: int) -> List[Run]:
    """The device pieces of the file range ``[offset, offset+nbytes)``.

    One ``(lba512, run_bytes)`` per run of the inode's extent map the
    range crosses, in file order, with ``lba512`` None over a hole.  A
    command must not cross a run boundary: the blocks past it belong to
    some other extent, possibly another file's.  ``ExtentTree.insert``
    merges extents that are contiguous on disk, so one run is one
    command.  ``offset`` must be sector-aligned for ``lba512`` to be
    exact (:func:`read_covering` / :func:`write_covering` see to it).
    """
    extents = inode.extents
    runs: List[Run] = []
    pos, end = offset, offset + nbytes
    while pos < end:
        block = pos // PAGE
        mapping = extents.lookup(block)
        if mapping is None:
            nxt = extents.next_mapped(block)
            stop = end if nxt is None else min(end, nxt * PAGE)
            runs.append((None, stop - pos))
        else:
            stop = min(end, (block + mapping[1]) * PAGE)
            runs.append((mapping[0] * _SECTORS_PER_PAGE
                         + pos % PAGE // SECTOR, stop - pos))
        pos = stop
    return runs


def negative_offset(offset: int) -> OSError:
    """The error pread(2) and pwrite(2) return for a negative file
    offset: ``EINVAL``, before any device command.  Callers test
    ``offset < 0`` themselves and raise this."""
    return OSError(_errno.EINVAL, f"negative file offset {offset}")


def read_covering(read: Callable[..., Generator], thread: Thread, inode,
                  offset: int, n: int) -> Generator:
    """What to ``yield from`` to read ``n`` bytes at ``offset`` through
    ``read(thread, inode, offset, n)``, an engine's sector-aligned
    direct read: an unaligned request over-reads the covering sectors
    and slices (what a shim over O_DIRECT does).  An aligned request is
    ``read(...)`` itself, with no generator of this function around
    it."""
    skip = offset % SECTOR
    if not (skip or n % SECTOR):
        return read(thread, inode, offset, n)
    return _read_unaligned(read, thread, inode, offset, skip, n)


def _read_unaligned(read: Callable[..., Generator], thread: Thread, inode,
                    offset: int, skip: int, n: int) -> Generator:
    data = yield from read(thread, inode, offset - skip,
                           -(-(skip + n) // SECTOR) * SECTOR)
    return None if data is None else data[skip:skip + n]


def write_covering(read: Callable[..., Generator],
                   write: Callable[..., Generator], thread: Thread, inode,
                   offset: int, nbytes: int,
                   data: Optional[bytes]) -> Generator:
    """What to ``yield from`` to write ``nbytes`` at ``offset`` through
    an engine's sector-aligned ``write(thread, inode, offset, nbytes,
    data)``: an unaligned request reads the covering sectors with
    ``read`` and writes them back merged, so neighbouring bytes
    survive.  An aligned request is ``write(...)`` itself."""
    skip = offset % SECTOR
    if not (skip or nbytes % SECTOR):
        return write(thread, inode, offset, nbytes, data)
    return _write_unaligned(read, write, thread, inode, offset, skip,
                            nbytes, data)


def _write_unaligned(read: Callable[..., Generator],
                     write: Callable[..., Generator], thread: Thread, inode,
                     offset: int, skip: int, nbytes: int,
                     data: Optional[bytes]) -> Generator:
    span = -(-(skip + nbytes) // SECTOR) * SECTOR
    old = yield from read(thread, inode, offset - skip, span)
    merged = None
    if data is not None:
        merged = bytearray(span) if old is None else bytearray(old)
        merged[skip:skip + nbytes] = data
        merged = bytes(merged)
    yield from write(thread, inode, offset - skip, span, merged)


class IOError_(OSError):
    """Device returned an error status to a kernel-issued command.

    An ``OSError`` so the errno convention holds end to end: the
    device's CQE status maps to ``completion.errno`` (e.g. ``-EIO``)
    and this exception carries the positive ``errno`` Python expects.
    """

    def __init__(self, completion: Completion):
        err = -completion.errno if completion.errno else _errno.EIO
        super().__init__(err, f"I/O failed: {completion.status} "
                              f"{completion.fault_reason}")
        self.completion = completion


def _yield_event(ev: Event) -> Generator:
    """Wait primitive for callers without a thread: a bare ``yield``."""
    return (yield ev)


class GuardedIO:
    """The driver error policy every synchronous I/O path inherits.

    Counters: ``timeouts``/``aborts`` (lost completions), ``retries``,
    ``io_errors`` (commands failed with :class:`IOError_`), and the
    high-water marks the chaos retry-bounds oracle reads:
    ``max_attempts`` (the deepest retry any command reached) and
    ``max_backoff_ns``.  Plain attributes, not Stats fields, so golden
    telemetry dumps are untouched.
    """

    def __init__(self, sim: Simulator, params: HardwareParams,
                 device: NVMeDevice):
        self.sim = sim
        self.params = params
        self.device = device
        self.timeouts = 0
        self.aborts = 0
        self.retries = 0
        self.io_errors = 0
        self.max_attempts = 0
        self.max_backoff_ns = 0

    def _guarded_wait(self, wait: Callable[[Event], Generator],
                      qp: QueuePair, cmd: Command, ev: Event) -> Generator:
        """What to ``yield from`` to wait for ``ev`` with ``wait``
        (``thread.block``, ``thread.poll`` or a bare yield), timing out
        and aborting the command if its completion is lost.  The
        timeout is only armed when the fault plan can drop completions;
        otherwise this is ``wait(ev)`` itself, with no generator of its
        own around it."""
        if not self.device.injector.may_drop:
            return wait(ev)
        return self._wait_with_timeout(wait, qp, cmd, ev)

    def _wait_with_timeout(self, wait: Callable[[Event], Generator],
                           qp: QueuePair, cmd: Command,
                           ev: Event) -> Generator:
        """The armed wait: one timeout per round, abort on expiry."""
        while not ev.processed:
            deadline = self.sim.timeout(self.params.io_timeout_ns)
            yield from wait(self.sim.any_of([ev, deadline]))
            if not ev.processed:
                # If the abort misses (the command is alive, just slow),
                # keep waiting — the completion must eventually arrive.
                self._abort_lost(qp, cmd)
        return ev.value

    def _abort_lost(self, qp: QueuePair, cmd: Command) -> None:
        self.timeouts += 1
        if self.device.abort(qp, cmd.cid):
            self.aborts += 1

    def _guard_async(self, qp: QueuePair, cmd: Command, ev: Event,
                     name: str) -> None:
        """Arm a watchdog for a submission nobody waits on, so a lost
        completion is aborted and its reaper sees an ABORTED CQE."""
        if self.device.injector.may_drop:
            self.sim.process(self._abort_watchdog(qp, cmd, ev),
                             name=f"{name}-{cmd.cid}")

    def _abort_watchdog(self, qp: QueuePair, cmd: Command,
                        ev: Event) -> Generator:
        yield self.sim.timeout(self.params.io_timeout_ns)
        if not ev.triggered:
            self._abort_lost(qp, cmd)

    def _retry_backoff(self, completion: Completion, attempt: int) -> int:
        """Backoff to sleep before retry ``attempt`` (1-based) of a
        failed command; raises :class:`IOError_` when the status is not
        retryable or the retry budget is spent."""
        if not completion.status.retryable or attempt > \
                self.params.io_retry_limit + canary.extra_retries():
            self.io_errors += 1
            raise IOError_(completion)
        self.retries += 1
        self.max_attempts = max(self.max_attempts, attempt)
        backoff = self.params.retry_backoff_ns(attempt)
        self.max_backoff_ns = max(self.max_backoff_ns, backoff)
        return backoff


class BlockIOLayer(GuardedIO):
    """Kernel submission path with per-thread hardware queues."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 device: NVMeDevice):
        super().__init__(sim, params, device)
        self._queues: Dict[int, QueuePair] = {}
        self.requests = 0
        self.tracer = NULL_TRACER
        # The block layer then the NVMe driver: one delay, two spans.
        self._layer_phases = (("block-layer", params.block_layer_ns),
                              ("nvme-driver", params.nvme_driver_ns))

    def _queue_for(self, thread: Thread) -> QueuePair:
        qp = self._queues.get(thread.tid)
        if qp is None:
            qp = self.device.create_queue_pair(pasid=0, depth=1024)
            self._queues[thread.tid] = qp
        return qp

    # -- telemetry gauges (read-only; sampled by repro.obs.monitor) ----

    @property
    def inflight(self) -> int:
        """Requests submitted through this layer, completion pending."""
        return sum(qp.inflight for qp in self._queues.values())

    @property
    def softirq_backlog(self) -> int:
        """Completions posted by the device, not yet seen by a waiter."""
        return sum(qp.cq_backlog for qp in self._queues.values())

    # -- guarded submission ---------------------------------------------------

    def _rw(self, thread: Thread, opcode: Opcode, lba512: int,
            nbytes: int, data: Optional[bytes], charge_layers: bool,
            charge_irq: bool) -> Generator:
        """Submit + wait with the full retry policy; returns read data."""
        tracer = self.tracer
        if charge_layers:
            yield from charge_phases(self.sim, self._layer_phases,
                                     thread=thread, tracer=tracer)
        qp = self._queue_for(thread)
        traced = tracer.enabled
        attempt = 0
        while True:
            cmd = Command(opcode, addr=lba512, nbytes=nbytes, data=data)
            self.requests += 1
            # Open the wait span before ringing the doorbell and stamp
            # the command with it, so the device's "nvme" phase spans
            # parent under this span (a retry opens a fresh one).
            if traced:
                token = tracer.begin("device", "kernel-io", thread=thread)
            try:
                if traced:
                    tracer.stamp(cmd, thread=thread)
                # The submit event goes unnamed: a local would keep it
                # from being recycled once it has been processed.
                completion = yield from self._guarded_wait(
                    thread.block, qp, cmd, self.device.submit(qp, cmd))
            finally:
                if traced:
                    tracer.end(token)
            if charge_irq and self.params.irq_completion_ns:
                irq_t0 = self.sim.now
                yield from thread.compute(self.params.irq_completion_ns)
                tracer.add_wait("softirq", self.sim.now - irq_t0,
                                thread=thread)
            if completion.ok:
                return completion.data
            attempt += 1
            backoff = self._retry_backoff(completion, attempt)
            backoff_t0 = self.sim.now
            yield from thread.sleep(backoff)
            tracer.add_wait("retry_backoff", self.sim.now - backoff_t0,
                            thread=thread)

    # -- thread-accounted path (syscalls) -------------------------------------

    def rw_fsblocks(self, thread: Thread, opcode: Opcode, fs_block: int,
                    count: int, data: Optional[bytes] = None) -> Generator:
        """Read/write ``count`` filesystem blocks; returns read payload.

        Charges the block-layer and driver CPU costs, then sleeps until
        the interrupt-driven completion.
        """
        return self._rw(thread, opcode, fs_block * _SECTORS_PER_PAGE,
                        count * PAGE, data, True, True)

    def rw_runs(self, thread: Thread, opcode: Opcode, runs: List[Run],
                data: Optional[bytes] = None,
                charge_layers: bool = True) -> Generator:
        """Read or write :func:`extent_runs` pieces, one blocking
        command per run in order, ``data`` split to match.  A hole
        reads as zeros (writers allocate first).  Returns the read
        payload, None when the device returns none.

        One mapped run (most requests) returns :meth:`_rw`'s generator
        itself, with no frame of this method around it."""
        if len(runs) == 1 and runs[0][0] is not None:
            return self._rw(thread, opcode, runs[0][0], runs[0][1], data,
                            charge_layers, False)
        return self._rw_pieces(thread, opcode, runs, data, charge_layers)

    def _rw_pieces(self, thread: Thread, opcode: Opcode, runs: List[Run],
                   data: Optional[bytes],
                   charge_layers: bool) -> Generator:
        """:meth:`rw_runs` over holes or several runs."""
        chunks = []
        pos = 0
        for lba512, nbytes in runs:
            if lba512 is None:
                if opcode is OP_WRITE:
                    raise FsError(f"write into a hole at run byte {pos}")
                chunks.append(bytes(nbytes))
            else:
                chunks.append((yield from self._rw(
                    thread, opcode, lba512, nbytes,
                    None if data is None else data[pos:pos + nbytes],
                    charge_layers, False)))
            pos += nbytes
        return None if None in chunks else b"".join(chunks)

    def submit_async(self, thread: Thread, opcode: Opcode, lba512: int,
                     nbytes: int, data: Optional[bytes] = None,
                     charge_layers: bool = True,
                     trace: Optional[Tuple[int, int]] = None) -> Generator:
        """Charge the submission-side CPU and return the completion
        event without waiting (libaio / io_uring style).

        ``trace`` is the trace context of the operation the SQE or iocb
        belongs to; the device command is stamped with it so the
        device phases parent under the op, not under the submitting
        span (which ends at the doorbell).

        Async submitters get no driver retry — errors surface through
        their own reaping API (errno in the io_event, CQE status) — but
        they do get the timeout/abort guard, otherwise a dropped
        completion would strand the reaper forever.
        """
        if charge_layers:
            yield from charge_phases(self.sim, self._layer_phases,
                                     thread=thread, tracer=self.tracer)
        qp = self._queue_for(thread)
        cmd = Command(opcode, addr=lba512, nbytes=nbytes, data=data)
        self.requests += 1
        self.tracer.stamp(cmd, thread=thread, parent=trace)
        ev = self.device.submit(qp, cmd)
        self._guard_async(qp, cmd, ev, "nvme-timeout")
        return ev

    def flush(self, thread: Thread) -> Generator:
        qp = self._queue_for(thread)
        cmd = Command(Opcode.FLUSH, addr=0, nbytes=0)
        token = self.tracer.begin("device", "kernel-io", thread=thread)
        try:
            self.tracer.stamp(cmd, thread=thread)
            ev = self.device.submit(qp, cmd)
            completion = yield from self._guarded_wait(thread.block, qp,
                                                       cmd, ev)
        finally:
            self.tracer.end(token)
        if not completion.ok:
            self.io_errors += 1
            raise IOError_(completion)


class KernelVolume(GuardedIO):
    """Volume interface the filesystem uses for metadata I/O.

    Metadata I/O runs inside a syscall on the calling thread's time;
    the filesystem code does not carry a thread reference, so volume
    operations wait on the raw completion event (the enclosing syscall
    has already charged the CPU layers).  The error policy is the
    block layer's — metadata must survive the same injected faults as
    data.
    """

    block_size = PAGE

    def __init__(self, sim: Simulator, params: HardwareParams,
                 device: NVMeDevice):
        super().__init__(sim, params, device)
        self._qp: Optional[QueuePair] = None
        self.meta_reads = 0
        self.meta_writes = 0

    def _queue(self) -> QueuePair:
        if self._qp is None:
            self._qp = self.device.create_queue_pair(pasid=0, depth=1024)
        return self._qp

    def _submit_guarded(self, opcode: Opcode, addr: int, nbytes: int,
                        data: Optional[bytes] = None) -> Generator:
        qp = self._queue()
        attempt = 0
        while True:
            cmd = Command(opcode, addr=addr, nbytes=nbytes, data=data)
            ev = self.device.submit(qp, cmd)
            completion = yield from self._guarded_wait(_yield_event, qp,
                                                       cmd, ev)
            if completion.ok:
                return completion
            attempt += 1
            yield self.sim.timeout(self._retry_backoff(completion, attempt))

    def read_blocks(self, block: int, count: int) -> Generator:
        self.meta_reads += 1
        completion = yield from self._submit_guarded(
            Opcode.READ, block * _SECTORS_PER_PAGE, count * PAGE)
        return completion.data

    def write_blocks(self, block: int, count: int,
                     data: Optional[bytes] = None) -> Generator:
        self.meta_writes += 1
        yield from self._submit_guarded(
            Opcode.WRITE, block * _SECTORS_PER_PAGE, count * PAGE,
            data=data)

    def zero_blocks(self, block: int, count: int) -> Generator:
        """Zero newly allocated blocks (Section 4.1 security rule)."""
        self.device.backend.zero_blocks(block * _SECTORS_PER_PAGE,
                                        count * _SECTORS_PER_PAGE)
        kb = count * PAGE // 1024
        yield self.sim.timeout(self.params.block_zero_ns_per_kb * kb)

    def flush(self) -> Generator:
        yield from self._submit_guarded(Opcode.FLUSH, 0, 0)
