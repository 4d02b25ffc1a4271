"""NVMe SSD device model.

Command lifecycle (paper Sections 2, 4.3):

1. Host writes an SQE and rings a doorbell (posted MMIO write).
2. One of the device's parallel channels wins arbitration — strict
   round robin across submission queues — and fetches the command over
   PCIe.
3. If the command addresses a *Virtual Block Address* (the BypassD
   interface) the device asks the IOMMU to translate it via ATS.  For
   reads the translation is serialised before media access (the device
   needs the LBA first); for writes it overlaps the host->device data
   transfer, so writes see no translation latency.
4. Media access plus data transfer.  Each command's transfer runs at
   the per-command controller rate, but all transfers share one device
   link, which caps aggregate bandwidth.  The link is a FIFO
   reservation (``_link_free_at``), so a whole transfer, queueing for
   the link included, is one timeout.
5. Completion entry is posted and the submitter's event triggers.

The BypassD protection guarantee lives in step 3: a translation fault
(no FTE, bad permission, wrong DevID) turns into an error completion
without any media access.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..faults.injector import NO_FAULTS, FaultInjector
from ..faults.plan import FaultKind
from ..hw.iommu import IOMMU, TranslationFault
from ..hw.params import HardwareParams
from ..hw.pcie import PCIeLink
from ..sim.engine import Event, Simulator
from ..sim.trace import NULL_TRACER, charge_phases
from .backend import MediaBackend
from .queues import QueuePair
from .scheduler import RoundRobinArbiter
from .spec import (
    ADDR_VBA,
    DEVICE_PAGE_SIZE,
    LBA_SIZE,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    ST_SUCCESS,
    Command,
    Completion,
    Status,
)

__all__ = ["NVMeDevice", "DeviceBusyError"]

_BLOCKS_PER_PAGE = DEVICE_PAGE_SIZE // LBA_SIZE  # 8


class DeviceBusyError(Exception):
    """The device is exclusively claimed (e.g. by an SPDK process)."""


class NVMeDevice:
    """A shared, multi-queue low-latency SSD."""

    def __init__(self, sim: Simulator, params: HardwareParams, iommu: IOMMU,
                 devid: int = 1, capacity_bytes: int = 1 << 40,
                 capture_data: bool = True,
                 arbiter: Optional[RoundRobinArbiter] = None,
                 injector: Optional[FaultInjector] = None):
        self.sim = sim
        self.params = params
        self.iommu = iommu
        self.devid = devid
        self.injector = injector if injector is not None else NO_FAULTS
        # Set by Machine when tracing is on.  Device-side phase spans
        # (category "nvme") parent under the host's wait span through
        # the (trace_id, span_id) context stamped on each Command.
        self.tracer = NULL_TRACER
        self.link = PCIeLink(params)
        self.backend = MediaBackend(params, capacity_bytes,
                                    capture_data=capture_data)
        self.arbiter = arbiter if arbiter is not None else RoundRobinArbiter()
        self._qid_counter = itertools.count(1)
        self._queues: Dict[int, QueuePair] = {}
        # Work no channel has claimed yet: one unit per doorbell (the
        # command waits in its SQ until the arbiter picks it) and per
        # VBA read whose translation finished (it waits in
        # ``_translated``).  ``_idle`` holds the wake events of
        # channels with nothing to do, longest idle first.
        self._pending = 0
        self._idle: Deque[Event] = deque()
        self._translated: Deque[
            Tuple[QueuePair, Command, List[Tuple[int, int]]]] = deque()
        # The instant the shared link's last reserved transfer leaves it.
        self._link_free_at = 0
        # Transfer size -> (link hold, controller tail off the link).
        # Both follow from the frozen params, so each size is worked
        # out once.
        self._link_timing: Dict[int, Tuple[int, int]] = {}
        # Commands whose completion the injector swallowed, keyed by
        # (qid, cid): the host's only way out is abort().
        self._lost: Dict[Tuple[int, int], Tuple[QueuePair, Command]] = {}
        self.exclusive_owner: Optional[str] = None
        self.commands_served = 0
        self.commands_failed = 0
        self.commands_aborted = 0
        self.dropped_completions = 0
        self.translation_faults = 0
        for idx in range(params.device_channels):
            sim.process(self._channel_loop(), name=f"nvme{devid}-ch{idx}",
                        daemon=True)

    # -- queue management (driver-facing) -------------------------------------

    def create_queue_pair(self, pasid: int, depth: int = 1024,
                          owner: Optional[str] = None) -> QueuePair:
        """Create an SQ/CQ pair bound to ``pasid`` (Section 3.3)."""
        if self.exclusive_owner is not None and owner != self.exclusive_owner:
            raise DeviceBusyError(
                f"device claimed exclusively by {self.exclusive_owner!r}"
            )
        qp = QueuePair(self.sim, next(self._qid_counter), pasid, depth)
        self._queues[qp.qid] = qp
        self.arbiter.add_queue(qp)
        return qp

    def delete_queue_pair(self, qp: QueuePair) -> None:
        if qp.qid not in self._queues:
            raise ValueError(f"unknown queue {qp.qid}")
        del self._queues[qp.qid]
        self.arbiter.remove_queue(qp)
        qp.shutdown()
        # Commands still in the SQ were never fetched: they complete
        # now with an abort status.  Their doorbells stay counted in
        # ``_pending``; the channel that takes one finds nothing to
        # select and moves on.
        while (cmd := qp.fetch()) is not None:
            self._complete(qp, cmd, Status.ABORTED_SQ_DELETION,
                           reason="submission queue deleted")

    def claim_exclusive(self, owner: str) -> None:
        """Userspace-driver claim: only possible with no other users."""
        if self.exclusive_owner is not None:
            raise DeviceBusyError(
                f"already claimed by {self.exclusive_owner!r}"
            )
        if self._queues:
            raise DeviceBusyError(
                f"{len(self._queues)} queue pair(s) still attached"
            )
        self.exclusive_owner = owner

    def release_exclusive(self, owner: str) -> None:
        if self.exclusive_owner != owner:
            raise DeviceBusyError(f"not claimed by {owner!r}")
        self.exclusive_owner = None

    @property
    def queue_count(self) -> int:
        return len(self._queues)

    def queue_pairs(self) -> List[QueuePair]:
        """Attached queue pairs in qid order (telemetry iteration)."""
        return [self._queues[qid] for qid in sorted(self._queues)]

    @property
    def inflight(self) -> int:
        """Commands accepted but not yet completed, across all queues."""
        return sum(qp.inflight for qp in self._queues.values())

    # -- submission ------------------------------------------------------------

    def submit(self, qp: QueuePair, cmd: Command) -> Event:
        """Host submits a command and rings the doorbell."""
        ev = qp.submit(cmd)
        cmd.submit_ns = self.sim.now
        self.link.posted_writes += 1
        self._notify()
        return ev

    def abort(self, qp: QueuePair, cid: int) -> bool:
        """Host abort (the driver's timeout path).

        If the device lost the command (an injected dropped
        completion), an ABORTED completion is posted and the waiter's
        event finally triggers.  Returns False when the command is not
        held by the device — it either completed already or is still
        making progress, in which case the host keeps waiting.
        """
        entry = self._lost.pop((qp.qid, cid), None)
        if entry is None:
            return False
        lost_qp, cmd = entry
        self.commands_aborted += 1
        self._complete(lost_qp, cmd, Status.ABORTED,
                       reason="aborted by host after timeout")
        return True

    # -- device internals ---------------------------------------------------

    def _notify(self) -> None:
        """One unit of work arrived: wake the longest-idle channel, or
        leave it pending for the next channel that frees up."""
        if self._idle:
            self._idle.popleft().succeed()
        else:
            self._pending += 1

    def _channel_loop(self) -> Generator[Event, object, None]:
        sim, idle, translated = self.sim, self._idle, self._translated
        while True:
            if self._pending:
                self._pending -= 1
            else:
                # No local holds the wake-up, so it is recycled once
                # processed.
                idle.append(sim.event())
                yield idle[-1]
            # Commands that finished VBA translation resume first; they
            # already won arbitration once.
            if translated:
                qp, cmd, segments = translated.popleft()
                yield from self._serve_read(qp, cmd, segments)
                continue
            picked = self.arbiter.select()
            if picked is None:
                continue  # queue was deleted with commands outstanding
            qp, cmd = picked
            yield from self._execute(qp, cmd)

    def _execute(self, qp: QueuePair,
                 cmd: Command) -> Generator[Event, object, None]:
        sim, params = self.sim, self.params
        tr = self.tracer
        traced = tr.enabled
        if traced and cmd.trace is not None and cmd.submit_ns >= 0:
            # Time spent queued behind other tenants at the arbiter —
            # doorbell write to fetch start — lands as arbiter wait on
            # the host's still-open wait span (the gap before this
            # fetch child in its self-time), reached through the
            # command's trace stamp.
            tr.add_wait("arbiter", sim.now - cmd.submit_ns,
                        token=cmd.trace[1])
        # The doorbell write plus command fetch over PCIe.
        if traced:
            token = tr.begin("nvme", "fetch", parent=cmd.trace)
        yield sim.timeout(params.command_fetch_ns)
        if traced:
            tr.end(token)

        opcode = cmd.opcode
        if opcode is OP_FLUSH:
            if traced:
                token = tr.begin("nvme", "flush", parent=cmd.trace)
            yield sim.timeout(params.flush_ns)
            if traced:
                tr.end(token)
            self._complete(qp, cmd, Status.SUCCESS)
            return

        write = opcode is OP_WRITE
        vba = cmd.addr_kind is ADDR_VBA
        if vba and (cmd.addr % LBA_SIZE or cmd.nbytes % LBA_SIZE):
            self._complete(qp, cmd, Status.INVALID_FIELD,
                           reason="VBA I/O must be device-block aligned")
            return

        inj = self.injector
        faults = inj.active
        translation_ns = 0
        segments: Optional[List[Tuple[int, int]]] = None
        if vba:
            if faults and inj.translation_fault(sim.now):
                # Spurious ATS refusal: same error completion as a real
                # fault, and like one it never touches media.  UserLib
                # reacts with re-fmap, then kernel-path fallback.
                self.translation_faults += 1
                self._complete(qp, cmd, Status.TRANSLATION_FAULT,
                               reason="injected translation fault")
                return
            try:
                ats = self.iommu.translate_vba(
                    qp.pasid, cmd.addr, cmd.nbytes,
                    write=write, requester_devid=self.devid,
                )
            except TranslationFault as exc:
                self.translation_faults += 1
                self._complete(qp, cmd, Status.TRANSLATION_FAULT,
                               reason=exc.reason)
                return
            translation_ns = ats.cost_ns
            pairs = ats.pairs
            if len(pairs) == 1:
                # One extent (every 4 KiB read inside one): the segment
                # starts at the page's first block plus the in-page
                # offset, as in ``_segments``.
                page, npages = pairs[0]
                head_skip = cmd.addr % DEVICE_PAGE_SIZE // LBA_SIZE
                nblocks = cmd.nbytes // LBA_SIZE
                if npages * _BLOCKS_PER_PAGE - head_skip < nblocks:
                    raise ValueError("translation pairs shorter than request")
                segments = [(page * _BLOCKS_PER_PAGE + head_skip, nblocks)]
            else:
                segments = self._segments(pairs, cmd.addr, cmd.nbytes)
        else:
            segments = [(cmd.addr, cmd.nbytes // LBA_SIZE)]

        capacity = self.backend.capacity_blocks
        for lba, nblocks in segments:
            if lba < 0 or lba + nblocks > capacity:
                self._complete(qp, cmd, Status.LBA_OUT_OF_RANGE,
                               reason=f"lba {lba} x{nblocks}")
                return

        if faults:
            spike_ns, terminal = inj.media_verdict(write, segments, sim.now)
            if spike_ns:
                # Slow command: correct result, pathological latency.
                if traced:
                    token = tr.begin("nvme", "latency-spike",
                                     parent=cmd.trace)
                yield sim.timeout(spike_ns)
                if traced:
                    tr.end(token)
            if terminal is FaultKind.DROP_COMPLETION:
                # The CQE evaporates; the command sits in device limbo
                # until the host times out and aborts it.
                self.dropped_completions += 1
                self._lost[(qp.qid, cmd.cid)] = (qp, cmd)
                return
            if terminal is not None:
                status = (Status.MEDIA_WRITE_FAULT if write
                          else Status.MEDIA_READ_ERROR)
                self._complete(qp, cmd, status,
                               reason=f"injected {terminal.value}")
                return

        # Validate the host DMA buffer through the IOMMU (cheap; IOTLB-hot).
        if cmd.buffer_iova and qp.pasid:
            try:
                _, buf_cost = self.iommu.translate_iova(
                    qp.pasid, cmd.buffer_iova, write=not write)
            except TranslationFault as exc:
                self.translation_faults += 1
                self._complete(qp, cmd, Status.TRANSLATION_FAULT,
                               reason=exc.reason)
                return
            yield sim.timeout(buf_cost)

        if write:
            yield from self._do_write(cmd, segments, translation_ns)
            if traced:
                token = tr.begin("nvme", "complete", parent=cmd.trace)
            yield sim.timeout(params.completion_post_ns)
            if traced:
                tr.end(token)
            self._complete(qp, cmd, ST_SUCCESS, nbytes=cmd.nbytes)
            return

        if translation_ns:
            # Reads need the LBA before media access, but the wait
            # happens in the IOMMU, not on a media channel: park the
            # command and free this channel for other work.
            sim.process(self._await_translation(qp, cmd, segments,
                                                translation_ns))
            return
        yield from self._serve_read(qp, cmd, segments)

    def _await_translation(self, qp: QueuePair, cmd: Command,
                           segments: List[Tuple[int, int]],
                           translation_ns: int):
        tr = self.tracer
        traced = tr.enabled
        if traced:
            token = tr.begin("nvme", "translate", parent=cmd.trace)
        yield self.sim.timeout(translation_ns)
        if traced:
            tr.end(token)
        self._translated.append((qp, cmd, segments))
        self._notify()

    def _serve_read(self, qp: QueuePair, cmd: Command,
                    segments: List[Tuple[int, int]]):
        sim, tr = self.sim, self.tracer
        traced = tr.enabled
        if traced:
            token = tr.begin("nvme", "media", parent=cmd.trace)
        yield sim.timeout(self.backend.media_ns(OP_READ))
        if traced:
            tr.end(token)
            token = tr.begin("nvme", "transfer", parent=cmd.trace)
        yield sim.timeout(self._reserve_link(cmd.nbytes))
        if traced:
            tr.end(token)
        # The payload is read when the transfer ends, not when it
        # starts, so a write that lands meanwhile is visible: that read
        # keeps the completion post a timeout of its own.
        chunks = []
        for lba, nblocks in segments:
            chunk = self.backend.read_blocks(lba, nblocks)
            if chunk is not None:
                chunks.append(chunk)
        if traced:
            token = tr.begin("nvme", "complete", parent=cmd.trace)
        yield sim.timeout(self.params.completion_post_ns)
        if traced:
            tr.end(token)
        self._complete(qp, cmd, ST_SUCCESS,
                       data=b"".join(chunks) if chunks else None,
                       nbytes=cmd.nbytes)

    def _do_write(self, cmd: Command, segments: List[Tuple[int, int]],
                  translation_ns: int):
        # Host->device transfer overlaps the VBA translation (Section 4.3):
        # data lands in device memory while the IOMMU resolves the LBA.
        # Nothing between the link reservation and the media write reads
        # shared state, so transfer, translate remainder and media are
        # one delay; the payload lands at media end.
        elapsed = self._reserve_link(cmd.nbytes)
        phases = [("transfer", elapsed)]
        if translation_ns > elapsed:
            phases.append(("translate", translation_ns - elapsed))
        phases.append(("media", self.backend.media_ns(OP_WRITE)))
        yield from charge_phases(self.sim, phases, tracer=self.tracer,
                                 category="nvme", parent=cmd.trace)
        offset = 0
        for lba, nblocks in segments:
            chunk = None
            if cmd.data is not None:
                chunk = cmd.data[offset:offset + nblocks * LBA_SIZE]
            self.backend.write_blocks(lba, nblocks, chunk)
            offset += nblocks * LBA_SIZE

    def _reserve_link(self, nbytes: int) -> int:
        """Reserve the shared link for a transfer starting now; return
        its duration: the wait behind earlier reservations, the link
        hold, then the controller tail off the link."""
        timing = self._link_timing.get(nbytes)
        if timing is None:
            link_ns = self.backend.link_ns(nbytes)
            tail_ns = self.backend.transfer_ns(nbytes) - link_ns
            timing = self._link_timing[nbytes] = (
                link_ns, tail_ns if tail_ns > 0 else 0)
        link_ns, tail_ns = timing
        now = self.sim.now
        start = self._link_free_at if self._link_free_at > now else now
        self._link_free_at = start + link_ns
        return start - now + link_ns + tail_ns

    def _segments(self, pairs: List[Tuple[int, int]], vba: int,
                  nbytes: int) -> List[Tuple[int, int]]:
        """Convert (device-page, page-count) pairs to 512 B LBA extents.

        FTEs store device *page* numbers (4 KB, the Optane block size the
        paper maps at); sub-page offsets come from the low VBA bits.
        """
        head_skip = (vba % DEVICE_PAGE_SIZE) // LBA_SIZE
        blocks_needed = nbytes // LBA_SIZE
        segments: List[Tuple[int, int]] = []
        for page, npages in pairs:
            if blocks_needed <= 0:
                break
            start = page * _BLOCKS_PER_PAGE + head_skip
            avail = npages * _BLOCKS_PER_PAGE - head_skip
            take = min(avail, blocks_needed)
            if take > 0:
                if segments and segments[-1][0] + segments[-1][1] == start:
                    segments[-1] = (segments[-1][0], segments[-1][1] + take)
                else:
                    segments.append((start, take))
                blocks_needed -= take
            head_skip = 0
        if blocks_needed > 0:
            raise ValueError("translation pairs shorter than request")
        return segments

    def _complete(self, qp: QueuePair, cmd: Command, status: Status,
                  data: Optional[bytes] = None, nbytes: int = 0,
                  reason: str = "") -> None:
        # Error completions are not "served": a faulted command did no
        # useful work (and touched no media), so the two counters let
        # tests assert both halves independently.
        if status.ok:
            self.commands_served += 1
        else:
            self.commands_failed += 1
        completion = Completion(cid=cmd.cid, status=status, data=data,
                                fault_reason=reason)
        qp.post_completion(completion, nbytes=nbytes)
