"""NVMe queue pairs (submission + completion rings).

A queue pair is created by the kernel driver and may be mapped into a
process so requests can be submitted without kernel involvement.  With
BypassD the driver registers the owning process's PASID with the queue
at creation time; the device forwards that PASID with every ATS
translation request so the IOMMU walks the right page table
(Section 3.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..sim.engine import Event, Simulator
from .spec import Command, Completion

__all__ = ["QueuePair", "QueueFullError"]


class QueueFullError(Exception):
    """Submission ring has no free slot."""


class QueuePair:
    """One SQ/CQ pair bound to a PASID.

    Submission appends to the SQ ring; the device pops commands during
    arbitration and later posts a :class:`Completion`.  Each in-flight
    command has a completion event the submitter can poll or block on.
    """

    def __init__(self, sim: Simulator, qid: int, pasid: int,
                 depth: int = 1024):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.sim = sim
        self.qid = qid
        self.pasid = pasid
        self.depth = depth
        self.sq: Deque[Command] = deque()
        # Completions reach hosts through their wait events and nothing
        # reaps ``cq``, so it is bounded to ``depth`` entries to cap
        # memory: a long run would otherwise hold every CQE (and
        # payload) it ever posted.  Once full, a new entry drops the
        # oldest.  That is a simulator shortcut, not NVMe semantics: a
        # controller stops posting to a full CQ, so a host that polls
        # ``pop_completion`` must drain it within ``depth`` entries.
        self.cq: Deque[Completion] = deque(maxlen=depth)
        self._events: Dict[int, Event] = {}
        self.submitted = 0
        self.completed = 0
        self.reaped = 0
        self.bytes_completed = 0
        self.active = True

    # -- host side -----------------------------------------------------------

    def submit(self, cmd: Command) -> Event:
        """Place a command on the SQ; returns its completion event."""
        if not self.active:
            raise QueueFullError(f"queue {self.qid} has been deleted")
        if len(self._events) >= self.depth:
            raise QueueFullError(
                f"queue {self.qid} full (depth {self.depth})"
            )
        ev = self.sim.event()
        self._events[cmd.cid] = ev
        self.sq.append(cmd)
        self.submitted += 1
        return ev

    def pop_completion(self) -> Optional[Completion]:
        if not self.cq:
            return None
        # Clamped: popping a completion that was already delivered via
        # its wait event (tests do this) must not drive backlog negative.
        self.reaped = min(self.reaped + 1, self.completed)
        return self.cq.popleft()

    @property
    def inflight(self) -> int:
        return len(self._events)

    @property
    def sq_len(self) -> int:
        return len(self.sq)

    # -- telemetry gauges (read-only; sampled by repro.obs.monitor) ----

    @property
    def cq_backlog(self) -> int:
        """Completions posted but not yet consumed by the host.

        Event-driven submitters consume a completion the instant it is
        posted (their wait event fires), so only explicitly reaped /
        polled completions can back up.
        """
        return self.completed - self.reaped

    @property
    def sq_occupancy(self) -> float:
        """SQ fill fraction of the ring, in [0, 1]."""
        return len(self.sq) / self.depth

    @property
    def cq_occupancy(self) -> float:
        """CQ backlog as a fraction of the ring depth, in [0, 1]."""
        return min(1.0, self.cq_backlog / self.depth)

    # -- device side -----------------------------------------------------------

    def fetch(self) -> Optional[Command]:
        """Device pops the head-of-line command."""
        if not self.sq:
            return None
        return self.sq.popleft()

    def post_completion(self, completion: Completion,
                        nbytes: int = 0) -> None:
        self.cq.append(completion)
        self.completed += 1
        self.bytes_completed += nbytes
        ev = self._events.pop(completion.cid, None)
        if ev is not None:
            # Delivered through the wait event: the submitter sees it
            # now, so it never sits in the CQ backlog (`cq_backlog`).
            self.reaped += 1
            ev.succeed(completion)

    def shutdown(self) -> None:
        """Delete the queue pair; outstanding submissions fail."""
        self.active = False
