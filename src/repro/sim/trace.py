"""Tracing hooks every run calls: the null tracer and fused delays.

Models open spans around their phases — UserLib around an operation,
the kernel around its layers, the device around media/transfer —
through a tracer object.  A plain run gets ``NULL_TRACER``, which
swallows everything; ``Machine(trace=True)`` swaps in the recording
:class:`repro.sim.spans.Tracer`, which keeps the span trees that
:mod:`repro.obs.attribution` folds into the user/kernel/device
breakdowns of Table 1 and Figure 7.  The recorder and its
:class:`~repro.sim.spans.Span` records live in their own module so a
run that never traces never loads them.

A run of fixed delays that crosses no shared-state instant is charged
as one delay by :func:`charge_phases`, which then traces each phase of
the run through ``tracer.record`` as a closed span with explicit
``[start, end)`` bounds — the same spans ``begin()``/``end()`` around
separate delays would have produced, for one engine event instead of
one per phase.  An untraced call with a thread returns
``thread.compute`` itself: there is nothing to record afterwards, so no
generator frame of its own sits between the caller and the core.

Tracing never advances simulated time — with tracing on or off the
same seed produces a byte-identical timeline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator, Optional, Sequence, Tuple

__all__ = ["NullTracer", "NULL_TRACER", "WAIT_PREFIX", "WAIT_KINDS",
           "charge_phases"]

# Wait-state attribute namespace.  A span whose interval includes time
# spent *waiting* (rather than doing work) carries one attr per wait
# kind: ``("wait.<kind>", total_ns)``.  Attrs are excluded from
# tree_fingerprint's canonical form, so stamping waits never churns
# golden fingerprints; exporters carry them through to Perfetto args
# and obs.attribution folds them into per-op waterfalls.
WAIT_PREFIX = "wait."

# The closed catalogue of wait kinds the models stamp.  Attribution
# and diff tooling iterate this for deterministic ordering.
WAIT_KINDS = (
    "sq_full",          # userlib stalled on a full submission queue
    "arbiter",          # command queued at the NVMe arbiter pre-fetch
    "softirq",          # completion sat in softirq/CQ backlog
    "inode_lock",       # blocked on the inode write lock (i_rwsem)
    "dirty_writeback",  # pagecache eviction forced dirty writeback
    "journal_commit",   # fsync waiting on the ext4 journal commit
    "retry_backoff",    # backoff gap between device command attempts
)


class NullTracer:
    """Does nothing, costs (almost) nothing."""

    enabled = False

    @contextmanager
    def span(self, category: str, label: str = "", *,
             thread=None, parent=None, attrs=None) -> Iterator[None]:
        yield

    def begin(self, category: str, label: str = "", *,
              thread=None, parent=None, attrs=None) -> int:
        return 0

    def end(self, token: int) -> None:
        pass

    def wrap(self, category: str, label: str, body: Generator, *,
             thread=None) -> Generator:
        return body

    def record(self, category: str, label: str, start_ns: int,
               end_ns: int, *, thread=None, parent=None,
               attrs=None) -> None:
        pass

    def current(self, thread=None) -> Optional[Tuple[int, int]]:
        return None

    def stamp(self, cmd, *, thread=None, parent=None) -> None:
        pass

    def add_wait(self, kind: str, ns: int, *, thread=None,
                 token=None) -> None:
        pass


NULL_TRACER = NullTracer()


def charge_phases(sim, phases: Sequence[Tuple[Optional[str], int]], *,
                  thread=None, tracer=NULL_TRACER, category: str = "kernel",
                  parent=None) -> Generator:
    """What to ``yield from`` to charge a run of fixed-delay phases as
    one delay.

    ``phases`` are ``(label, ns)`` pairs that run back to back; a
    ``None`` label charges its time without a span.  With a ``thread``
    the run is one ``thread.compute`` (the core is acquired once, up
    front), otherwise one timeout.  Afterwards each labelled phase is
    recorded as a ``category`` span with explicit bounds, exactly where
    ``begin()``/``end()`` around one delay per phase would have put it:
    the first phase starts where this call starts, before the core is
    granted, so run-queue wait stays inside it, and every later phase
    starts where the previous one ends.

    With a ``thread`` and a tracer that is not enabled there is nothing
    to record, so this returns ``thread.compute(total)`` itself, with no
    generator of its own around it.  Otherwise it returns a generator
    that posts nothing until the caller iterates it.

    Fuse only phases with no shared-state instant between them: nothing
    that another process can change may be read or written there
    (docs/engine_performance.md lists the instants that forbid it).
    """
    total = 0
    for _label, ns in phases:
        total += ns
    if thread is not None and not tracer.enabled:
        return thread.compute(total)

    # Named like this function: scripts/event_sites.py labels the
    # timeout a thread-less run posts by the posting frame's name.
    def charge_phases() -> Generator:
        t0 = sim.now
        if thread is not None:
            yield from thread.compute(total)
        elif total:
            yield sim.timeout(total)
        if tracer.enabled:
            start = t0
            end = sim.now - total
            for label, ns in phases:
                end += ns
                if label is not None:
                    tracer.record(category, label, start, end,
                                  thread=thread, parent=parent)
                start = end

    return charge_phases()
