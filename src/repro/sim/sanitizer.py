"""Runtime sanitizer for the discrete-event engine (opt-in).

``Simulator(sanitize=True)`` attaches a :class:`Sanitizer` that watches
the run and reports, at the end:

- **ordering races** — two or more processes contend for the same
  synchronisation object (Resource/Semaphore/Store) at the *same*
  simulated timestamp.  The engine breaks the tie with its scheduling
  sequence number, so the run is reproducible — but the winner is an
  artifact of event-creation order, not of modelled behaviour.  That
  is exactly the kind of accidental coupling that makes a model
  fragile to refactoring, so the sanitizer surfaces every instance.
- **stranded processes** — generators still alive when the event queue
  drained: they are waiting on an event nothing will ever trigger.
- **leaked events** — untriggered events that still have callbacks
  registered (a process or condition is parked on them forever).
- **leaked resources** — unfreed CPU cores / resource units, held
  semaphores, and stores with parked getters or putters.

It also records per-event **provenance** (who created it, when it was
scheduled, with which tie-break sequence number) so diagnostics can
name the participants.

When ``sanitize=False`` (the default) none of this exists: the engine
only performs a ``is not None`` check on the hot paths, simulated
timings are byte-identical either way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Sanitizer", "Diagnostic", "EventProvenance", "SanitizerError"]


class SanitizerError(Exception):
    """Raised at end of run in strict mode when findings exist."""


@dataclass(frozen=True, slots=True)
class EventProvenance:
    """Where an event came from (sanitize mode only)."""

    kind: str                     # "Event", "Timeout", "Process", ...
    created_ns: int
    created_by: str               # process name or "<toplevel>"
    scheduled_ns: Optional[int] = None
    seq: Optional[int] = None     # heap tie-break sequence number

    def describe(self) -> str:
        sched = (f", scheduled t={self.scheduled_ns} seq={self.seq}"
                 if self.scheduled_ns is not None else ", never scheduled")
        return (f"{self.kind} created t={self.created_ns} "
                f"by {self.created_by}{sched}")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One sanitizer finding: kind, severity, time and processes involved."""

    kind: str          # "ordering-race" | "stranded-process" |
    #                    "leaked-event" | "leaked-resource"
    severity: str      # "error" | "warning"
    time_ns: int
    message: str
    participants: Tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        who = f" [{', '.join(self.participants)}]" if self.participants \
            else ""
        return (f"[sim-sanitizer] {self.kind} ({self.severity}) "
                f"t={self.time_ns}: {self.message}{who}")


class Sanitizer:
    """Diagnostic recorder attached to a :class:`Simulator`.

    All hooks are no-ops on simulated time: the sanitizer never creates
    events, so enabling it cannot change a timeline — only observe it.
    """

    # kinds that count as errors for raise_if_findings()/strict mode
    ERROR_KINDS = ("stranded-process", "leaked-event", "leaked-resource")

    def __init__(self, sim: "Any", strict: bool = False):
        self.sim = sim
        self.strict = strict
        self.diagnostics: List[Diagnostic] = []
        self._provenance: "weakref.WeakKeyDictionary[Any, EventProvenance]" \
            = weakref.WeakKeyDictionary()
        self._events: "weakref.WeakSet[Any]" = weakref.WeakSet()
        # events created *by* daemon processes: their perpetual-server
        # wait events are not leaks
        self._daemon_events: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._processes: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._proc_order: List["weakref.ref[Any]"] = []  # creation order
        self._sync_objs: "weakref.WeakSet[Any]" = weakref.WeakSet()
        # same-timestamp contention bucket: sync object -> list of
        # (actor-name, actor-identity, immediate).  Keyed by the object
        # itself (identity hash), not id(): addresses must never leak
        # into anything that could order output (simlint SIM010).
        self._bucket_time: int = -1
        self._bucket: Dict[Any, List[Tuple[str, Any, bool]]] = {}
        self._sync_names: "weakref.WeakKeyDictionary[Any, str]" = \
            weakref.WeakKeyDictionary()
        self.races_found = 0
        self._finished = False

    # -- engine hooks ------------------------------------------------------

    def note_event_created(self, event: Any) -> None:
        self._events.add(event)
        if self._actor_is_daemon():
            self._daemon_events.add(event)
        self._provenance[event] = EventProvenance(
            kind=type(event).__name__,
            created_ns=self.sim.now,
            created_by=self._actor_name(),
        )

    def note_process_created(self, proc: Any) -> None:
        self._processes.add(proc)
        self._proc_order.append(weakref.ref(proc))

    def note_scheduled(self, event: Any, when: int, seq: int) -> None:
        prov = self._provenance.get(event)
        if prov is None:
            prov = EventProvenance(kind=type(event).__name__,
                                   created_ns=self.sim.now,
                                   created_by=self._actor_name())
        self._provenance[event] = EventProvenance(
            kind=prov.kind, created_ns=prov.created_ns,
            created_by=prov.created_by, scheduled_ns=when, seq=seq)

    # -- resource hooks (called from repro.sim.resources / cpu) ------------

    def register_sync(self, obj: Any, name: str = "") -> None:
        self._sync_objs.add(obj)
        if name:
            self._sync_names[obj] = name

    def note_sync_op(self, obj: Any, op: str, immediate: bool) -> None:
        if self._actor_is_daemon():
            # a daemon declares its scheduling order immaterial
            # (interchangeable servers draining a shared work queue)
            return
        now = self.sim.now
        if now != self._bucket_time:
            self._flush_bucket()
            self._bucket_time = now
        self._sync_names.setdefault(obj, _describe_obj(obj))
        self._bucket.setdefault(obj, []).append(
            (self._actor_name(), self._actor(), immediate))

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> None:
        """End-of-run analysis; called by Simulator.run() on return."""
        if self._finished:
            return
        self._flush_bucket()
        if not self.sim.pending_events:   # only a drained queue proves leaks
            self._check_stranded()
            self._check_leaked_events()
            self._check_leaked_resources()
            self._finished = True
        if self.strict:
            self.raise_if_findings()

    def provenance(self, event: Any) -> Optional[EventProvenance]:
        return self._provenance.get(event)

    def findings(self, kind: Optional[str] = None) -> List[Diagnostic]:
        if kind is None:
            return list(self.diagnostics)
        return [d for d in self.diagnostics if d.kind == kind]

    def report(self) -> str:
        if not self.diagnostics:
            return "[sim-sanitizer] clean: no findings"
        return "\n".join(str(d) for d in self.diagnostics)

    def raise_if_findings(self, kinds: Tuple[str, ...] = ERROR_KINDS) -> None:
        bad = [d for d in self.diagnostics if d.kind in kinds]
        if bad:
            raise SanitizerError(
                f"{len(bad)} sanitizer finding(s):\n"
                + "\n".join(str(d) for d in bad))

    # -- internals ---------------------------------------------------------

    def _actor_name(self) -> str:
        proc = getattr(self.sim, "_active_process", None)
        return proc.name if proc is not None else "<toplevel>"

    def _actor(self) -> Any:
        return getattr(self.sim, "_active_process", None)

    def _actor_is_daemon(self) -> bool:
        proc = getattr(self.sim, "_active_process", None)
        return proc is not None and getattr(proc, "daemon", False)

    def _flush_bucket(self) -> None:
        for obj, ops in self._bucket.items():
            actors = {aid for _, aid, _ in ops}
            contended = any(not immediate for _, _, immediate in ops)
            if len(actors) >= 2 and contended:
                names = tuple(sorted({name for name, _, _ in ops}))
                self.races_found += 1
                self.diagnostics.append(Diagnostic(
                    kind="ordering-race",
                    severity="warning",
                    time_ns=self._bucket_time,
                    message=(
                        f"{len(actors)} processes contended for "
                        f"{self._sync_names.get(obj, 'sync object')} at "
                        f"the same timestamp; the grant order is decided "
                        f"by the scheduler's tie-break sequence, not by "
                        f"modelled behaviour"),
                    participants=names))
        self._bucket.clear()

    def _check_stranded(self) -> None:
        for ref in self._proc_order:     # creation order: deterministic
            proc = ref()
            if proc is None or proc.triggered or proc.daemon:
                continue
            waiting = getattr(proc, "_waiting_on", None)
            detail = ""
            if waiting is not None:
                prov = self._provenance.get(waiting)
                detail = (f"; waiting on {prov.describe()}" if prov
                          else "; waiting on an un-triggered event")
            self.diagnostics.append(Diagnostic(
                kind="stranded-process",
                severity="error",
                time_ns=self.sim.now,
                message=(f"process {proc.name!r} never finished"
                         f"{detail}"),
                participants=(proc.name,)))

    def _check_leaked_events(self) -> None:
        leaked = []
        for ev in self._events:
            if ev.triggered or not ev.callbacks:
                continue
            if ev in self._processes:
                continue       # reported as stranded-process above
            if ev in self._daemon_events:
                continue       # a perpetual server's wait is not a leak
            prov = self._provenance.get(ev)
            leaked.append(prov.describe() if prov else type(ev).__name__)
        for desc in sorted(leaked):
            self.diagnostics.append(Diagnostic(
                kind="leaked-event",
                severity="error",
                time_ns=self.sim.now,
                message=(f"un-triggered event with registered callbacks "
                         f"at end of run: {desc}")))

    def _check_leaked_resources(self) -> None:
        leaks = []

        def count(evs):   # parked waiters, minus the daemons'
            return sum(1 for ev in evs if ev not in self._daemon_events)

        for obj in self._sync_objs:
            desc = _end_state_leak(obj, count)
            if desc:
                leaks.append(
                    f"{self._sync_names.get(obj, _describe_obj(obj))}"
                    f": {desc}")
        for msg in sorted(leaks):
            self.diagnostics.append(Diagnostic(
                kind="leaked-resource",
                severity="error",
                time_ns=self.sim.now,
                message=msg))


def _describe_obj(obj: Any) -> str:
    return type(obj).__name__


def _count_all(waiters: Any) -> int:
    return sum(1 for _ in waiters)


def _end_state_leak(obj: Any, count=_count_all) -> Optional[str]:
    """Describe how ``obj`` is leaked at end of run, or None if clean.

    ``count`` counts the *reportable* events in a wait queue (the
    sanitizer passes one that skips daemon processes' waits).
    """
    cls = type(obj).__name__
    users = getattr(obj, "users", None)
    if users is not None:                      # Resource / CPU pool
        parts = []
        if users > 0:
            parts.append(f"{users}/{obj.capacity} units never released")
        parked = count(obj._waiters)
        if parked:
            parts.append(f"{parked} waiter(s) parked forever")
        return "; ".join(parts) or None
    if hasattr(obj, "waiting") and hasattr(obj, "value"):   # Semaphore
        parts = []
        initial = getattr(obj, "_sanitizer_initial", None)
        parked = count(obj._waiters)
        if parked:
            parts.append(f"{parked} waiter(s) parked forever")
        if initial is not None and obj.value < initial:
            parts.append(
                f"{initial - obj.value} unit(s) still held "
                f"({cls} never released)")
        return "; ".join(parts) or None
    if hasattr(obj, "_getters"):                # Store
        parts = []
        getters = count(obj._getters)
        putters = count(ev for ev, _ in obj._putters)
        if getters:
            parts.append(f"{getters} getter(s) parked forever")
        if putters:
            parts.append(f"{putters} putter(s) parked forever")
        return "; ".join(parts) or None
    return None
