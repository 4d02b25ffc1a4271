"""Discrete-event simulation engine (hot-path overhauled).

The whole reproduction runs on simulated time measured in integer
nanoseconds.  Model code is written as generator *processes* that yield
:class:`Event` objects; the :class:`Simulator` advances virtual time by
draining scheduled events in exact ``(time, seq)`` order.

The design follows the classic SimPy structure but is self-contained
(no third-party dependency).  Since the engine executes once per
simulated event it is the wall-clock bottleneck of every experiment,
so the scheduler is organised around four hot-path ideas (see
``docs/engine_performance.md`` for the full design):

- **bucketed near/far event queue** — a calendar-style ring of
  1024 ns buckets covers the near horizon; an append-only FIFO holds
  the (very common) events posted *at the current instant*; a plain
  heap catches far timers.  Pop order is still exactly ``(time, seq)``
  — the differential harness (``tests/sim/test_engine_diff.py``)
  proves timelines byte-identical against the pre-overhaul single-heap
  engine kept in :mod:`repro.sim.engine_reference`.
- **event/timeout freelists** — processed events that nobody else
  references (checked by refcount) are recycled, so steady-state runs
  allocate near-zero events.  Pooling is disabled under
  ``sanitize=True`` so per-event provenance stays exact.
- **inline fast paths** — with no sanitizer and no observer processes
  attached, ``run()`` drains in ``_run_fast`` and the two commonest
  posts, ``Simulator.timeout`` and ``Event.succeed``, bump ``_seq`` and
  file the event themselves, one ``_instrumented`` test away from the
  instrumented ``_post_slow``; creating a sanitizer or an observer
  process switches the simulator (even mid-run) to the instrumented
  loop.
- **one-call process dispatch** — ``Process._resume`` is a process's
  wait callback and does the whole resumption: it drives the generator
  through cached ``gen.send``/``gen.throw`` bound methods, duck-types
  the yielded event and registers itself on it; ``AllOf``/``AnyOf``
  accumulate results incrementally instead of rescanning their event
  list, and detach their callbacks from losing events when they
  trigger.

Set ``REPRO_ENGINE=reference`` in the environment to swap in the
frozen pre-overhaul engine for differential testing.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, List,
                    Optional)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "Simulator",
]

# Calendar ring geometry: 2**_W_SHIFT ns per bucket, _N_BUCKETS slots.
# The near horizon is _N_BUCKETS << _W_SHIFT = 262,144 ns — wide enough
# for every device service time in hw/params.py; millisecond timers
# (watchdogs, journal commit intervals) overflow into the far heap.
_W_SHIFT = 10
_N_BUCKETS = 256
_B_MASK = _N_BUCKETS - 1

# Freelist bound: recycling beyond this keeps no more memory live than
# the run's own peak, but a cap makes the worst case explicit.
_POOL_CAP = 4096


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Carries an arbitrary ``cause`` describing why the process was
    interrupted (e.g. access revocation racing an in-flight I/O).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event is *triggered* once `succeed` or `fail` is called; the
    simulator then runs its callbacks (resuming any waiting processes)
    at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered",
                 "_defused", "_observer", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._defused = False
        self._observer = False
        if sim._san is not None:
            sim._san.note_event_created(self)

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if sim._instrumented:
            sim._post_slow(self)
        else:
            # Simulator._post_fast inlined: the commonest post of a run.
            sim._seq += 1
            sim._count += 1
            sim._imm.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            fn(self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = int(delay)
        self._triggered = True
        self._value = value
        sim._post(self, delay=self.delay)


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """An event representing a running generator.

    The process triggers (with the generator's return value) when the
    generator finishes, or fails with the escaping exception.

    A process waits by registering its ``_resume`` bound method on the
    event it yielded; ``_resume`` runs the generator to its next yield
    and registers again, so a resumption is one call.
    """

    __slots__ = ("gen", "name", "daemon", "observer", "_waiting_on",
                 "_send", "_throw")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "",
                 daemon: bool = False, observer: bool = False):
        try:
            # Cached bound methods: _resume drives the generator once
            # per resumption, so the attribute lookups are per-event cost.
            self._send = gen.send
            self._throw = gen.throw
        except AttributeError:
            raise SimulationError(
                f"process target must be a generator, got {gen!r}") from None
        # Event.__init__, inlined.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._defused = False
        self._observer = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Daemon processes are perpetual servers (device channels,
        # poller threads): the sanitizer exempts them from stranded/
        # leak verdicts and treats their scheduling order as immaterial.
        self.daemon = daemon
        # Observer processes (telemetry samplers) may only read model
        # state and yield timeouts: every event they schedule is tagged,
        # and `run()` stops once *only* observer events remain, so a
        # periodic sampler neither deadlocks the run nor extends it.
        self.observer = observer
        self._waiting_on: Optional[Event] = None
        if sim._san is not None:
            sim._san.note_event_created(self)
            sim._san.note_process_created(self)
        # Bootstrap: a triggered event whose one callback resumes this
        # process, so the generator starts at the current instant.
        pool = sim._pool_ev
        bootstrap = pool.pop() if pool else Event(sim)
        bootstrap.callbacks.append(self._resume)
        if observer:
            if not sim._instrumented:
                sim._switch_to_instrumented()
            bootstrap._observer = True
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._detach()
        # The cause rides in the poke event's value; delivery happens in
        # _deliver_interrupt when the poke is processed.  If the process
        # finishes before then, the poke is inert (and recyclable) —
        # the pre-overhaul engine instead left whatever wait the
        # process had started in the meantime with a stale _resume
        # callback registered (see tests/sim/test_engine_fixes.py).
        poke = self.sim.event()
        poke.callbacks.append(self._deliver_interrupt)
        poke.succeed(cause)

    # -- internal ---------------------------------------------------------

    def _detach(self) -> None:
        """Stop waiting: unregister from the event this process yielded."""
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None

    def _deliver_interrupt(self, poke: Event) -> None:
        if self._triggered:
            return      # finished in the same tick: nothing to deliver
        # The process may have started a *new* wait between the
        # interrupt() call and this delivery; detach from it so the
        # target cannot step a process that already saw the Interrupt.
        self._detach()
        # Resume on the poke as a failed event: _resume throws the
        # Interrupt into the generator and marks the poke defused.
        poke._exc = Interrupt(poke._value)
        self._resume(poke)

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome, then register
        on whatever it yields next (or finish the process)."""
        self._waiting_on = None
        exc = event._exc
        if exc is not None:
            event._defused = True
        if self._triggered:
            return
        sim = self.sim
        sim._active_process = self
        try:
            if exc is None:
                target = self._send(event._value)
            else:
                target = self._throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            sim._active_process = None
            return
        except BaseException as err:
            self.fail(err)
            sim._active_process = None
            return
        sim._active_process = None
        try:
            target_sim = target.sim
            cbs = target.callbacks
        except AttributeError:
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        if target_sim is not sim:
            self.fail(SimulationError("event belongs to a different simulator"))
            return
        self._waiting_on = target
        if cbs is None:
            # Already processed: resume immediately at the current time.
            self._resume(target)
        else:
            cbs.append(self._resume)


class Condition(Event):
    """Base for composite events over several sub-events.

    Results accumulate incrementally as sub-events complete (no rescan
    of ``events`` on completion); the value handed to ``succeed`` is
    identical to the pre-overhaul ``_collect()`` snapshot: successful
    *processed* sub-events keyed by their position, in index order.
    """

    __slots__ = ("events", "_pending", "_results", "_indices")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        self._results: Dict[int, Any] = {}
        self._indices: Dict[Event, List[int]] = {}
        if not self.events:
            self.succeed({})
            return
        for i, ev in enumerate(self.events):
            if ev.callbacks is None and ev._exc is None:
                # Processed before this condition existed: it counts
                # toward the snapshot even though its _check below may
                # trigger the condition before later registrations run.
                self._results[i] = ev._value
            self._indices.setdefault(ev, []).append(i)
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _snapshot(self) -> dict:
        results = self._results
        return {i: results[i] for i in sorted(results)}

    def _detach(self) -> None:
        """Remove our _check from sub-events that have not fired yet.

        Without this, a decided condition leaves dead callbacks
        registered on losing events — the sanitizer then reports those
        events as leaked even though nothing waits on them.
        """
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass


class AllOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        exc = event._exc
        if exc is not None:
            event._defused = True
            self._detach()
            self.fail(exc)
            return
        value = event._value
        for i in self._indices.pop(event, ()):
            self._results[i] = value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._snapshot())


class AnyOf(Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        exc = event._exc
        if exc is not None:
            event._defused = True
            self._detach()
            self.fail(exc)
            return
        value = event._value
        for i in self._indices.pop(event, ()):
            self._results[i] = value
        self._detach()
        self.succeed(self._snapshot())


class Simulator:
    """The event loop: a bucketed near/far queue of (time, seq, event).

    Scheduled events live in one of four places, all popped in exact
    ``(time, seq)`` order:

    - ``_imm`` — an append-only FIFO of events posted at the *current*
      instant (``delay == 0``).  Sequence numbers increase with
      insertion, and nothing earlier at the same timestamp can still be
      outside the drain loop, so FIFO order is (time, seq) order.
    - ``_cur`` — a small heap holding the current calendar bucket.
    - ``_buckets`` — the calendar ring: events within the near horizon
      (``_N_BUCKETS << _W_SHIFT`` ns), appended unsorted and heapified
      only when their bucket becomes current.  ``_bucket_heap`` tracks
      which absolute buckets are populated, so advancing never scans
      empty slots.
    - ``_far`` — a plain heap for timers beyond the horizon; entries
      migrate into the ring as the horizon reaches them.

    ``sanitize=True`` attaches a :class:`repro.sim.sanitizer.Sanitizer`
    that records event provenance and reports ordering races, stranded
    processes, and leaked events/resources at the end of a run (see
    ``docs/static_analysis.md``).  ``strict_sanitize=True`` additionally
    raises :class:`repro.sim.sanitizer.SanitizerError` from :meth:`run`
    when leak-class findings exist.  With sanitize off (the default)
    and no observer processes attached, ``run()`` and every post use
    fast paths with no instrumentation checks beyond one
    ``_instrumented`` test; timelines are byte-identical either way.

    ``pooling`` controls the event freelists (default: on exactly when
    the sanitizer is off).  Recycled events are only ever ones with no
    outside references, so pooling is invisible to model code.
    """

    def __init__(self, sanitize: bool = False,
                 strict_sanitize: bool = False,
                 pooling: Optional[bool] = None):
        self.now: int = 0
        self._seq = 0
        self._count = 0              # queued events, all structures
        self._obs_count = 0          # queued observer events
        # current-instant FIFO: events posted at self.now, in seq order
        self._imm: Deque[Event] = deque()
        # calendar ring + current bucket
        self._cur: List = []         # heap: this bucket's entries
        self._cur_abs = 0            # absolute bucket number of _cur
        self._buckets: List[List] = [[] for _ in range(_N_BUCKETS)]
        self._bucket_heap: List[int] = []   # populated absolute buckets
        self._far: List = []         # heap: beyond the near horizon
        self._active_process: Optional[Process] = None
        self._san = None
        self._instrumented = False
        if sanitize or strict_sanitize:
            from .sanitizer import Sanitizer
            self._san = Sanitizer(self, strict=strict_sanitize)
        if pooling is None:
            pooling = self._san is None
        self._pooling = bool(pooling)
        self._pool_ev: List[Event] = []
        self._pool_to: List[Timeout] = []
        # Pre-bound scheduling path; _switch_to_instrumented swaps it.
        self._post = self._post_fast
        if self._san is not None:
            self._switch_to_instrumented()

    @property
    def sanitizer(self):
        """The attached Sanitizer, or None when sanitize is off."""
        return self._san

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        pool = self._pool_ev
        if pool:
            return pool.pop()
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        pool = self._pool_to
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            to = pool.pop()
            to.delay = d = int(delay)
            to._value = value
            to._triggered = True
            if self._instrumented:
                self._post_slow(to, d)
                return to
            # _post_fast inlined: one call less on every pooled timeout.
            self._seq = seq = self._seq + 1
            self._count += 1
            if d:
                self._place(self.now + d, seq, to)
            else:
                self._imm.append(to)
            return to
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "",
                daemon: bool = False, observer: bool = False) -> Process:
        return Process(self, gen, name=name, daemon=daemon,
                       observer=observer)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _switch_to_instrumented(self) -> None:
        """Swap in the instrumented post path (sanitizer/observers).

        ``timeout`` and ``succeed`` test ``_instrumented`` on every
        post, and a running fast loop notices it on its next iteration
        and defers to the instrumented loop, so the switch is safe
        mid-run.
        """
        self._instrumented = True
        self._post = self._post_slow

    def _post_fast(self, event: Event, delay: int = 0) -> None:
        self._seq = seq = self._seq + 1
        self._count += 1
        if delay == 0:
            self._imm.append(event)
            return
        self._place(self.now + delay, seq, event)

    def _post_slow(self, event: Event, delay: int = 0) -> None:
        self._seq = seq = self._seq + 1
        self._count += 1
        active = self._active_process
        if active is not None and active.observer:
            event._observer = True
        if event._observer:
            self._obs_count += 1
        when = self.now + delay
        if delay == 0:
            self._imm.append(event)
        else:
            self._place(when, seq, event)
        if self._san is not None:
            self._san.note_scheduled(event, when, seq)

    def _place(self, t: int, seq: int, event: Event) -> None:
        """File a future entry into the current bucket, ring, or far heap."""
        ab = t >> _W_SHIFT
        cur_abs = self._cur_abs
        if ab <= cur_abs:
            # Current bucket — or earlier, which only happens after an
            # `until` stop parked the clock below the rotated bucket;
            # the heap keeps (time, seq) order either way.
            heappush(self._cur, (t, seq, event))
        elif ab < cur_abs + _N_BUCKETS:
            slot = self._buckets[ab & _B_MASK]
            if not slot:
                heappush(self._bucket_heap, ab)
            slot.append((t, seq, event))
        else:
            heappush(self._far, (t, seq, event))

    def _advance(self) -> int:
        """Rotate to the next populated bucket; return its first time.

        Only called when ``_imm`` is drained and ``_cur`` is empty but
        events remain, so there is always a next bucket — either the
        smallest populated ring slot or the far heap's bucket,
        whichever starts sooner (far entries for that bucket migrate
        into ``_cur`` so ties resolve by seq).
        """
        far = self._far
        bh = self._bucket_heap
        if bh and (not far or bh[0] <= far[0][0] >> _W_SHIFT):
            ab = heappop(bh)
            slot_i = ab & _B_MASK
            cur = self._buckets[slot_i]
            self._buckets[slot_i] = self._cur     # recycle the empty list
        else:
            ab = far[0][0] >> _W_SHIFT
            cur = self._cur
        while far and far[0][0] >> _W_SHIFT == ab:
            cur.append(heappop(far))
        self._cur_abs = ab
        heapify(cur)
        self._cur = cur
        return cur[0][0]

    # -- the event loop ----------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drain the queue; stop once simulated time would pass ``until``.

        Stops early when only *observer* events remain (see
        :class:`Process`): a periodic telemetry sampler keeps ticking
        while model events are pending but never keeps the run alive on
        its own, so with monitoring attached a run ends at the exact
        same simulated instant as without it.

        Returns the simulation time when the run stopped.  A horizon
        in the past raises :class:`SimulationError` and leaves the clock
        and the queue untouched: time never runs backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is in the past: now={self.now}")
        if self._instrumented:
            return self._run_slow(until)
        return self._run_fast(until)

    def _run_fast(self, until: Optional[int]) -> int:
        """The no-sanitizer/no-observer drain loop."""
        pooling = self._pooling
        pool_to, pool_ev = self._pool_to, self._pool_ev
        imm = self._imm
        while self._count:
            if self._instrumented:
                # An observer process appeared mid-run.
                return self._run_slow(until)
            cur = self._cur
            if cur and cur[0][0] == self.now:
                event = heappop(cur)[2]
            elif imm:
                event = imm.popleft()
            else:
                when = cur[0][0] if cur else self._advance()
                if until is not None and when > until:
                    self.now = until
                    return until
                self.now = when
                continue
            self._count -= 1
            callbacks = event.callbacks
            event.callbacks = None
            for fn in callbacks:
                fn(event)
            if event._exc is not None and not event._defused:
                raise event._exc
            if pooling and getrefcount(event) == 2:
                cls = event.__class__
                if cls is Timeout:
                    # A timeout never fails, so _exc and _defused are
                    # still clear, and _triggered is set again on reuse.
                    if len(pool_to) < _POOL_CAP:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = None
                        pool_to.append(event)
                elif cls is Event and len(pool_ev) < _POOL_CAP:
                    # _observer is only ever set on the instrumented path.
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._exc = None
                    event._triggered = False
                    event._defused = False
                    pool_ev.append(event)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_slow(self, until: Optional[int]) -> int:
        """The instrumented drain loop (sanitizer and/or observers)."""
        pooling = self._pooling
        while self._count:
            if self._obs_count >= self._count and until is None:
                # Only sampler wake-ups left: the model is quiescent.
                break
            cur = self._cur
            if cur and cur[0][0] == self.now:
                event = heappop(cur)[2]
            elif self._imm:
                event = self._imm.popleft()
            else:
                when = cur[0][0] if cur else self._advance()
                if until is not None and when > until:
                    self.now = until
                    if self._san is not None:
                        self._san.finish()
                    return self.now
                self.now = when
                continue
            self._count -= 1
            if event._observer:
                self._obs_count -= 1
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)
            if event._exc is not None and not event._defused:
                raise event._exc
            if pooling and getrefcount(event) == 2:
                cls = event.__class__
                if cls is Timeout:
                    pool = self._pool_to
                elif cls is Event:
                    pool = self._pool_ev
                else:
                    continue
                if len(pool) < _POOL_CAP:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._exc = None
                    event._triggered = False
                    event._defused = False
                    event._observer = False
                    pool.append(event)
        if until is not None:
            self.now = max(self.now, until)
        if self._san is not None:
            self._san.finish()
        return self.now

    def run_process(self, gen: ProcessGen, until: Optional[int] = None) -> Any:
        """Convenience: spawn ``gen`` and run until it completes."""
        proc = self.process(gen)
        self.run(until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self.now}"
            )
        return proc.value

    @property
    def pending_events(self) -> int:
        return self._count


# Differential-timeline escape hatch: with REPRO_ENGINE=reference in the
# environment, the whole package runs on the frozen pre-overhaul engine
# so tests/sim/test_engine_diff.py can prove both produce byte-identical
# timelines.  Never set this outside the differential harness.
if os.environ.get("REPRO_ENGINE", "") == "reference":   # pragma: no cover
    from .engine_reference import (     # noqa: F401,F811  (deliberate rebind)
        AllOf, AnyOf, Condition, Event, Interrupt, Process,
        SimulationError, Simulator, Timeout,
    )
