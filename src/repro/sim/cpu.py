"""CPU core model.

The evaluation machine in the paper is a 12-core / 24-thread Xeon; the
Figure 9 result (io_uring collapsing past 12 application threads because
its kernel pollers burn whole cores) depends on CPU contention, so model
code must account for where it spends CPU time.

A :class:`Thread` runs *on* a core between blocking points:

- ``yield from thread.compute(ns)`` — occupy a core for ``ns`` of work.
- ``yield from thread.block(event)`` — release the core and sleep until
  the event triggers (kernel-style interrupt-driven wait).
- ``yield from thread.poll(event)`` — busy-poll: keep the core occupied
  until the event triggers (SPDK / BypassD / io_uring-SQPOLL style).

Scheduling is FIFO and non-preemptive, which keeps runs deterministic;
the contention effects the paper reports come from core *occupancy*,
not from time-slicing detail.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from .engine import Event, Simulator
from .resources import Resource

__all__ = ["CPUSet", "Thread"]


class CPUSet:
    """A pool of identical logical CPUs."""

    def __init__(self, sim: Simulator, cores: int):
        if cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.cores = cores
        self._pool = Resource(sim, cores)
        self.busy_ns = 0
        self._next_tid = 0
        if sim._san is not None:
            sim._san.register_sync(self._pool,
                                   name=f"CPUSet({cores} cores)")

    @property
    def in_use(self) -> int:
        return self._pool.users

    @property
    def runnable_waiting(self) -> int:
        return self._pool.queue_len

    def utilization(self, elapsed_ns: int) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / (elapsed_ns * self.cores)

    def thread(self, name: str = "thread") -> "Thread":
        return Thread(self, name)


class Thread:
    """Execution context that accounts for CPU occupancy.

    A thread may hold at most one core.  All methods are generators
    meant to be driven with ``yield from`` inside a simulation process.
    """

    def __init__(self, cpus: CPUSet, name: str = "thread"):
        self.cpus = cpus
        self.sim = cpus.sim
        self.name = name
        # Deterministic identity: creation order on this CPU set.  Model
        # code must key per-thread state by this, never by id(thread) —
        # memory addresses differ across runs (simlint SIM010).
        self.tid = cpus._next_tid
        cpus._next_tid += 1
        self._on_core = False
        self.compute_ns = 0
        self.poll_ns = 0
        self.block_ns = 0
        self.run_queue_ns = 0

    # -- core ownership ----------------------------------------------------

    def _acquire_core(self) -> Iterable[Event]:
        """What to ``yield from`` to be on a core: nothing when the
        core is held (most calls, so no generator is built), else the
        wait for a grant."""
        if self._on_core:
            return ()
        return self._wait_for_core()

    def _wait_for_core(self) -> Generator[Event, Any, None]:
        t0 = self.sim.now
        yield self.cpus._pool.request()
        self.run_queue_ns += self.sim.now - t0
        self._on_core = True

    def release_core(self) -> None:
        if self._on_core:
            self._on_core = False
            self.cpus._pool.release()

    # -- execution ---------------------------------------------------------

    def compute(self, ns: int) -> Generator[Event, Any, None]:
        """Spend ``ns`` of CPU time; the core stays held afterwards."""
        if ns < 0:
            raise ValueError(f"negative compute time: {ns}")
        ns = int(ns)
        if not self._on_core:
            yield from self._wait_for_core()
        if ns:
            yield self.sim.timeout(ns)
        self.compute_ns += ns
        self.cpus.busy_ns += ns

    def block(self, event: Event) -> Generator[Event, Any, Any]:
        """Sleep off-core until ``event`` triggers; resume on a core."""
        self.release_core()
        t0 = self.sim.now
        value = yield event
        # Drop the event before waiting for a core, so the engine can
        # recycle it once its callbacks have run.
        del event
        woke = self.sim.now
        self.block_ns += woke - t0
        if not self._on_core:
            # The re-grant of _wait_for_core, inline: one generator
            # frame fewer on every resume of a blocking I/O path.
            yield self.cpus._pool.request()
            self.run_queue_ns += self.sim.now - woke
            self._on_core = True
        return value

    def poll(self, event: Event) -> Generator[Event, Any, Any]:
        """Busy-wait on-core until ``event`` triggers."""
        if not self._on_core:
            yield from self._wait_for_core()
        t0 = self.sim.now
        value = yield event
        waited = self.sim.now - t0
        self.poll_ns += waited
        self.cpus.busy_ns += waited
        return value

    def poll_leased(self, event: Event, lease_ns: int = 25_000,
                    gap_ns: int = 500) -> Generator[Event, Any, Any]:
        """Busy-poll ``event`` in bounded leases.

        Models a spinning thread under an OS that preempts: the core is
        held for up to ``lease_ns`` at a time with a short off-core gap
        between leases.  Equivalent to :meth:`poll` when uncontended,
        but guarantees system-wide progress when spinners outnumber
        cores (the Figure 9 io_uring regime).
        """
        while True:
            lease = self.sim.timeout(lease_ns)
            yield from self.poll(self.sim.any_of([event, lease]))
            if event.processed:
                return event.value
            self.release_core()
            yield self.sim.timeout(gap_ns)
            if event.processed:
                yield from self._acquire_core()
                return event.value

    def sleep(self, ns: int) -> Generator[Event, Any, None]:
        """Sleep off-core for a fixed duration."""
        self.release_core()
        t0 = self.sim.now
        yield self.sim.timeout(int(ns))
        woke = self.sim.now
        self.block_ns += woke - t0
        if not self._on_core:
            yield self.cpus._pool.request()
            self.run_queue_ns += self.sim.now - woke
            self._on_core = True

    def run(self, gen: Generator) -> Generator[Event, Any, Any]:
        """Drive ``gen`` on this thread, releasing the core at the end.

        Threads keep their core across yields by design (polling paths
        must); wrapping a top-level workload in ``thread.run`` makes
        sure the core is given back when the workload finishes, so
        other threads can be scheduled.
        """
        try:
            result = yield from gen
            return result
        finally:
            self.release_core()
