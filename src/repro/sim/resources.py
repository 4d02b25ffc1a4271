"""Synchronisation and queueing primitives on top of the event engine.

These mirror the primitives the modelled systems need: mutual exclusion
(`Lock`), counted capacity (`Semaphore`, `Resource`), and producer/
consumer queues (`Store`).  All are strictly FIFO, which keeps the
models deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .engine import Event, Simulator

__all__ = ["Lock", "Semaphore", "Resource", "Store"]


class Semaphore:
    """A counted semaphore with FIFO wakeup."""

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self.sim = sim
        self._value = value
        self._sanitizer_initial = value
        self._waiters: Deque[Event] = deque()
        if sim._san is not None:
            sim._san.register_sync(self)

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is held."""
        ev = self.sim.event()
        immediate = self._value > 0 and not self._waiters
        if immediate:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        if self.sim._san is not None:
            self.sim._san.note_sync_op(self, "acquire", immediate)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class Lock(Semaphore):
    """A mutex: semaphore with capacity one."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, value=1)

    @property
    def locked(self) -> bool:
        return self._value == 0


class Resource:
    """A pool of ``capacity`` interchangeable slots with FIFO queuing.

    Unlike :class:`Semaphore` it tracks the number of users, which the
    CPU model uses to report utilisation.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users = 0
        self._waiters: Deque[Event] = deque()
        if sim._san is not None:
            sim._san.register_sync(self)

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        ev = self.sim.event()
        immediate = self.users < self.capacity and not self._waiters
        if immediate:
            self.users += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        if self.sim._san is not None:
            self.sim._san.note_sync_op(self, "request", immediate)
        return ev

    def release(self) -> None:
        if self.users <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.users -= 1


class Store:
    """An unbounded (or bounded) FIFO queue of items.

    ``put`` never blocks for unbounded stores; ``get`` returns an event
    that triggers with the next item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()
        if sim._san is not None:
            sim._san.register_sync(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        return list(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        immediate = True
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
            immediate = False
        if self.sim._san is not None:
            self.sim._san.note_sync_op(self, "put", immediate)
        return ev

    def get(self) -> Event:
        ev = self.sim.event()
        immediate = bool(self._items)
        if immediate:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()
        else:
            self._getters.append(ev)
        if self.sim._san is not None:
            self.sim._san.note_sync_op(self, "get", immediate)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: the next item, or None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            put_ev, queued = self._putters.popleft()
            self._items.append(queued)
            put_ev.succeed()
        return item
