"""Discrete-event simulation substrate (engine, resources, CPUs, stats).

The package re-exports only what every run loads.  The optional parts
are imported by their full names where they are switched on:
:mod:`repro.sim.sanitizer` (``Simulator(sanitize=True)``) and the span
recorder :mod:`repro.sim.spans` (``Machine(trace=True)``).
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Lock, Resource, Semaphore, Store
from .cpu import CPUSet, Thread
from .trace import NULL_TRACER, NullTracer
from .stats import (
    LatencyRecorder,
    ThroughputCounter,
    TimeSeries,
    percentile,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Lock",
    "Resource",
    "Semaphore",
    "Store",
    "CPUSet",
    "Thread",
    "LatencyRecorder",
    "ThroughputCounter",
    "TimeSeries",
    "percentile",
    "NULL_TRACER",
    "NullTracer",
]
