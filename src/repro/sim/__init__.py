"""Discrete-event simulation substrate (engine, resources, CPUs, stats)."""

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
from .sanitizer import Diagnostic, EventProvenance, Sanitizer, SanitizerError
from .trace import NULL_TRACER, NullTracer, Span, Tracer
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
    "Span",
    "Tracer",
    "Diagnostic",
    "EventProvenance",
    "Sanitizer",
    "SanitizerError",
]
