"""Span recording: where did each nanosecond of an operation go?

A :class:`Tracer` records hierarchical spans against simulated time;
``Machine(trace=True)`` installs one in place of
:data:`repro.sim.trace.NULL_TRACER`, and the models call it through
the same methods.  :mod:`repro.obs.attribution` folds each operation's
span tree into the user/kernel/device breakdowns of Table 1 and
Figure 7, *measured* rather than recomputed from constants.  Nested
spans overlap, so a plain sum of span durations counts the same
nanosecond more than once; the fold charges every nanosecond to
exactly one side.

Spans form trees.  Every span carries

* ``span_id`` — unique within the tracer, also the ``begin()`` token;
* ``parent_id`` — the enclosing span's id, or 0 for a root;
* ``trace_id`` — the id of the root span of its tree, so all spans of
  one logical operation (a ``pread``, an ``fsync``) share one value;
* ``tid`` — the :class:`~repro.sim.cpu.Thread` that opened it (or -1
  for spans opened outside any thread, e.g. inside the device model);
* ``attrs`` — optional ``(key, value)`` pairs.

Parenting is automatic for host-side code: ``begin(..., thread=th)``
nests the new span under the thread's innermost open span.  The device
model runs in daemon processes with no thread context, so host layers
*stamp* the in-flight :class:`~repro.nvme.spec.Command` with their
current ``(trace_id, span_id)`` via :meth:`Tracer.stamp`; the device
then passes ``parent=cmd.trace`` to parent its media/transfer phases
under the host's wait span.

This module is loaded only by runs that trace: a plain run never pays
for it (``tests/test_imports.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from .trace import WAIT_PREFIX

__all__ = ["Span", "TraceError", "Tracer"]


class TraceError(ValueError):
    """Raised for malformed spans (e.g. a span that ends before it
    starts) at :meth:`Tracer.end`/:meth:`Tracer.record` time, with the
    operation's trace id in the message."""


@dataclass(frozen=True, slots=True)
class Span:
    """One closed span: ``[start_ns, end_ns)`` of one phase of an
    operation, placed in its tree by ``span_id``/``parent_id``/
    ``trace_id``."""

    category: str     # "op" | "syscall" | "kernel" | "device" | "nvme" | ...
    label: str
    start_ns: int
    end_ns: int
    span_id: int = 0
    parent_id: int = 0
    trace_id: int = 0
    tid: int = -1
    attrs: Tuple[Tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def is_root(self) -> bool:
        return self.parent_id == 0


class _OpenSpan:
    """Mutable record of a begun-but-not-ended span."""

    __slots__ = ("category", "label", "start_ns", "span_id", "parent_id",
                 "trace_id", "tid", "attrs", "stack_key", "waits")

    def __init__(self, category, label, start_ns, span_id, parent_id,
                 trace_id, tid, attrs, stack_key):
        self.category = category
        self.label = label
        self.start_ns = start_ns
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.tid = tid
        self.attrs = attrs
        self.stack_key = stack_key
        self.waits = None        # lazily a {kind: ns} dict


class Tracer:
    """Collects hierarchical spans against a simulator clock."""

    enabled = True

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        self._open: Dict[int, _OpenSpan] = {}
        # Per-thread stacks of open spans, keyed by Thread.tid (a
        # deterministic identity — see simlint SIM010).
        self._stacks: Dict[int, List[_OpenSpan]] = {}
        self._next_id = 1

    # -- context resolution --------------------------------------------------

    def current(self, thread=None) -> Optional[Tuple[int, int]]:
        """The innermost open ``(trace_id, span_id)`` on ``thread``."""
        if thread is None:
            return None
        stack = self._stacks.get(thread.tid)
        if not stack:
            return None
        top = stack[-1]
        return (top.trace_id, top.span_id)

    def stamp(self, cmd, *, thread=None, parent=None) -> None:
        """Attach the current trace context to an NVMe command so the
        device can parent its phase spans under the host's wait span."""
        ctx = parent if parent is not None else self.current(thread)
        if ctx is not None:
            cmd.trace = ctx

    def add_wait(self, kind: str, ns: int, *, thread=None,
                 token=None) -> None:
        """Accumulate ``ns`` of wait time of ``kind`` onto an open span.

        The target is the span for ``token`` if given, else the
        innermost open span on ``thread``.  Waits surface as
        ``("wait.<kind>", ns)`` attrs when the span ends; stamping is
        observer-side only — it never touches simulated time, and a
        missing target is silently ignored (instrumentation points may
        run before any span is open, e.g. untraced warm-up paths)."""
        if ns <= 0:
            return
        rec: Optional[_OpenSpan] = None
        if token is not None:
            rec = self._open.get(token)
        elif thread is not None:
            stack = self._stacks.get(thread.tid)
            if stack:
                rec = stack[-1]
        if rec is None:
            return
        if rec.waits is None:
            rec.waits = {}
        rec.waits[kind] = rec.waits.get(kind, 0) + int(ns)

    def _resolve(self, span_id: int, thread, parent) -> Tuple[int, int, int]:
        """Return (parent_id, trace_id, tid) for a new span."""
        tid = thread.tid if thread is not None else -1
        if parent is not None:
            trace_id, parent_id = parent
            return parent_id, trace_id, tid
        if thread is not None:
            stack = self._stacks.get(tid)
            if stack:
                top = stack[-1]
                return top.span_id, top.trace_id, tid
        return 0, span_id, tid

    # -- recording -----------------------------------------------------------

    def record(self, category: str, label: str, start_ns: int,
               end_ns: int, *, thread=None, parent=None,
               attrs=None) -> None:
        """Record a closed span with explicit ``[start_ns, end_ns)``
        bounds, parented like :meth:`begin`; :func:`charge_phases`
        traces each phase of a fused run this way."""
        span_id = self._next_id
        self._next_id += 1
        parent_id, trace_id, tid = self._resolve(span_id, thread, parent)
        if end_ns < start_ns:
            raise TraceError(
                f"span {category}/{label} (trace {trace_id}) ends before "
                f"it starts: end_ns={end_ns} < start_ns={start_ns}"
            )
        self.spans.append(Span(category, label, start_ns, end_ns,
                               span_id, parent_id, trace_id, tid,
                               tuple(attrs) if attrs else ()))

    def begin(self, category: str, label: str = "", *,
              thread=None, parent=None, attrs=None) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent_id, trace_id, tid = self._resolve(span_id, thread, parent)
        rec = _OpenSpan(category, label, self.sim.now, span_id,
                        parent_id, trace_id, tid,
                        tuple(attrs) if attrs else (),
                        tid if thread is not None else None)
        self._open[span_id] = rec
        if rec.stack_key is not None:
            self._stacks.setdefault(rec.stack_key, []).append(rec)
        return span_id

    def end(self, token: int) -> None:
        rec = self._open.pop(token, None)
        if rec is None:
            raise TraceError(f"end() of unknown span token {token}")
        if rec.stack_key is not None:
            stack = self._stacks.get(rec.stack_key)
            if stack is not None:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is rec:
                        del stack[i]
                        break
        end_ns = self.sim.now
        if end_ns < rec.start_ns:
            raise TraceError(
                f"span {rec.category}/{rec.label} (trace {rec.trace_id}) "
                f"ends before it starts: end_ns={end_ns} < "
                f"start_ns={rec.start_ns}"
            )
        attrs = rec.attrs
        if rec.waits:
            attrs = attrs + tuple(
                (WAIT_PREFIX + kind, ns)
                for kind, ns in sorted(rec.waits.items()))
        self.spans.append(Span(rec.category, rec.label, rec.start_ns,
                               end_ns, rec.span_id, rec.parent_id,
                               rec.trace_id, rec.tid, attrs))

    def wrap(self, category: str, label: str, body: Generator, *,
             thread=None) -> Generator:
        """Run the model generator ``body`` inside a span:
        ``return (yield from tracer.wrap("op", "pread", gen, thread=t))``."""
        token = self.begin(category, label, thread=thread)
        try:
            return (yield from body)
        finally:
            self.end(token)

    @contextmanager
    def span(self, category: str, label: str = "", *,
             thread=None, parent=None, attrs=None) -> Iterator[None]:
        """For code that cannot yield between begin and end.  Model
        generators should use begin()/end() around their yields."""
        token = self.begin(category, label, thread=thread, parent=parent,
                           attrs=attrs)
        try:
            yield
        finally:
            self.end(token)

    def clear(self) -> None:
        """Drop recorded spans (open spans keep accumulating)."""
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)
