"""Per-op latency waterfalls: wait/service decomposition of a trace.

A *waterfall* folds one operation's span tree into an ordered list of
segments that partition the op's interval exactly — every nanosecond
of the root span lands in exactly one segment, each labelled with the
layer (``category/label`` of the span that owned it) and a kind:
``service`` for time the layer was doing work, or ``wait.<kind>`` for
time the models stamped as a wait state (see
:data:`repro.sim.trace.WAIT_KINDS` — sq-full stalls, arbiter queueing,
softirq backlog, inode locks, dirty writeback, journal commits, retry
backoff).

**Conservation is enforced by construction**: a span's interval is
split into its children's (clipped, non-overlapping) intervals plus
the self-time gaps between them, recursively, so the segment durations
sum *exactly* to the root's duration.  :meth:`Waterfall.check` asserts
it anyway, and the determinism tests pin it for every op of the
quickstart and two-tenant workloads.

Wait attrs carry totals, not positions, so within one span's self-time
the wait segments are placed greedily from the start of each gap (for
the stamped kinds this matches where the wait physically happened —
e.g. arbiter queueing is exactly the gap between the host's doorbell
and the device's fetch).  Waits never exceed self-time: anything over
is clamped so conservation always wins.

The same waterfalls are the only source of the paper's user / kernel /
device latency split (Table 1, Figure 7): :func:`fold_sides` charges
each segment to the side its span category belongs to (:func:`side_of`
— ``syscall``/``kernel`` to the kernel, ``device``/``nvme`` to the
device, everything else to user) and sums ``kernel`` segments per
label into the intra-kernel layers.  :mod:`repro.obs.perf`,
:mod:`repro.obs.diff` and the sweep grid's split columns
(:mod:`repro.bench.sweep`) all read their numbers from here.

Everything here is a pure observer over recorded spans — simlint rule
SIM019 holds this module (like the chaos oracles under SIM017) to
inferred purity: reading a trace must never mutate simulation state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.spans import Span
from ..sim.trace import WAIT_KINDS, WAIT_PREFIX
from .export import children_map, span_index

__all__ = [
    "Segment",
    "Waterfall",
    "OP_CATEGORIES",
    "SERVICE",
    "wait_attrs",
    "op_roots",
    "side_of",
    "fold_sides",
    "build_waterfall",
    "waterfalls",
    "waterfalls_json",
    "render_waterfall",
    "render_waterfalls",
]

# Root categories that constitute "one operation": the ``op`` root
# UserLib, io_uring and libaio open per read/write, and the syscall
# root of the sync engine.
OP_CATEGORIES: Tuple[str, ...] = ("op", "syscall")

SERVICE = "service"

# Span category -> side of the user/kernel/device split; any category
# not listed is user time.
_SIDES: Dict[str, str] = {"syscall": "kernel", "kernel": "kernel",
                          "device": "device", "nvme": "device"}


@dataclass(frozen=True, slots=True)
class Segment:
    """One contiguous slice of an op's interval."""

    start_ns: int
    end_ns: int
    layer: str        # "op/pread", "device/direct-io", "nvme/media", ...
    kind: str         # "service" or "wait.<kind>"

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def category(self) -> str:
        return self.layer.partition("/")[0]

    @property
    def label(self) -> str:
        return self.layer.partition("/")[2]


@dataclass(frozen=True, slots=True)
class Waterfall:
    """The ordered wait+service decomposition of one operation."""

    op: str           # root frame, e.g. "op/pread"
    trace_id: int
    tid: int
    start_ns: int
    end_ns: int
    segments: Tuple[Segment, ...]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def segments_total_ns(self) -> int:
        return sum(seg.duration_ns for seg in self.segments)

    def by_kind(self) -> Dict[str, int]:
        """Total ns per segment kind (``service`` plus each wait)."""
        out: Dict[str, int] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0) + seg.duration_ns
        return out

    def by_layer(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for seg in self.segments:
            out[seg.layer] = out.get(seg.layer, 0) + seg.duration_ns
        return out

    def wait_ns(self) -> int:
        return sum(seg.duration_ns for seg in self.segments
                   if seg.kind != SERVICE)

    def check(self) -> None:
        """Assert conservation: segments partition [start, end]."""
        if self.segments_total_ns != self.duration_ns:
            raise AssertionError(
                f"waterfall for {self.op} (trace {self.trace_id}) does "
                f"not conserve time: segments sum to "
                f"{self.segments_total_ns} ns, op spans "
                f"{self.duration_ns} ns")
        cursor = self.start_ns
        for seg in self.segments:
            if seg.start_ns != cursor:
                raise AssertionError(
                    f"waterfall for {self.op} (trace {self.trace_id}) "
                    f"has a gap/overlap at {seg.start_ns} "
                    f"(expected {cursor})")
            cursor = seg.end_ns
        if cursor != self.end_ns:
            raise AssertionError(
                f"waterfall for {self.op} (trace {self.trace_id}) ends "
                f"at {cursor}, op ends at {self.end_ns}")

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "trace_id": self.trace_id,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "segments": [
                {"start_ns": seg.start_ns, "end_ns": seg.end_ns,
                 "layer": seg.layer, "kind": seg.kind}
                for seg in self.segments
            ],
            "by_kind": self.by_kind(),
        }


def _frame(span: Span) -> str:
    return f"{span.category}/{span.label}" if span.label else span.category


def wait_attrs(span: Span) -> Dict[str, int]:
    """The ``wait.*`` attrs of a span as a {kind: ns} dict."""
    out: Dict[str, int] = {}
    for key, value in span.attrs:
        if key.startswith(WAIT_PREFIX):
            out[key[len(WAIT_PREFIX):]] = int(value)  # type: ignore[arg-type]
    return out


def op_roots(spans: Iterable[Span]) -> List[Span]:
    """Operation roots of non-zero duration, ordered by
    (start, span_id)."""
    index = span_index(spans)
    roots = [s for s in index.values()
             if s.category in OP_CATEGORIES and s.duration_ns > 0
             and (s.parent_id == 0 or s.parent_id not in index)]
    return sorted(roots, key=lambda s: (s.start_ns, s.span_id))


def side_of(category: str) -> str:
    """The side of the latency split a span category folds to."""
    return _SIDES.get(category, "user")


def fold_sides(folded: Iterable[Waterfall],
               ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Sum waterfall segments into ``({side: ns}, {kernel label: ns})``.

    Every nanosecond of every op lands on exactly one of ``user``,
    ``kernel`` and ``device``, so the sides add up to the ops' total
    latency; the second dict splits the kernel's ``kernel/<label>``
    segments per label (``block-layer``, ``nvme-driver``, ...)."""
    sides = {"user": 0, "kernel": 0, "device": 0}
    layers: Dict[str, int] = {}
    for wf in folded:
        for seg in wf.segments:
            sides[side_of(seg.category)] += seg.duration_ns
            if seg.category == "kernel":
                layers[seg.label] = layers.get(seg.label, 0) \
                    + seg.duration_ns
    return sides, layers


def _fill_gap(start: int, end: int, layer: str,
              budget: List[Tuple[str, int]],
              ) -> Tuple[List[Segment], List[Tuple[str, int]]]:
    """Fill [start, end) with wait segments drained from ``budget``
    (``(kind, remaining_ns)`` pairs, consumed in order), then service.

    Pure: returns the new segments and the remaining budget instead of
    mutating the caller's state (SIM019)."""
    segs: List[Segment] = []
    remaining: List[Tuple[str, int]] = []
    cursor = start
    for kind, ns in budget:
        take = min(ns, end - cursor)
        if take > 0:
            segs.append(Segment(cursor, cursor + take,
                                layer, WAIT_PREFIX + kind))
            cursor += take
        if ns - take > 0:
            remaining.append((kind, ns - take))
    if cursor < end:
        segs.append(Segment(cursor, end, layer, SERVICE))
    return segs, remaining


def build_waterfall(root: Span,
                    kids: Dict[int, List[Span]]) -> Waterfall:
    """Fold one op's span tree into an exact wait+service partition."""

    def walk(span: Span, lo: int, hi: int) -> List[Segment]:
        # The span owns [lo, hi] (already clipped by the caller).
        layer = _frame(span)
        waits = wait_attrs(span)
        # Drain order: the declared catalogue first (deterministic),
        # then any unknown kinds alphabetically.
        budget = [(kind, waits[kind]) for kind in WAIT_KINDS
                  if kind in waits]
        budget = budget + [(kind, waits[kind])
                           for kind in sorted(waits)
                           if kind not in WAIT_KINDS]
        segs: List[Segment] = []
        cursor = lo
        for child in kids.get(span.span_id, []):
            c_lo = min(max(child.start_ns, cursor), hi)
            c_hi = min(max(child.end_ns, c_lo), hi)
            if c_lo > cursor:
                part, budget = _fill_gap(cursor, c_lo, layer, budget)
                segs = segs + part
            if c_hi > c_lo:
                segs = segs + walk(child, c_lo, c_hi)
            cursor = max(cursor, c_hi)
        if hi > cursor:
            part, budget = _fill_gap(cursor, hi, layer, budget)
            segs = segs + part
        return segs

    segments = walk(root, root.start_ns, root.end_ns)
    return Waterfall(op=_frame(root), trace_id=root.trace_id,
                     tid=root.tid, start_ns=root.start_ns,
                     end_ns=root.end_ns, segments=tuple(segments))


def waterfalls(tracer_or_spans) -> List[Waterfall]:
    """One waterfall per operation in the trace, in start order."""
    spans = list(getattr(tracer_or_spans, "spans", tracer_or_spans))
    kids = children_map(spans)
    return [build_waterfall(root, kids) for root in op_roots(spans)]


def waterfalls_json(tracer_or_spans) -> str:
    """Deterministic JSON dump of every op's waterfall."""
    folded = waterfalls(tracer_or_spans)
    return json.dumps([wf.to_dict() for wf in folded],
                      sort_keys=True, separators=(",", ":"))


def render_waterfall(wf: Waterfall) -> str:
    """Text rendering: one row per segment, offsets relative to the
    op's start, then the per-kind totals."""
    lines = [f"{wf.op}  trace={wf.trace_id} tid={wf.tid} "
             f"[{wf.start_ns}..{wf.end_ns}] {wf.duration_ns} ns"]
    for seg in wf.segments:
        off = seg.start_ns - wf.start_ns
        lines.append(f"  +{off:>10d} {seg.duration_ns:>10d} ns  "
                     f"{seg.kind:<22s} {seg.layer}")
    totals = wf.by_kind()
    parts = [f"{kind}={totals[kind]}" for kind in sorted(totals)]
    lines.append(f"  total {wf.duration_ns} ns ({', '.join(parts)})")
    return "\n".join(lines)


def render_waterfalls(tracer_or_spans,
                      limit: Optional[int] = None) -> str:
    folded = waterfalls(tracer_or_spans)
    if limit is not None:
        folded = folded[:limit]
    return "\n".join(render_waterfall(wf) for wf in folded) + \
        ("\n" if folded else "")
