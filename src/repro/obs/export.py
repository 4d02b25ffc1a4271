"""Exporters over hierarchical spans.

* :func:`chrome_trace_json` — Chrome ``trace_event`` JSON (the
  "JSON Array Format"); load it at https://ui.perfetto.dev or
  ``chrome://tracing``.  Timestamps are microseconds (floats), so one
  simulated nanosecond is 0.001 us.
* :func:`collapsed_stacks` — Brendan Gregg's collapsed-stack format
  (``root;child;leaf <self-weight-ns>``), one line per unique stack;
  feed it to ``flamegraph.pl`` or speedscope.
* :func:`tree_fingerprint` — a SHA-256 over a canonical serialisation
  of the span forest (structure + categories + labels + durations);
  golden tests pin it so timeline regressions fail loudly.
* :func:`format_tree` — human-readable indented tree for examples.

All outputs are deterministic: spans are sorted by (start, span_id)
and JSON is dumped with sorted keys, so same-seed runs export
byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional

from ..sim.spans import Span

__all__ = [
    "span_index",
    "children_map",
    "ancestor_chain",
    "chrome_trace_json",
    "counter_events",
    "flow_events",
    "write_chrome_trace",
    "collapsed_stacks",
    "write_flamegraph",
    "tree_fingerprint",
    "format_tree",
]

# Synthetic Chrome-trace tid for spans recorded outside any host
# thread (the device model's daemon processes).
DEVICE_TID = 999


def _sorted_spans(spans: Iterable[Span]) -> List[Span]:
    return sorted(spans, key=lambda s: (s.start_ns, s.span_id))


# -- tree utilities ---------------------------------------------------------

def span_index(spans: Iterable[Span]) -> Dict[int, Span]:
    """Map span_id -> span."""
    return {s.span_id: s for s in spans}


def children_map(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Map parent span_id (0 = roots) -> children sorted by start."""
    out: Dict[int, List[Span]] = {}
    for s in _sorted_spans(spans):
        bucket = out.get(s.parent_id)
        if bucket is None:
            bucket = []
            out[s.parent_id] = bucket
        bucket.append(s)
    return out


def ancestor_chain(span: Span, index: Dict[int, Span]) -> List[Span]:
    """Ancestors from direct parent to root (missing parents stop
    the walk — e.g. when the parent was recorded before a clear())."""
    chain: List[Span] = []
    cur = span
    while cur.parent_id:
        parent = index.get(cur.parent_id)
        if parent is None:
            break
        chain.append(parent)
        cur = parent
    return chain


# -- Chrome trace_event -----------------------------------------------------

def chrome_trace_events(spans: Iterable[Span],
                        pid: int = 1) -> List[dict]:
    """Complete ("X") events plus thread-name metadata."""
    ordered = _sorted_spans(spans)
    events: List[dict] = []
    tids = sorted({s.tid for s in ordered})
    for tid in tids:
        display = tid if tid >= 0 else DEVICE_TID
        name = f"thread-{tid}" if tid >= 0 else "device"
        events.append({
            "args": {"name": name},
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": display,
        })
    for s in ordered:
        events.append({
            "args": {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "trace_id": s.trace_id,
                **{k: v for k, v in s.attrs},
            },
            "cat": s.category,
            "dur": s.duration_ns / 1000.0,
            "name": f"{s.category}/{s.label}" if s.label else s.category,
            "ph": "X",
            "pid": pid,
            "tid": s.tid if s.tid >= 0 else DEVICE_TID,
            "ts": s.start_ns / 1000.0,
        })
    return events


def counter_events(series_map, pid: int = 1) -> List[dict]:
    """Perfetto counter-track ("C") events from telemetry time series.

    ``series_map`` maps gauge name -> :class:`repro.sim.stats.TimeSeries`
    (a :attr:`repro.obs.monitor.Monitor.series` dict works as-is).
    Each gauge renders as its own counter track; load the trace in
    Perfetto and the tracks plot under the span rows.
    """
    events: List[dict] = []
    for name in sorted(series_map):
        series = series_map[name]
        for t, v in series.samples:
            events.append({
                "args": {"value": v},
                "name": name,
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": t / 1000.0,
            })
    return events


def flow_events(spans: Iterable[Span], pid: int = 1) -> List[dict]:
    """Perfetto flow ("s"/"t"/"f") events linking each host-side wait
    span to its device-side phase spans across the host/device
    boundary.

    One flow per host ``device`` span that has ``nvme`` children:
    start at submission on the host thread, a step at each device
    phase on the device track, finish back on the host thread at
    completion.  Perfetto draws these as arrows, so a tail op's
    arbiter queueing (submit arrow landing long after it left) is
    visible at a glance.
    """
    spans = _sorted_spans(spans)
    kids = children_map(spans)
    events: List[dict] = []
    for s in spans:
        if s.category != "device":
            continue
        phases = [c for c in kids.get(s.span_id, [])
                  if c.category == "nvme"]
        if not phases:
            continue
        common = {
            "cat": "io-flow",
            "id": s.span_id,
            "name": "submit->complete",
            "pid": pid,
        }
        events.append({**common, "ph": "s",
                       "tid": s.tid if s.tid >= 0 else DEVICE_TID,
                       "ts": s.start_ns / 1000.0})
        for phase in phases:
            events.append({**common, "ph": "t",
                           "tid": (phase.tid if phase.tid >= 0
                                   else DEVICE_TID),
                           "ts": phase.start_ns / 1000.0})
        events.append({**common, "ph": "f", "bp": "e",
                       "tid": s.tid if s.tid >= 0 else DEVICE_TID,
                       "ts": s.end_ns / 1000.0})
    return events


def chrome_trace_json(tracer_or_spans, pid: int = 1,
                      counters=None, flows: bool = False) -> str:
    """Serialise to the Chrome trace JSON Array Format (deterministic:
    sorted events, sorted keys, fixed separators).  ``counters`` is an
    optional gauge-name -> TimeSeries map appended as counter tracks;
    ``flows`` appends submission->completion flow arrows.  Omitting
    both yields byte-identical output to before they existed, so
    golden traces stay stable."""
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    events = chrome_trace_events(spans, pid=pid)
    if counters:
        events.extend(counter_events(counters, pid=pid))
    if flows:
        events.extend(flow_events(spans, pid=pid))
    return json.dumps({"displayTimeUnit": "ns", "traceEvents": events},
                      sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer_or_spans, path, pid: int = 1,
                       counters=None, flows: bool = False) -> str:
    text = chrome_trace_json(tracer_or_spans, pid=pid, counters=counters,
                             flows=flows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return text


# -- collapsed stacks (flamegraph) ------------------------------------------

def _frame(span: Span) -> str:
    return f"{span.category}/{span.label}" if span.label else span.category


def collapsed_stacks(tracer_or_spans) -> str:
    """Collapsed-stack lines weighted by *self* time (duration minus
    children's durations), suitable for flamegraph.pl / speedscope."""
    spans = list(getattr(tracer_or_spans, "spans", tracer_or_spans))
    index = span_index(spans)
    child_time: Dict[int, int] = {}
    for s in spans:
        if s.parent_id and s.parent_id in index:
            child_time[s.parent_id] = (child_time.get(s.parent_id, 0)
                                       + s.duration_ns)
    weights: Dict[str, int] = {}
    for s in spans:
        self_ns = s.duration_ns - child_time.get(s.span_id, 0)
        if self_ns <= 0:
            continue
        frames = [_frame(a) for a in reversed(ancestor_chain(s, index))]
        frames.append(_frame(s))
        key = ";".join(frames)
        weights[key] = weights.get(key, 0) + self_ns
    return "".join(f"{stack} {weights[stack]}\n"
                   for stack in sorted(weights))


def write_flamegraph(tracer_or_spans, path) -> str:
    text = collapsed_stacks(tracer_or_spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# -- fingerprint & pretty printer -------------------------------------------

def _canonical(span: Span, kids: Dict[int, List[Span]]) -> list:
    return [span.category, span.label, span.start_ns, span.duration_ns,
            span.tid,
            [_canonical(c, kids) for c in kids.get(span.span_id, [])]]


def tree_fingerprint(tracer_or_spans) -> str:
    """SHA-256 of the canonical span forest; pins structure, order,
    categories, labels, and every duration."""
    spans = list(getattr(tracer_or_spans, "spans", tracer_or_spans))
    kids = children_map(spans)
    index = span_index(spans)
    # Roots: parent 0, or parent missing from this window.
    roots = [s for s in _sorted_spans(spans)
             if s.parent_id == 0 or s.parent_id not in index]
    forest = [_canonical(s, kids) for s in roots]
    blob = json.dumps(forest, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def format_tree(tracer_or_spans, max_roots: Optional[int] = None) -> str:
    """Indented text rendering of the span forest."""
    spans = list(getattr(tracer_or_spans, "spans", tracer_or_spans))
    kids = children_map(spans)
    index = span_index(spans)
    roots = [s for s in _sorted_spans(spans)
             if s.parent_id == 0 or s.parent_id not in index]
    if max_roots is not None:
        roots = roots[:max_roots]
    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        lines.append(f"{'  ' * depth}{_frame(span)}"
                     f"  [{span.start_ns}..{span.end_ns}] "
                     f"{span.duration_ns / 1000.0:.3f}us"
                     f"  (trace {span.trace_id})")
        for child in kids.get(span.span_id, []):
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    return "\n".join(lines)

