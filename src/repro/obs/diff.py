"""Run-to-run regression attribution: where did the latency go?

Two same-workload runs (a baseline and a current) rarely differ
uniformly — a regression concentrates in one layer: extra nvme-driver
retry attempts after injected media errors, a page-cache hit-rate
collapse, journal commits serialising.  This module loads two Chrome
traces written by :func:`repro.obs.export.write_chrome_trace`, aligns
them, and attributes the end-to-end latency delta per layer: "p99 grew
18%, of which 92% is nvme-driver retry spans".

Trace attribution works on *aligned span trees*: ops (the roots of
:func:`repro.obs.attribution.op_roots`) are paired in start order, and
each op's waterfall (:func:`repro.obs.attribution.build_waterfall`)
gives its per-layer (span category) self time, split into the stamped
``wait.*`` states and service — the same partition the latency
breakdowns fold — so the report names the wait that grew ("arbiter
queueing grew 12 us") instead of just the layer.  A synthetic
``retry`` layer captures the extra device attempts — each op's wait
spans beyond the first, plus the backoff gaps between them — which
otherwise would smear across device self-time and root self-time.  All
outputs are plain dicts of ints, floats and strings:
``scripts/trace_diff.py`` prints them as machine-readable JSON.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.stats import percentile
from ..sim.spans import Span
from ..sim.trace import WAIT_PREFIX
from .attribution import SERVICE, build_waterfall, op_roots
from .export import children_map

__all__ = [
    "load_dump",
    "spans_from_chrome_trace",
    "op_roots",
    "diff_traces",
    "diff_dumps",
    "render_diff",
]

# Categories whose spans represent a device round-trip wait: one span
# per attempt, so extra spans under one op are retries.
_ATTEMPT_CATEGORIES = ("device",)


# -- loading ----------------------------------------------------------------

def spans_from_chrome_trace(doc: dict) -> List[Span]:
    """Rebuild spans from a Chrome trace JSON document.

    Inverse of :func:`repro.obs.export.chrome_trace_events` for "X"
    events: ts/dur microseconds round back to the original integer
    nanoseconds exactly (they were produced by ``ns / 1000.0``).
    """
    spans: List[Span] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        start = round(ev["ts"] * 1000.0)
        dur = round(ev.get("dur", 0.0) * 1000.0)
        cat = ev.get("cat", "")
        name = ev.get("name", cat)
        label = name[len(cat) + 1:] if name.startswith(f"{cat}/") else ""
        attrs = tuple(sorted(
            (k, v) for k, v in args.items()
            if k not in ("span_id", "parent_id", "trace_id")
        ))
        spans.append(Span(cat, label, start, start + dur,
                          span_id=args.get("span_id", 0),
                          parent_id=args.get("parent_id", 0),
                          trace_id=args.get("trace_id", 0),
                          tid=ev.get("tid", -1), attrs=attrs))
    return spans


def load_dump(path) -> List[Span]:
    """Load a Chrome trace dump file as spans."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return spans_from_chrome_trace(doc)
    raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")


# -- trace diffing ----------------------------------------------------------

def _subtree(root: Span, kids: Dict[int, List[Span]]) -> List[Span]:
    out = [root]
    stack = [root]
    while stack:
        cur = stack.pop()
        for child in kids.get(cur.span_id, []):
            out.append(child)
            stack.append(child)
    return out


def _fold_op(root: Span, kids: Dict[int, List[Span]],
             layers: Dict[str, int],
             waits: Dict[Tuple[str, str], int]) -> None:
    """Add one op's waterfall to per-category self time (``layers``)
    and per-(category, wait kind) stamped wait time (``waits``)."""
    for seg in build_waterfall(root, kids).segments:
        cat = seg.category
        layers[cat] = layers.get(cat, 0) + seg.duration_ns
        if seg.kind != SERVICE:
            key = (cat, seg.kind[len(WAIT_PREFIX):])
            waits[key] = waits.get(key, 0) + seg.duration_ns


def _attempt_window_ns(tree: List[Span]) -> Tuple[int, int]:
    """(attempt count, ns from first attempt start to last attempt end).

    The window includes inter-attempt gaps — the driver's backoff
    sleeps — which is what makes retry attribution add up: the backoff
    otherwise lands in the *root's* self time.
    """
    attempts = sorted(
        (s for s in tree if s.category in _ATTEMPT_CATEGORIES),
        key=lambda s: (s.start_ns, s.span_id),
    )
    if not attempts:
        return 0, 0
    return len(attempts), attempts[-1].end_ns - attempts[0].start_ns


def _latency_digest(durations: List[int]) -> Dict[str, float]:
    if not durations:
        return {"ops": 0, "mean_ns": 0.0, "p50_ns": 0.0, "p99_ns": 0.0,
                "total_ns": 0}
    return {
        "ops": len(durations),
        "mean_ns": round(sum(durations) / len(durations), 1),
        "p50_ns": float(percentile(durations, 50)),
        "p99_ns": float(percentile(durations, 99)),
        "total_ns": sum(durations),
    }


def diff_traces(base_spans: Iterable[Span],
                cur_spans: Iterable[Span]) -> dict:
    """Aligned span-tree diff of two runs of the same workload.

    Ops are paired in start order; unpaired tails are reported, not
    diffed.  Returns a machine-readable dict: end-to-end digests, the
    per-layer (span category) self-time deltas with their share of the
    total latency delta, and the synthetic ``retry`` attribution.
    """
    base_spans = list(base_spans)
    cur_spans = list(cur_spans)
    base_kids = children_map(base_spans)
    cur_kids = children_map(cur_spans)
    base_roots = op_roots(base_spans)
    cur_roots = op_roots(cur_spans)
    paired = min(len(base_roots), len(cur_roots))

    layer_base: Dict[str, int] = {}
    layer_cur: Dict[str, int] = {}
    wait_base: Dict[Tuple[str, str], int] = {}
    wait_cur: Dict[Tuple[str, str], int] = {}
    retry_delta_ns = 0
    extra_attempts = 0
    delta_total_ns = 0
    for b, c in zip(base_roots[:paired], cur_roots[:paired]):
        delta_total_ns += c.duration_ns - b.duration_ns
        _fold_op(b, base_kids, layer_base, wait_base)
        _fold_op(c, cur_kids, layer_cur, wait_cur)
        b_tree = _subtree(b, base_kids)
        c_tree = _subtree(c, cur_kids)
        b_n, b_window = _attempt_window_ns(b_tree)
        c_n, c_window = _attempt_window_ns(c_tree)
        if c_n > b_n:
            extra_attempts += c_n - b_n
            retry_delta_ns += max(0, c_window - b_window)

    layers = {}
    for cat in sorted(set(layer_base) | set(layer_cur)):
        base_ns = layer_base.get(cat, 0)
        cur_ns = layer_cur.get(cat, 0)
        # Split the layer's growth into wait states vs service: the
        # stamped waits say *why* a layer grew ("arbiter queueing
        # grew"), not just that it grew.
        kinds = sorted({k for c2, k in set(wait_base) | set(wait_cur)
                        if c2 == cat})
        waits = {}
        wait_base_total = 0
        wait_cur_total = 0
        for kind in kinds:
            wb = wait_base.get((cat, kind), 0)
            wc = wait_cur.get((cat, kind), 0)
            wait_base_total += wb
            wait_cur_total += wc
            waits[kind] = {
                "baseline_ns": wb,
                "current_ns": wc,
                "delta_ns": wc - wb,
                "share_of_delta": (round((wc - wb) / delta_total_ns, 4)
                                   if delta_total_ns else 0.0),
            }
        layers[cat] = {
            "baseline_ns": base_ns,
            "current_ns": cur_ns,
            "delta_ns": cur_ns - base_ns,
            "share_of_delta": (round((cur_ns - base_ns) / delta_total_ns, 4)
                               if delta_total_ns else 0.0),
            "waits": waits,
            "service_delta_ns": ((cur_ns - wait_cur_total)
                                 - (base_ns - wait_base_total)),
        }

    base_digest = _latency_digest([s.duration_ns
                                   for s in base_roots[:paired]])
    cur_digest = _latency_digest([s.duration_ns
                                  for s in cur_roots[:paired]])
    mean_delta = cur_digest["mean_ns"] - base_digest["mean_ns"]
    p99_delta = cur_digest["p99_ns"] - base_digest["p99_ns"]
    return {
        "schema": 1,
        "kind": "trace",
        "baseline": base_digest,
        "current": cur_digest,
        "unpaired": {"baseline": len(base_roots) - paired,
                     "current": len(cur_roots) - paired},
        "delta": {
            "mean_ns": round(mean_delta, 1),
            "mean_pct": (round(100.0 * mean_delta
                               / base_digest["mean_ns"], 2)
                         if base_digest["mean_ns"] else 0.0),
            "p99_ns": p99_delta,
            "p99_pct": (round(100.0 * p99_delta / base_digest["p99_ns"], 2)
                        if base_digest["p99_ns"] else 0.0),
            "total_ns": delta_total_ns,
        },
        "layers": layers,
        "attribution": {
            "retry": {
                "extra_attempts": extra_attempts,
                "delta_ns": retry_delta_ns,
                "share_of_delta": (round(retry_delta_ns / delta_total_ns, 4)
                                   if delta_total_ns > 0 else 0.0),
            },
        },
    }


def diff_dumps(base_path, cur_path) -> dict:
    """Load two Chrome trace files and diff them (:func:`diff_traces`)."""
    return diff_traces(load_dump(base_path), load_dump(cur_path))


# -- rendering --------------------------------------------------------------

def render_diff(result: dict, top: Optional[int] = None) -> str:
    """Human-readable summary of a diff result."""
    lines: List[str] = []
    base, cur, delta = (result["baseline"], result["current"],
                        result["delta"])
    lines.append(
        f"{base['ops']} ops aligned: mean "
        f"{base['mean_ns']:.0f} -> {cur['mean_ns']:.0f} ns "
        f"({delta['mean_pct']:+.1f}%), p99 "
        f"{base['p99_ns']:.0f} -> {cur['p99_ns']:.0f} ns "
        f"({delta['p99_pct']:+.1f}%)"
    )
    ranked = sorted(result["layers"].items(),
                    key=lambda kv: -abs(kv[1]["delta_ns"]))
    if top is not None:
        ranked = ranked[:top]
    for cat, row in ranked:
        lines.append(f"  {cat:<12} {row['delta_ns']:>+12} ns  "
                     f"({100.0 * row['share_of_delta']:+.1f}% of delta)")
        # Wait-state split: name the wait that grew, not just the
        # layer ("arbiter queueing grew", not "nvme grew").
        wait_rows = sorted(
            (row.get("waits") or {}).items(),
            key=lambda kv: -abs(kv[1]["delta_ns"]))
        for kind, w in wait_rows:
            if w["delta_ns"] == 0:
                continue
            lines.append(
                f"    wait.{kind:<16} {w['delta_ns']:>+10} ns  "
                f"({100.0 * w['share_of_delta']:+.1f}% of delta)")
        if wait_rows and row.get("service_delta_ns", 0) != 0:
            lines.append(
                f"    service{'':<14} "
                f"{row['service_delta_ns']:>+10} ns")
    retry = result["attribution"]["retry"]
    lines.append(
        f"  retry layer: {retry['extra_attempts']} extra attempts, "
        f"{retry['delta_ns']:+} ns "
        f"({100.0 * retry['share_of_delta']:.1f}% of delta)"
    )
    return "\n".join(lines)
