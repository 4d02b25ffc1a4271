"""Tail exemplars: full span trees kept only for the slowest ops.

Aggregates (histograms, gauges) say *that* p99 moved; an exemplar says
*why*: it is one concrete slow operation with its complete span tree
and latency waterfall attached.  :func:`capture_exemplars` replays a
trace's operations in completion order through a per-tenant
trailing-window reservoir:

* per tenant (host ``tid``), op durations feed one of the existing
  log-linear histograms (:class:`repro.obs.metrics.Histogram`), whose
  exact bucket bounds (:meth:`Histogram.quantile_bounds`) give the
  current percentile threshold — same ≤1/32 relative-error contract as
  every other quantile in the repo;
* an op at or above the threshold (after a warm-up count) is retained
  with its subtree and :class:`~repro.obs.attribution.Waterfall`;
* only the most recent ``capacity`` qualifiers per tenant survive —
  a trailing window, so memory stays bounded however long the run.

Everything is computed from recorded spans with seeded-run data only,
so same-seed runs produce byte-identical exemplar dumps.  Like
:mod:`repro.obs.attribution`, this module is held to inferred purity
by simlint rule SIM019 — capturing exemplars must never mutate
simulation state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.spans import Span
from .attribution import Waterfall, build_waterfall, op_roots
from .export import children_map, format_tree
from .metrics import Histogram

__all__ = [
    "ExemplarConfig",
    "Exemplar",
    "capture_exemplars",
    "exemplars_json",
    "render_exemplars",
    "top_exemplars",
]


@dataclass(frozen=True)
class ExemplarConfig:
    """Knobs for the trailing-window reservoir."""

    percentile: float = 99.0   # ops at/above this percentile qualify
    capacity: int = 4          # trailing window per tenant
    warmup: int = 16           # ops seen before thresholding starts

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile out of range: {self.percentile}")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")


@dataclass(frozen=True, slots=True)
class Exemplar:
    """One retained slow operation."""

    op: str
    trace_id: int
    tid: int
    start_ns: int
    duration_ns: int
    threshold_ns: int              # bucket lower bound that qualified it
    waterfall: Waterfall
    subtree: Tuple[Span, ...]      # the op's full span tree

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "trace_id": self.trace_id,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "threshold_ns": self.threshold_ns,
            "waterfall": self.waterfall.to_dict(),
            "tree": format_tree(list(self.subtree)),
        }


def _subtree(root: Span, kids: Dict[int, List[Span]]) -> Tuple[Span, ...]:
    out: List[Span] = []
    stack = [root]
    while stack:
        span = stack.pop()
        out.append(span)
        # reversed: children are start-sorted, the stack pops LIFO
        stack.extend(reversed(kids.get(span.span_id, [])))
    return tuple(out)


def capture_exemplars(
        tracer_or_spans,
        config: Optional[ExemplarConfig] = None,
) -> Dict[int, List[Exemplar]]:
    """Per-tenant (tid) trailing-window exemplars from a trace.

    Ops are replayed in completion order (end, then span id) — the
    order a live reservoir would have seen them — so the trailing
    window has a well-defined, deterministic meaning.
    """
    config = config or ExemplarConfig()
    spans = list(getattr(tracer_or_spans, "spans", tracer_or_spans))
    kids = children_map(spans)
    roots = sorted(op_roots(spans), key=lambda s: (s.end_ns, s.span_id))
    hists: Dict[int, Histogram] = {}
    out: Dict[int, List[Exemplar]] = {}
    for root in roots:
        hist = hists.get(root.tid)
        if hist is None:
            hist = Histogram(f"exemplar.tid{root.tid}.lat_ns")
            hists[root.tid] = hist
        if hist.count >= config.warmup:
            threshold = hist.quantile_bounds(config.percentile)[0]
            if root.duration_ns >= threshold:
                window = out.setdefault(root.tid, [])
                window.append(Exemplar(
                    op=(f"{root.category}/{root.label}"
                        if root.label else root.category),
                    trace_id=root.trace_id,
                    tid=root.tid,
                    start_ns=root.start_ns,
                    duration_ns=root.duration_ns,
                    threshold_ns=threshold,
                    waterfall=build_waterfall(root, kids),
                    subtree=_subtree(root, kids),
                ))
                if len(window) > config.capacity:
                    del window[0]          # trailing window: keep latest
        hist.record(root.duration_ns)
    return out


def top_exemplars(per_tenant: Dict[int, List[Exemplar]],
                  n: int = 3) -> List[Exemplar]:
    """The ``n`` slowest retained exemplars across all tenants, by
    (duration desc, start, tid) — deterministic."""
    merged = [ex for tid in sorted(per_tenant)
              for ex in per_tenant[tid]]
    merged.sort(key=lambda ex: (-ex.duration_ns, ex.start_ns, ex.tid))
    return merged[:n]


def exemplars_json(per_tenant: Dict[int, List[Exemplar]]) -> str:
    """Deterministic JSON dump, keyed by tenant tid."""
    payload = {str(tid): [ex.to_dict() for ex in per_tenant[tid]]
               for tid in sorted(per_tenant)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_exemplars(per_tenant: Dict[int, List[Exemplar]],
                     limit_per_tenant: Optional[int] = None) -> str:
    """Text report: per tenant, the retained tail ops with their
    wait/service split."""
    from .attribution import render_waterfall
    lines: List[str] = []
    for tid in sorted(per_tenant):
        window = per_tenant[tid]
        if limit_per_tenant is not None:
            window = window[-limit_per_tenant:]
        lines.append(f"tenant tid={tid}: {len(window)} tail "
                     f"exemplar(s)")
        for ex in window:
            lines.append(f"  {ex.op} {ex.duration_ns} ns "
                         f"(threshold {ex.threshold_ns} ns)")
            for wl in render_waterfall(ex.waterfall).splitlines():
                lines.append("    " + wl)
    return "\n".join(lines) + ("\n" if lines else "")
