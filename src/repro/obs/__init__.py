"""repro.obs — cross-cutting observability (see ``docs/observability.md``).

The package re-exports nothing: import each module by its full name, so
a run loads only the parts it uses (the exporters, for one, pull in
``hashlib`` and with it OpenSSL).

* :mod:`repro.obs.metrics` — log-linear histograms (p50/p99/p999
  within one bucket's relative error) for the exemplar reservoir.
* :mod:`repro.obs.export` — exporters over the hierarchical spans of
  :class:`repro.sim.trace.Tracer`: Chrome ``trace_event`` JSON
  (loadable in Perfetto), collapsed-stack flamegraphs, span-tree
  fingerprints and a pretty-printer.
* :mod:`repro.obs.perf` — the Table 1 / Figure 7 user / kernel /
  device breakdown of a clean measurement window, folded from per-op
  waterfalls.
* :mod:`repro.obs.monitor` — the continuous-telemetry sampler:
  deterministic time-series gauges across every layer plus declarative
  SLO monitors with edge-triggered breach events.
* :mod:`repro.obs.diff` — run-to-run regression attribution: per-layer
  waterfall deltas of two aligned trace dumps and retry attribution
  (``scripts/trace_diff.py``).
* :mod:`repro.obs.attribution` — per-op latency waterfalls: the exact
  wait/service decomposition of every operation's span tree, and the
  one fold of it into the user / kernel / device split.
* :mod:`repro.obs.exemplar` — tail exemplars: full span trees and
  waterfalls retained only for ops above a percentile threshold.
* :mod:`repro.obs.timings` — the ``bench-timings.json`` schema: per
  experiment wall-clock, simulated time and result table, written by
  the parallel runner and gated by ``scripts/perf_gate.py``.
"""
