"""repro.obs — cross-cutting observability (see ``docs/observability.md``).

The package re-exports nothing: import each module by its full name, so
a run loads only the parts it uses (the exporters, for one, pull in
``hashlib`` and with it OpenSSL).  It holds only the ambient monitor
config (below), so a :class:`~repro.machine.Machine` can see whether
one is installed without loading :mod:`repro.obs.monitor`.

* :mod:`repro.obs.metrics` — log-linear histograms (p50/p99/p999
  within one bucket's relative error) for the exemplar reservoir.
* :mod:`repro.obs.export` — exporters over the hierarchical spans of
  :class:`repro.sim.spans.Tracer`: Chrome ``trace_event`` JSON
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

# -- ambient monitor config (mirrors repro.faults.default_injector) -----
#
# `repro.bench --monitor` can't thread a config through every
# experiment signature, so it installs one here; each Machine built
# while it is set attaches a Monitor and registers it for collection.
# repro.obs.monitor re-exports these three functions.  They stay
# unannotated: naming MonitorConfig here would import the monitor,
# which imports this package.

_default_config = None         # the installed MonitorConfig, or None
_ambient_monitors: list = []   # Monitors attached through it


def set_default_monitor(config) -> None:
    """Install (or clear, with None) the ambient monitor config."""
    global _default_config
    _default_config = config
    if config is None:
        _ambient_monitors.clear()


def default_monitor():
    """The installed ambient ``MonitorConfig``, or None."""
    return _default_config


def drain_ambient_monitors() -> list:
    """Monitors attached via the ambient config since the last drain."""
    out = list(_ambient_monitors)
    _ambient_monitors.clear()
    return out
