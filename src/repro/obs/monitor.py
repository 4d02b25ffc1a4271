"""Continuous telemetry: deterministic time-series sampling and SLOs.

Point-in-time observability (spans, histograms) misses exactly the
phenomena BypassD's sharing claims are about — queue depth building
under a burst, arbitration share drifting between tenants, tail
latency excursions inside a window (Figs. 9-12).  This module adds a
*simulated* sampler: a daemon :class:`~repro.sim.engine.Process`
flagged ``observer`` that wakes at a fixed period, snapshots read-only
gauges across every layer into :class:`~repro.sim.stats.TimeSeries`,
and evaluates declarative :class:`SLO` objects over trailing windows.

Determinism contract
--------------------
The sampler must be *provably time-neutral*: a same-seed run with
monitoring on or off produces a byte-identical timeline.  Three rules
make that hold (and ``tests/test_determinism.py`` pins it):

- the sampler only **reads** model state — it never succeeds events,
  acquires resources, or mutates any layer;
- it only yields timeouts, and every event it schedules is tagged as
  an observer event so :meth:`repro.sim.engine.Simulator.run` ends the
  run at the same instant it would without the sampler;
- its period (default 9973 ns) and phase (default 1009 ns) are prime,
  so ticks stay off-phase from the microsecond-aligned op cadences of
  the hardware model and never systematically alias with them.

Gauge naming scheme
-------------------
``<subsystem>.<object>.<metric>`` — lowercase, digits and underscores,
two or more dot-separated components (``GAUGE_NAME_RE``; simlint rule
SIM012 flags literal registrations that stray from it).  Times are
nanoseconds and carry a ``_ns`` suffix; fractions are in [0, 1] and
named ``*_occupancy``, ``*_share`` or ``*_rate``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Generator, List, Optional, Tuple,
                    Union)

from ..sim.stats import TimeSeries, percentile
from . import (_ambient_monitors, default_monitor, drain_ambient_monitors,
               set_default_monitor)

if TYPE_CHECKING:
    from .exemplar import ExemplarConfig

__all__ = [
    "BACKLOG_SLOS",
    "DEFAULT_PERIOD_NS",
    "DEFAULT_PHASE_NS",
    "GAUGE_NAME_RE",
    "SLO",
    "Breach",
    "MonitorConfig",
    "Monitor",
    "sparkline",
    "set_default_monitor",
    "default_monitor",
    "drain_ambient_monitors",
]

# Primes: see "Determinism contract" above.
DEFAULT_PERIOD_NS = 9_973
DEFAULT_PHASE_NS = 1_009

GAUGE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

_PERCENTILE_RE = re.compile(r"p(\d+(?:\.\d+)?)")


@dataclass(frozen=True)
class SLO:
    """A service-level objective: assert ``reduce(window) < limit``.

    ``series`` names the gauge (or an :meth:`Monitor.observe`-fed
    series, e.g. per-op latency).  ``reduce`` is ``"max"``, ``"mean"``
    or ``"p<NN>"`` (nearest-rank percentile, e.g. ``"p99"``); it is
    applied to the trailing ``window_ns`` at every sampler tick
    (``window_ns=0`` means "latest sample only").  The objective is an
    upper bound: a tick where the reduced value reaches ``limit``
    is in breach.
    """

    name: str
    series: str
    limit: float
    reduce: str = "max"
    window_ns: int = 0

    def __post_init__(self) -> None:
        # Checked here, not at the first sampler tick, which would
        # raise inside the observer process in the middle of a run.
        if self.reduce in ("max", "mean"):
            return
        match = _PERCENTILE_RE.fullmatch(self.reduce)
        if match is None or not 0.0 <= float(match.group(1)) <= 100.0:
            raise ValueError(f"unknown SLO reducer: {self.reduce!r} "
                             f"(want 'max', 'mean' or 'p<0-100>')")

    def apply(self, values: List[float]) -> float:
        if self.reduce == "max":
            return max(values)
        if self.reduce == "mean":
            return sum(values) / len(values)
        return percentile(values, float(self.reduce[1:]))


@dataclass(frozen=True)
class Breach:
    """Edge-triggered record of a series *entering* breach."""

    t_ns: int
    slo: str
    value: float


@dataclass(frozen=True)
class MonitorConfig:
    """A monitor's sampling period and phase, SLOs and exemplar capture."""

    period_ns: int = DEFAULT_PERIOD_NS
    phase_ns: int = DEFAULT_PHASE_NS
    slos: Tuple[SLO, ...] = ()
    # Tail exemplar capture (repro.obs.exemplar).  None keeps it off
    # and leaves every telemetry dump byte-identical to before the
    # feature existed; an ExemplarConfig adds a per-tenant "exemplars"
    # section to telemetry() and report() on traced machines.
    exemplars: Optional["ExemplarConfig"] = None


#: Backlog bounds that a healthy run of every experiment satisfies, so
#: any breach is signal: ``repro.bench --monitor`` applies them to
#: every machine, and each sweep cell's monitor carries them too.
BACKLOG_SLOS = (
    SLO("device_backlog", "nvme.device.inflight", 24.0,
        reduce="max", window_ns=100_000),
    SLO("softirq_backlog", "kernel.blockio.softirq_backlog", 32.0,
        reduce="max", window_ns=100_000),
)


class Monitor:
    """Periodic telemetry sampler bound to one machine.

    Every tick snapshots the gauge set below into per-gauge
    :class:`TimeSeries`, then evaluates the configured SLOs.  Breaches
    are edge-triggered: one :class:`Breach` per excursion, kept in
    ``breaches`` and stamped into the tracer as a zero-length ``slo``
    span; the per-tick violation count is kept separately in
    ``breach_ticks``.
    """

    def __init__(self, machine, config: Optional[MonitorConfig] = None,
                 ambient: bool = False):
        self.machine = machine
        self.config = config if config is not None else MonitorConfig()
        self.series: Dict[str, TimeSeries] = {}
        self.breaches: List[Breach] = []
        self.breach_ticks: Dict[str, int] = {
            slo.name: 0 for slo in self.config.slos
        }
        self.samples_taken = 0
        self._in_breach: Dict[str, bool] = {}
        self._prev_cumulative: Dict[str, float] = {}
        if ambient:
            _ambient_monitors.append(self)
        machine.sim.process(self._sampler(), name="telemetry-sampler",
                            daemon=True, observer=True)

    # -- sampling ------------------------------------------------------

    def _sampler(self) -> Generator:
        sim = self.machine.sim
        if self.config.phase_ns:
            yield sim.timeout(self.config.phase_ns)
        while True:
            self.sample()
            yield sim.timeout(self.config.period_ns)

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    def observe(self, name: str, value: float) -> None:
        """Feed an externally produced sample (e.g. one op latency).

        Workload drivers call this at completion time; SLOs can then
        window over the series exactly like over a sampled gauge.
        """
        self._series(name).record(self.machine.sim.now, value)

    def _rate(self, key: str, cumulative: float) -> float:
        """Per-tick delta of a monotonically increasing counter."""
        delta = cumulative - self._prev_cumulative.get(key, 0.0)
        self._prev_cumulative[key] = cumulative
        return delta

    def _gauges(self) -> List[Tuple[str, float]]:
        m = self.machine
        out: List[Tuple[str, float]] = []
        for qp in m.device.queue_pairs():
            prefix = f"nvme.qp{qp.qid}"
            out.append((f"{prefix}.sq_occupancy", qp.sq_occupancy))
            out.append((f"{prefix}.cq_occupancy", qp.cq_occupancy))
            out.append((f"{prefix}.inflight", float(qp.inflight)))
            out.append((f"{prefix}.arb_share",
                        m.device.arbiter.share(qp.qid)))
        out.append(("nvme.device.inflight", float(m.device.inflight)))
        out.append(("kernel.blockio.inflight", float(m.blockio.inflight)))
        out.append(("kernel.blockio.softirq_backlog",
                    float(m.blockio.softirq_backlog)))
        out.append(("kernel.pagecache.hit_rate", m.pagecache.hit_rate))
        out.append(("kernel.pagecache.dirty_pages",
                    float(m.pagecache.dirty_pages)))
        out.append(("fs.journal.depth", float(m.fs.journal.depth)))
        out.append(("cpu.cores.in_use", float(m.cpus.in_use)))
        out.append(("cpu.cores.runnable_waiting",
                    float(m.cpus.runnable_waiting)))
        injected = float(sum(m.faults.counts.values()))
        retries = float(m.blockio.retries + m.volume.retries
                        + sum(lib.retries for lib in m._userlibs))
        out.append(("faults.injected_rate",
                    self._rate("faults.injected", injected)))
        out.append(("faults.retry_rate", self._rate("faults.retries",
                                                    retries)))
        return out

    def sample(self) -> None:
        """Take one snapshot now (the sampler's tick body)."""
        now = self.machine.sim.now
        self.samples_taken += 1
        for name, value in self._gauges():
            self._series(name).record(now, value)
        self._evaluate_slos(now)

    # -- SLO evaluation ------------------------------------------------

    def _evaluate_slos(self, now: int) -> None:
        for slo in self.config.slos:
            series = self.series.get(slo.series)
            violated = False
            value = 0.0
            if series is not None and len(series):
                if slo.window_ns:
                    # +1: `between` is half-open, a sample taken at
                    # exactly `now` belongs to this window.
                    vals = series.between(now - slo.window_ns, now + 1)
                else:
                    vals = [series.latest[1]]
                if vals:
                    value = slo.apply(vals)
                    violated = value >= slo.limit
            if violated:
                self.breach_ticks[slo.name] += 1
                if not self._in_breach.get(slo.name, False):
                    self.breaches.append(Breach(now, slo.name, value))
                    self.machine.tracer.record("slo",
                                               f"breach:{slo.name}",
                                               now, now)
            self._in_breach[slo.name] = violated

    @property
    def breach_count(self) -> int:
        return len(self.breaches)

    # -- tail exemplars ------------------------------------------------

    def exemplars(self) -> Optional[Dict[int, list]]:
        """Per-tenant tail exemplars, or None when capture is off.

        Requires ``exemplars=ExemplarConfig(...)`` in the monitor
        config *and* a real tracer on the machine (the reservoir folds
        recorded span trees).  Pure observer: reads the trace, mutates
        nothing."""
        if self.config.exemplars is None:
            return None
        tracer = self.machine.tracer
        if not getattr(tracer, "enabled", False):
            return None
        # Imported here, not at module level: exemplar pulls in the
        # exporters, which a run without exemplar capture never needs.
        from .exemplar import capture_exemplars
        return capture_exemplars(tracer, self.config.exemplars)

    # -- dumps ---------------------------------------------------------

    def telemetry(self) -> dict:
        """Deterministic telemetry dump (the golden-file format)."""
        gauges = {}
        for name in sorted(self.series):
            series = self.series[name]
            gauges[name] = {
                "samples": [[t, v] for t, v in series.samples],
                "summary": series.summary(),
            }
        slos = []
        for slo in self.config.slos:
            slos.append({
                "name": slo.name,
                "series": slo.series,
                "limit": slo.limit,
                "reduce": slo.reduce,
                "window_ns": slo.window_ns,
                "breach_ticks": self.breach_ticks[slo.name],
                "breaches": [[b.t_ns, b.value] for b in self.breaches
                             if b.slo == slo.name],
            })
        out = {
            "schema": 1,
            "period_ns": self.config.period_ns,
            "phase_ns": self.config.phase_ns,
            "samples_taken": self.samples_taken,
            "end_ns": self.machine.sim.now,
            "gauges": gauges,
            "slos": slos,
        }
        # Present only when exemplar capture is configured, so dumps
        # without it stay byte-identical to the committed goldens.
        exemplars = self.exemplars()
        if exemplars is not None:
            out["exemplars"] = {
                str(tid): [ex.to_dict() for ex in exemplars[tid]]
                for tid in sorted(exemplars)
            }
        return out

    def telemetry_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.telemetry(), sort_keys=True,
                          indent=indent,
                          separators=None if indent else (",", ":"))

    def write_telemetry(self, path, indent: int = 1) -> str:
        text = self.telemetry_json(indent=indent)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return text

    # -- rendering -----------------------------------------------------

    def report(self, width: int = 28) -> str:
        """Human telemetry section: sparklines plus the breach table."""
        cfg = self.config
        lines = [f"telemetry: {self.samples_taken} samples @ "
                 f"{cfg.period_ns} ns (phase {cfg.phase_ns} ns)"]
        for name in sorted(self.series):
            series = self.series[name]
            vals = series.values()
            if not vals or max(vals) <= 0.0:
                continue
            lines.append(f"  {name:<32} {sparkline(series, width)} "
                         f"max {max(vals):g}")
        if cfg.slos:
            lines.append(f"SLO breaches: {self.breach_count}")
            if self.breaches:
                lines.append(f"  {'t_ns':>12}  {'slo':<24} value")
                for b in self.breaches:
                    lines.append(f"  {b.t_ns:>12}  {b.slo:<24} "
                                 f"{b.value:g}")
        exemplars = self.exemplars()
        if exemplars is not None:
            lines.append(f"tail exemplars (p{cfg.exemplars.percentile:g}"
                         f", window {cfg.exemplars.capacity}):")
            from .exemplar import render_exemplars
            text = render_exemplars(exemplars)
            lines.extend("  " + ln for ln in text.splitlines())
        return "\n".join(lines)


def sparkline(series: TimeSeries, width: int = 28) -> str:
    """Render a TimeSeries as a fixed-width unicode sparkline.

    Samples are bucketed by time (max per bucket) and scaled against
    the series maximum; empty buckets render as spaces.  Purely a
    function of the samples, hence deterministic.
    """
    if not series.samples or width < 1:
        return " " * width
    t0 = series.samples[0][0]
    t1 = series.samples[-1][0]
    span = max(1, t1 - t0 + 1)
    buckets: List[Optional[float]] = [None] * width
    for t, v in series.samples:
        idx = min(width - 1, (t - t0) * width // span)
        prev = buckets[idx]
        buckets[idx] = v if prev is None else max(prev, v)
    top = max(v for v in buckets if v is not None)
    out = []
    for v in buckets:
        if v is None:
            out.append(" ")
        elif top <= 0.0:
            out.append(_SPARK_BLOCKS[0])
        else:
            rank = int(v / top * (len(_SPARK_BLOCKS) - 1))
            out.append(_SPARK_BLOCKS[rank])
    return "".join(out)


def resolve_monitor_config(
    monitor: Union[bool, MonitorConfig, None],
) -> Tuple[Optional[MonitorConfig], bool]:
    """Map Machine's ``monitor=`` argument to (config, is_ambient).

    ``None`` defers to the ambient config (installed by
    ``repro.bench --monitor``), ``True`` means defaults, ``False``
    forces monitoring off regardless of the ambient setting.
    """
    if monitor is None:
        config = default_monitor()
        return config, config is not None
    if monitor is True:
        return MonitorConfig(), False
    if monitor is False:
        return None, False
    return monitor, False
