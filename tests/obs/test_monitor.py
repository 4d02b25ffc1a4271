"""Telemetry monitor tests: sampler cadence, gauge coverage, SLO
edge-triggering, telemetry dumps, ambient config, and sparklines."""

import json

import pytest

from repro import GiB, Machine
from repro.apps.fio import FioJob, run_fio
from repro.obs.monitor import (
    DEFAULT_PERIOD_NS,
    DEFAULT_PHASE_NS,
    GAUGE_NAME_RE,
    SLO,
    Monitor,
    MonitorConfig,
    default_monitor,
    drain_ambient_monitors,
    resolve_monitor_config,
    set_default_monitor,
    sparkline,
)
from repro.sim.stats import TimeSeries


def _machine(**kw):
    kw.setdefault("capacity_bytes", 1 * GiB)
    kw.setdefault("memory_bytes", 256 << 20)
    kw.setdefault("capture_data", False)
    return Machine(**kw)


def _small_fio(m, **kw):
    job = FioJob(engine="bypassd", rw="randread", block_size=4096,
                 file_size=8 << 20, threads=2, ops_per_thread=30,
                 seed=7, **kw)
    return run_fio(m, job)


class TestSampler:
    def test_ticks_at_phase_plus_period(self):
        m = _machine(monitor=True)
        _small_fio(m)
        mon = m.monitor
        assert mon is not None
        assert mon.samples_taken > 0
        # Every gauge series carries one sample per tick, stamped at
        # phase + k * period.
        series = mon.series["nvme.device.inflight"]
        stamps = [t for t, _ in series.samples]
        assert len(stamps) == mon.samples_taken
        assert all(
            (t - DEFAULT_PHASE_NS) % DEFAULT_PERIOD_NS == 0
            for t in stamps)

    def test_gauge_coverage_and_naming(self):
        m = _machine(monitor=True)
        _small_fio(m)
        names = set(m.monitor.series)
        for expected in ("nvme.device.inflight",
                         "kernel.blockio.inflight",
                         "kernel.blockio.softirq_backlog",
                         "kernel.pagecache.hit_rate",
                         "kernel.pagecache.dirty_pages",
                         "fs.journal.depth",
                         "cpu.cores.in_use",
                         "faults.injected_rate",
                         "faults.retry_rate"):
            assert expected in names
        assert any(n.startswith("nvme.qp") and n.endswith(".inflight")
                   for n in names)
        # The whole gauge set follows the documented scheme (SIM012).
        assert all(GAUGE_NAME_RE.match(n) for n in names)

    def test_run_terminates_with_monitor(self):
        # The periodic sampler must never keep the simulation alive.
        m = _machine(monitor=True)
        _small_fio(m)
        assert m.sim.now > 0  # completed, did not hang / extend


class TestSLO:
    def _mon(self, m, **slo_kw):
        slo_kw.setdefault("name", "latency")
        slo_kw.setdefault("series", "app.lat_ns")
        slo_kw.setdefault("limit", 10.0)
        return Monitor(m, MonitorConfig(slos=(SLO(**slo_kw),)))

    def test_edge_triggered_breaches(self):
        m = _machine(trace=True)
        mon = self._mon(m)
        for v in (5.0, 15.0, 20.0, 3.0, 12.0):
            mon.observe("app.lat_ns", v)
            mon.sample()
        # Two excursions (15,20 then 12) -> two Breach records, but
        # three violating ticks.
        assert [b.value for b in mon.breaches] == [15.0, 12.0]
        assert mon.breach_ticks["latency"] == 3
        assert mon.breach_count == 2

    def test_breaches_land_in_tracer_and_metrics(self):
        m = _machine(trace=True)
        mon = self._mon(m)
        mon.observe("app.lat_ns", 99.0)
        mon.sample()
        spans = [s for s in m.tracer.spans if s.category == "slo"]
        assert len(spans) == 1
        assert spans[0].label == "breach:latency"
        assert spans[0].start_ns == spans[0].end_ns
        assert [(b.slo, b.value) for b in mon.breaches] == \
            [("latency", 99.0)]

    def test_windowed_reduction(self):
        m = _machine()
        mon = self._mon(m, reduce="mean", window_ns=1_000_000)
        # Mean of (4, 8) = 6 < 10: no breach; add 30 -> mean 14: breach.
        mon.observe("app.lat_ns", 4.0)
        mon.observe("app.lat_ns", 8.0)
        mon.sample()
        assert mon.breach_count == 0
        mon.observe("app.lat_ns", 30.0)
        mon.sample()
        assert mon.breach_count == 1
        assert mon.breaches[0].value == pytest.approx(14.0)

    def test_percentile_reducer_and_unknown_reducer(self):
        assert SLO("s", "x", 1.0, reduce="p50").apply([1.0, 2.0, 9.0]) \
            == 2.0
        with pytest.raises(ValueError):
            SLO("s", "x", 1.0, reduce="median").apply([1.0])

    @pytest.mark.parametrize("reduce", ["p99.9x", "p150", "p", "p1e1",
                                        "P99", ""])
    def test_invalid_reducer_rejected_when_built(self, reduce):
        # Caught at construction, not at the first sampler tick with
        # data, where it would raise inside the observer process.
        with pytest.raises(ValueError, match="unknown SLO reducer"):
            SLO("x", "a.b", 1.0, reduce=reduce)

    @pytest.mark.parametrize("reduce", ["max", "mean", "p0", "p99",
                                        "p99.9", "p100"])
    def test_valid_reducers_accepted(self, reduce):
        slo = SLO("x", "a.b", 1.0, reduce=reduce)
        assert slo.apply([1.0, 2.0, 3.0]) >= 1.0

    def test_missing_series_never_breaches(self):
        m = _machine()
        mon = self._mon(m, series="never.observed")
        mon.sample()
        assert mon.breach_count == 0

    def test_slo_breaches_surface_in_stats(self):
        cfg = MonitorConfig(slos=(SLO("latency", "app.lat_ns", 10.0),))
        m = _machine(monitor=cfg)
        mon = m.monitor
        mon.observe("app.lat_ns", 50.0)
        mon.sample()
        stats = m.stats()
        assert stats.slo_breaches == 1
        assert stats.summary()["slo_breaches"] == 1


class TestTelemetryDump:
    def test_dump_shape_and_determinism(self, tmp_path):
        def once():
            m = _machine(monitor=True)
            _small_fio(m)
            return m.monitor.telemetry_json(indent=1)

        a = once()
        assert a == once()  # byte-identical across same-seed runs
        doc = json.loads(a)
        assert doc["schema"] == 1
        assert doc["period_ns"] == DEFAULT_PERIOD_NS
        assert doc["samples_taken"] >= 1
        for name, g in doc["gauges"].items():
            assert GAUGE_NAME_RE.match(name)
            assert g["summary"]["count"] == len(g["samples"])

    def test_write_telemetry(self, tmp_path):
        m = _machine(monitor=True)
        _small_fio(m)
        path = tmp_path / "telemetry.json"
        text = m.write_telemetry(path)
        assert path.read_text(encoding="utf-8") == text + "\n"
        json.loads(text)

    def test_write_telemetry_without_monitor_raises(self, tmp_path):
        m = _machine()
        with pytest.raises(ValueError):
            m.write_telemetry(tmp_path / "x.json")

    def test_report_contains_sparklines_and_breaches(self):
        m = _machine(monitor=True)
        _small_fio(m)
        text = m.monitor.report()
        assert text.startswith("telemetry:")
        assert "nvme.device.inflight" in text
        # No SLOs configured -> no breach section.
        assert "SLO breaches" not in text


class TestAmbientConfig:
    def test_ambient_round_trip(self):
        cfg = MonitorConfig(slos=(SLO("s", "app.lat_ns", 1.0),))
        set_default_monitor(cfg)
        try:
            assert default_monitor() is cfg
            m = _machine()  # monitor=None defers to ambient
            assert m.monitor is not None
            assert m.monitor.config is cfg
            drained = drain_ambient_monitors()
            assert drained == [m.monitor]
            assert drain_ambient_monitors() == []
            # monitor=False wins over the ambient config.
            off = _machine(monitor=False)
            assert off.monitor is None
        finally:
            set_default_monitor(None)

    def test_resolver_mapping(self):
        assert resolve_monitor_config(False) == (None, False)
        cfg, ambient = resolve_monitor_config(True)
        assert cfg == MonitorConfig() and not ambient
        explicit = MonitorConfig(period_ns=5)
        assert resolve_monitor_config(explicit) == (explicit, False)
        assert resolve_monitor_config(None) == (None, False)


class TestSparkline:
    def test_empty_and_width(self):
        assert sparkline(TimeSeries(), width=5) == "     "

    def test_ramp_peaks_at_last_block(self):
        ts = TimeSeries()
        for t in range(8):
            ts.record(t * 100, float(t))
        line = sparkline(ts, width=8)
        assert len(line) == 8
        assert line[-1] == "█"
        assert line[0] == "▁"

    def test_gaps_render_as_spaces(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        ts.record(1000, 2.0)
        line = sparkline(ts, width=10)
        assert line[0] != " " and line[-1] != " "
        assert set(line[1:-1]) == {" "}
