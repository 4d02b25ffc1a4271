"""Acceptance tests for latency attribution: waterfalls, their fold
into the user / kernel / device split, tail exemplars and flow events.

Three contracts are pinned here:

* **conservation** — every op's waterfall segments partition the op's
  interval exactly (quickstart, the two-tenant Fig. 10 workload, and
  the perf breakdown on every engine), and an injected retry scenario
  attributes >= 90% of the p99 delta to the ``retry_backoff`` wait
  state;
* **determinism** — same-seed runs dump byte-identical waterfall,
  exemplar and flow-event artifacts;
* **observer purity** — capturing attribution never perturbs the
  trace it reads (the simlint SIM019 rule enforces the static side;
  here we pin the dynamic side on real workloads).
"""

import json

import pytest

from repro import GiB, Machine
from repro.apps.fio import FioJob, run_fio
from repro.faults import FaultPlan
from repro.obs.attribution import (SERVICE, build_waterfall, op_roots,
                                   waterfalls, waterfalls_json)
from repro.obs.exemplar import (ExemplarConfig, capture_exemplars,
                                exemplars_json, top_exemplars)
from repro.obs.export import (children_map, chrome_trace_json,
                              flow_events)
from repro.obs.monitor import MonitorConfig
from repro.obs.perf import PerfConfig, measure_breakdown
from repro.sim.stats import percentile
from repro.sim.spans import Span
from repro.sim.trace import WAIT_KINDS, WAIT_PREFIX


# -- workloads ---------------------------------------------------------------

def _quickstart_machine(faults=None):
    """The README quickstart shape: append, reads, write, fsync."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True, faults=faults)
    proc = m.spawn_process("app")
    lib = m.userlib(proc)
    t = proc.new_thread("app-0")

    def body():
        f = yield from lib.open(t, "/data", write=True, create=True)
        yield from f.append(t, 8192, b"x" * 8192)
        for i in range(4):
            yield from f.pread(t, (i * 2048) % 8192, 4096)
        yield from f.pwrite(t, 0, 4096)
        yield from f.fsync(t)
        yield from f.close(t)

    m.run_process(body())
    return m


def _pread_machine(faults=None, ops=32):
    """A flat pread loop — the retry-injection scenario's substrate."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True, faults=faults)
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/x", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0, 1 << 20)
        for i in range(ops):
            yield from f.pread(t, (i * 4096) % (1 << 20), 4096)

    m.run_process(body())
    return m


def _two_tenant_machine(monitor=False):
    """Two tenants sharing one device (Fig. 10 shape)."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True, monitor=monitor)
    job = FioJob(engine="bypassd", rw="randwrite", block_size=4096,
                 file_size=8 << 20, threads=1, processes=2,
                 ops_per_thread=40, seed=42)
    run_fio(m, job)
    return m


# -- conservation ------------------------------------------------------------

def test_quickstart_waterfalls_conserve_time():
    """Every quickstart op folds into segments that sum *exactly* to
    the op's duration, with no gaps or overlaps."""
    m = _quickstart_machine()
    folded = waterfalls(m.tracer)
    assert len(folded) >= 7          # open, append, 4 preads, pwrite...
    for wf in folded:
        wf.check()                   # raises on any violation
        assert wf.segments_total_ns == wf.duration_ns
        assert sum(wf.by_kind().values()) == wf.duration_ns
        assert sum(wf.by_layer().values()) == wf.duration_ns


def test_two_tenant_waterfalls_conserve_and_attribute_contention():
    """The Fig. 10 two-tenant workload conserves per-op time too, and
    the contention (two queues piling onto one device) surfaces as
    stamped wait segments, not just longer service."""
    m = _two_tenant_machine()
    spans = [s for s in m.tracer.spans if s.category != "slo"]
    folded = waterfalls(spans)
    assert len(folded) >= 80         # 2 processes x 40 ops + setup
    kinds = set()
    for wf in folded:
        wf.check()
        kinds.update(k for k in wf.by_kind() if k != SERVICE)
    assert kinds, "contention run stamped no wait states at all"
    # Every stamped kind is from the declared catalogue.
    for kind in kinds:
        assert kind.startswith(WAIT_PREFIX)
        assert kind[len(WAIT_PREFIX):] in WAIT_KINDS


def test_injected_retry_attributes_p99_delta_to_backoff():
    """Acceptance: inject one media read error mid-run; the p99 delta
    versus the clean baseline must be >= 90% attributed to the
    ``retry_backoff`` wait state in the affected op's waterfall."""
    base = _pread_machine()
    fault = _pread_machine(FaultPlan().media_read_errors(nth=16))

    def op_durations(m):
        return [wf for wf in waterfalls(m.tracer)
                if wf.op == "op/pread"]

    base_wfs = op_durations(base)
    fault_wfs = op_durations(fault)
    assert len(base_wfs) == len(fault_wfs) == 32

    base_p99 = int(percentile([w.duration_ns for w in base_wfs], 99))
    fault_p99 = int(percentile([w.duration_ns for w in fault_wfs], 99))
    delta = fault_p99 - base_p99
    assert delta > 0, "injected retry did not move the tail"

    # The slowest op is the one that retried; its waterfall pins the
    # blame on backoff, not on inflated device service time.
    slow = max(fault_wfs, key=lambda w: w.duration_ns)
    assert slow.duration_ns == fault_p99
    backoff = slow.by_kind().get(WAIT_PREFIX + "retry_backoff", 0)
    assert backoff >= 0.9 * delta, (
        f"retry_backoff explains only {backoff} of {delta} ns "
        f"({backoff / delta:.1%})")
    # And the clean baseline has no backoff anywhere.
    for wf in base_wfs:
        assert WAIT_PREFIX + "retry_backoff" not in wf.by_kind()


# -- determinism -------------------------------------------------------------

def test_attribution_artifacts_are_byte_identical():
    """Same seed, two fresh machines: waterfall JSON, exemplar JSON
    and the flow-event Chrome trace all match byte for byte."""
    a = _quickstart_machine()
    b = _quickstart_machine()
    assert waterfalls_json(a.tracer) == waterfalls_json(b.tracer)
    cfg = ExemplarConfig(percentile=90.0, capacity=3, warmup=4)
    assert exemplars_json(capture_exemplars(a.tracer, cfg)) == \
        exemplars_json(capture_exemplars(b.tracer, cfg))
    assert chrome_trace_json(a.tracer, flows=True) == \
        chrome_trace_json(b.tracer, flows=True)


def test_attribution_is_a_pure_observer():
    """Folding waterfalls and capturing exemplars must not change the
    trace it reads (the dynamic counterpart of simlint SIM019)."""
    m = _quickstart_machine()
    before = chrome_trace_json(m.tracer)
    for wf in waterfalls(m.tracer):
        wf.check()
    capture_exemplars(m.tracer, ExemplarConfig(percentile=50.0,
                                               capacity=2, warmup=2))
    flow_events(m.tracer.spans)
    assert chrome_trace_json(m.tracer) == before


# -- flow events -------------------------------------------------------------

def test_flow_events_link_submission_to_completion():
    m = _quickstart_machine()
    flows = flow_events(m.tracer.spans)
    assert flows, "quickstart drove no device I/O?"
    by_id = {}
    for ev in flows:
        by_id.setdefault(ev["id"], []).append(ev)
    for evs in by_id.values():
        phases = [ev["ph"] for ev in evs]
        assert phases[0] == "s" and phases[-1] == "f"
        assert phases.count("s") == 1 and phases.count("f") == 1
        assert "t" in phases          # at least one device-phase step
        ts = [ev["ts"] for ev in evs]
        assert ts == sorted(ts)
        assert all(ev["cat"] == "io-flow" for ev in evs)
        assert all(ev["name"] == "submit->complete" for ev in evs)


def test_flow_export_is_opt_in():
    """``flows=False`` (the default) keeps the exporter's old bytes,
    so golden traces stay stable."""
    m = _quickstart_machine()
    assert '"io-flow"' not in chrome_trace_json(m.tracer)
    assert '"io-flow"' in chrome_trace_json(m.tracer, flows=True)


# -- exemplar reservoir semantics --------------------------------------------

def _op(i, dur, tid=0):
    start = i * 10_000
    return Span("op", "read", start, start + dur, span_id=i + 1,
                parent_id=0, trace_id=i + 1, tid=tid)


def test_exemplar_warmup_gates_capture():
    """Even huge ops are not captured before ``warmup`` samples."""
    spans = [_op(i, 1_000_000) for i in range(4)]
    cfg = ExemplarConfig(percentile=50.0, capacity=4, warmup=4)
    assert capture_exemplars(spans, cfg) == {}


def test_exemplar_threshold_and_trailing_window():
    """Ops below the percentile bucket's lower bound are skipped; the
    window keeps only the most recent ``capacity`` qualifiers."""
    spans = [_op(i, 1000) for i in range(4)]           # warmup
    spans.append(_op(4, 10))                           # below threshold
    spans.extend(_op(i, 5000) for i in range(5, 8))    # three qualifiers
    cfg = ExemplarConfig(percentile=90.0, capacity=2, warmup=4)
    out = capture_exemplars(spans, cfg)
    assert list(out) == [0]
    window = out[0]
    # Trailing window: the first qualifier (op 5) was evicted.
    assert [ex.start_ns for ex in window] == [60_000, 70_000]
    for ex in window:
        assert ex.duration_ns == 5000
        assert 0 < ex.threshold_ns <= ex.duration_ns
        ex.waterfall.check()


def test_exemplar_reservoirs_are_per_tenant():
    """Each tid warms up and thresholds independently."""
    spans = [_op(i, 1000, tid=0) for i in range(5)]
    spans.append(_op(5, 5000, tid=0))                  # qualifies, tid 0
    spans.extend(_op(10 + i, 9000, tid=1) for i in range(2))
    cfg = ExemplarConfig(percentile=50.0, capacity=4, warmup=4)
    out = capture_exemplars(spans, cfg)
    # tid 1 never finished warm-up despite its huge ops.
    assert list(out) == [0]
    assert all(ex.tid == 0 for ex in out[0])


def test_top_exemplars_orders_across_tenants():
    spans = [_op(i, 100, tid=0) for i in range(4)]
    spans += [_op(10 + i, 100, tid=1) for i in range(4)]
    spans.append(_op(20, 900, tid=0))
    spans.append(_op(21, 700, tid=1))
    cfg = ExemplarConfig(percentile=50.0, capacity=4, warmup=4)
    out = capture_exemplars(spans, cfg)
    top = top_exemplars(out, n=2)
    assert [ex.duration_ns for ex in top] == [900, 700]


def test_exemplars_json_shape():
    m = _two_tenant_machine()
    cfg = ExemplarConfig(percentile=90.0, capacity=3, warmup=8)
    doc = json.loads(exemplars_json(capture_exemplars(m.tracer, cfg)))
    assert doc, "two-tenant run captured no tail exemplars"
    for tid, window in doc.items():
        int(tid)                     # keys are stringified tids
        for ex in window:
            assert ex["duration_ns"] >= ex["threshold_ns"]
            segs = ex["waterfall"]["segments"]
            total = sum(s["end_ns"] - s["start_ns"] for s in segs)
            assert total == ex["duration_ns"]
            assert "op/" in ex["tree"] or "syscall" in ex["tree"]


# -- monitor integration -----------------------------------------------------

def test_monitor_exemplars_key_gated_on_config():
    """Telemetry dumps grow an ``exemplars`` key only when capture is
    configured — existing golden telemetry stays byte-identical."""
    off = _two_tenant_machine(monitor=MonitorConfig())
    assert "exemplars" not in off.monitor.telemetry()

    cfg = MonitorConfig(exemplars=ExemplarConfig(percentile=90.0,
                                                 capacity=2, warmup=8))
    on = _two_tenant_machine(monitor=cfg)
    doc = on.monitor.telemetry()
    assert "exemplars" in doc
    assert doc["exemplars"], "no tail exemplars in the telemetry dump"
    rendered = on.monitor.report()
    assert "tail exemplars" in rendered


# -- the user / kernel / device fold ----------------------------------------

@pytest.mark.parametrize("engine", ["sync", "io_uring", "libaio",
                                    "bypassd"])
def test_every_engine_breakdown_adds_up(engine):
    """Each measured read is one op root whose waterfall conserves
    time, the three sides sum to the mean latency, and every kernel
    path (io_uring's SQ poller included) books kernel time."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True)
    config = PerfConfig(f"fold-{engine}", engine=engine, ops=8,
                        file_size=1 << 20)
    b = measure_breakdown(config, machine=m)
    folded = waterfalls(m.tracer)
    assert len(folded) == config.ops
    for wf in folded:
        wf.check()
    assert b.user_ns + b.kernel_ns + b.device_ns == \
        pytest.approx(b.mean_ns, rel=1e-12)
    if engine == "bypassd":
        assert b.kernel_ns == 0
    else:
        assert b.kernel_ns > 0
