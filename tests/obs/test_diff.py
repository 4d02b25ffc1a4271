"""Trace-diff tests: span round-trip through Chrome JSON, hand-built
forest attribution, and the end-to-end
acceptance run — two pinned workloads, one with injected media-error
retries, where ``scripts/trace_diff.py`` must attribute >=90% of the
latency delta to the retry layer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import GiB, Machine
from repro.apps.fio import FioJob, run_fio
from repro.faults import FaultPlan
from repro.obs.diff import (
    diff_dumps,
    diff_traces,
    load_dump,
    op_roots,
    render_diff,
    spans_from_chrome_trace,
)
from repro.obs.export import chrome_trace_json
from repro.sim.spans import Span

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TRACE_DIFF = REPO_ROOT / "scripts" / "trace_diff.py"


def _op(span_id, start, end, category="op", parent=0, **attrs):
    return Span(category, "pread", start, end, span_id=span_id,
                parent_id=parent, trace_id=span_id,
                tid=3, attrs=tuple(sorted(attrs.items())))


# -- round-trip -------------------------------------------------------------

class TestRoundTrip:
    def test_spans_survive_chrome_json(self):
        spans = [
            _op(1, 0, 10_000),
            Span("device", "wait", 2_000, 9_000, span_id=2, parent_id=1,
                 trace_id=1, tid=-1, attrs=(("lba", 8),)),
        ]
        doc = json.loads(chrome_trace_json(spans))
        back = sorted(spans_from_chrome_trace(doc),
                      key=lambda s: s.span_id)
        # tid is exported as the synthetic DEVICE_TID for device-side
        # spans and stays that way; everything the diff uses survives.
        assert [(s.category, s.label, s.start_ns, s.end_ns, s.span_id,
                 s.parent_id, s.trace_id, s.attrs) for s in back] \
            == [(s.category, s.label, s.start_ns, s.end_ns, s.span_id,
                 s.parent_id, s.trace_id, s.attrs) for s in spans]
        assert back[1].tid == 999  # DEVICE_TID

    def test_odd_nanoseconds_round_exactly(self):
        # 1/1000 us floats must round back to exact integer ns.
        spans = [_op(1, 1_234_567, 1_234_567 + 7_891)]
        back = spans_from_chrome_trace(
            json.loads(chrome_trace_json(spans)))
        assert back[0].start_ns == 1_234_567
        assert back[0].duration_ns == 7_891

    def test_load_dump_dispatch(self, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text(chrome_trace_json([_op(1, 0, 5)]),
                         encoding="utf-8")
        assert len(load_dump(trace)) == 1
        for content in ("{}", json.dumps({"workloads": {}})):
            bad = tmp_path / "bad.json"
            bad.write_text(content, encoding="utf-8")
            with pytest.raises(ValueError):
                load_dump(bad)

    def test_mixed_kinds_refuse_to_diff(self, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text(chrome_trace_json([_op(1, 0, 5)]),
                         encoding="utf-8")
        # Only traces diff: a metrics payload is refused, not misread.
        perf = tmp_path / "p.json"
        perf.write_text(json.dumps({"workloads": {}}), encoding="utf-8")
        with pytest.raises(ValueError):
            diff_dumps(trace, perf)


# -- hand-built trace diffs -------------------------------------------------

class TestDiffTraces:
    def test_layer_attribution(self):
        # Baseline: op 100ns with a 60ns kernel child.  Current: same
        # op but the kernel child grew to 90ns (op 130ns).
        base = [_op(1, 0, 100),
                Span("syscall", "pread", 10, 70, span_id=2, parent_id=1,
                     trace_id=1, tid=3)]
        cur = [_op(1, 0, 130),
               Span("syscall", "pread", 10, 100, span_id=2, parent_id=1,
                    trace_id=1, tid=3)]
        result = diff_traces(base, cur)
        assert result["delta"]["total_ns"] == 30
        assert result["layers"]["syscall"]["delta_ns"] == 30
        assert result["layers"]["syscall"]["share_of_delta"] == 1.0
        assert result["layers"]["op"]["delta_ns"] == 0
        assert result["attribution"]["retry"]["extra_attempts"] == 0

    def test_retry_attribution_includes_backoff_gap(self):
        # Baseline: one device attempt 20..80.  Current: the same op
        # retries — attempts 20..80 and 100..160 with a 20ns backoff
        # gap; the retry window is last end - first start = 140 vs 60.
        base = [_op(1, 0, 100),
                Span("device", "wait", 20, 80, span_id=2, parent_id=1,
                     trace_id=1, tid=-1)]
        cur = [_op(1, 0, 180),
               Span("device", "wait", 20, 80, span_id=2, parent_id=1,
                    trace_id=1, tid=-1),
               Span("device", "wait", 100, 160, span_id=3, parent_id=1,
                    trace_id=1, tid=-1)]
        result = diff_traces(base, cur)
        retry = result["attribution"]["retry"]
        assert retry["extra_attempts"] == 1
        assert retry["delta_ns"] == 80  # 140 - 60, includes the gap
        assert retry["share_of_delta"] == 1.0

    def test_unpaired_tails_reported_not_diffed(self):
        base = [_op(1, 0, 100)]
        cur = [_op(1, 0, 100), _op(9, 500, 700)]
        result = diff_traces(base, cur)
        assert result["unpaired"] == {"baseline": 0, "current": 1}
        assert result["delta"]["total_ns"] == 0

    def test_op_roots_filters_and_orders(self):
        spans = [
            _op(3, 200, 300),
            _op(1, 0, 100),
            _op(2, 0, 0),           # zero duration: dropped
            Span("nvme", "media", 0, 50, span_id=4, parent_id=0,
                 trace_id=4, tid=-1),   # not an op category
            Span("syscall", "pread", 50, 80, span_id=5, parent_id=0,
                 trace_id=5, tid=3),    # kernel-engine root counts
        ]
        roots = op_roots(spans)
        assert [s.span_id for s in roots] == [1, 5, 3]

    def test_render_diff_smoke(self):
        base = [_op(1, 0, 100)]
        cur = [_op(1, 0, 120)]
        text = render_diff(diff_traces(base, cur))
        assert "1 ops aligned" in text
        assert "retry layer" in text


# -- acceptance: CLI attributes the regression to retries -------------------

def _traced_run(tmp_path, name, faults=None):
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                trace=True, capture_data=False, faults=faults)
    job = FioJob(engine="sync", rw="randread", block_size=4096,
                 file_size=8 << 20, threads=1, ops_per_thread=32,
                 seed=11)
    run_fio(m, job)
    path = tmp_path / f"{name}.trace.json"
    m.write_chrome_trace(path)
    return path


def test_trace_diff_cli_attributes_retries(tmp_path):
    """Acceptance: two pinned runs, the current one with injected
    media-error retries; the CLI's machine-readable JSON attributes
    >=90% of the latency delta to the retry layer."""
    base = _traced_run(tmp_path, "base")
    cur = _traced_run(tmp_path, "cur",
                      faults=FaultPlan(seed=3).media_read_errors(nth=5))
    out_json = tmp_path / "diff.json"
    proc = subprocess.run(
        [sys.executable, str(TRACE_DIFF), "--machine",
         "--json", str(out_json), str(base), str(cur)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["kind"] == "trace"
    assert result["delta"]["total_ns"] > 0
    retry = result["attribution"]["retry"]
    assert retry["extra_attempts"] >= 1
    assert retry["share_of_delta"] >= 0.9
    # --json wrote the identical machine-readable result.
    assert json.loads(out_json.read_text(encoding="utf-8")) == result


def test_trace_diff_cli_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    for content in ("{}", "3"):
        bad.write_text(content, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(TRACE_DIFF), str(bad), str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
