"""Causality over span trees: device work must be provably nested
under the host operation that caused it, and retry loops must leave
exactly as many device spans as the fault counters claim."""

from repro import GiB, Machine
from repro.baselines.registry import make_engine
from repro.faults import FaultPlan
from repro.obs.export import ancestor_chain, span_index


def _machine(faults=None):
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                   capture_data=False, trace=True, faults=faults)


def _run_reads(m, engine_name, ops=4):
    """Materialize a file, then read; only the reads are in-window."""
    from repro.apps.workload_utils import materialize_file

    proc = m.spawn_process("cause")
    engine = make_engine(m, proc, engine_name)
    t = proc.new_thread("cause-0")

    def body():
        yield from materialize_file(m, proc, engine, "/f", 1 << 20)
        f = yield from engine.open(t, "/f")
        m.tracer.clear()  # setup wrote only metadata; reads start clean
        for i in range(ops):
            yield from f.pread(t, i * 4096, 4096)

    m.run_process(body())
    return m.tracer


def _group(spans, key):
    out = {}
    for s in spans:
        out.setdefault(getattr(s, key), []).append(s)
    return out


def _by_category(spans):
    return _group(spans, "category")


class TestNesting:
    def test_sync_device_within_driver_within_syscall(self):
        tracer = _run_reads(_machine(), "sync", ops=4)
        index = span_index(tracer.spans)
        cats = _by_category(tracer.spans)
        assert len(cats["nvme"]) > 0
        for nvme_span in cats["nvme"]:
            chain = ancestor_chain(nvme_span, index)
            chain_cats = [s.category for s in chain]
            assert "device" in chain_cats
            assert "syscall" in chain_cats
            # Time containment, innermost out: nvme ⊂ device ⊂ syscall.
            for outer in chain:
                assert outer.start_ns <= nvme_span.start_ns
                assert nvme_span.end_ns <= outer.end_ns
        # All spans of one read share its trace id.
        for spans in _group(tracer.spans, "trace_id").values():
            roots = [s for s in spans if s.is_root]
            assert len(roots) == 1
            assert roots[0].category == "syscall"

    def test_bypassd_device_within_op_no_syscall(self):
        ops = 4
        tracer = _run_reads(_machine(), "bypassd", ops=ops)
        cats = _by_category(tracer.spans)
        assert "syscall" not in cats          # no kernel on the data path
        assert len(cats["op"]) == ops
        assert len(cats["device"]) == ops
        index = span_index(tracer.spans)
        for nvme_span in cats["nvme"]:
            chain_cats = [s.category for s in
                          ancestor_chain(nvme_span, index)]
            assert "device" in chain_cats
            assert chain_cats[-1] == "op"     # root of the tree
        assert len(_group(tracer.spans, "trace_id")) == ops  # one per pread


class TestRetrySpans:
    """Under an injected media error the span tree must show the retry:
    N+1 device attempts under one operation, matching the Stats
    counters and the injector's counts exactly."""

    def test_sync_retry_produces_two_device_spans(self):
        m = _machine(faults=FaultPlan().media_read_errors(nth=1, count=1))
        tracer = _run_reads(m, "sync", ops=1)
        cats = _by_category(tracer.spans)
        stats = m.stats()
        assert stats.driver_retries == 1
        assert stats.injected["media_read_error"] == 1
        # One syscall span, two device attempts beneath it.
        assert len(cats["syscall"]) == 1
        assert len(cats["device"]) == 1 + stats.driver_retries
        index = span_index(tracer.spans)
        syscall_id = cats["syscall"][0].span_id
        for dev in cats["device"]:
            chain_ids = [s.span_id for s in ancestor_chain(dev, index)]
            assert syscall_id in chain_ids
        # The injector recorded the fault as a span too...
        assert len(cats["fault"]) == 1
        # ...and counted it once, where Stats reads it.
        assert m.faults.counts["media_read_error"] == 1

    def test_bypassd_retry_produces_two_device_spans(self):
        m = _machine(faults=FaultPlan().media_read_errors(nth=1, count=1))
        tracer = _run_reads(m, "bypassd", ops=1)
        cats = _by_category(tracer.spans)
        stats = m.stats()
        assert stats.userlib_io_retries == 1
        assert len(cats["op"]) == 1
        assert len(cats["device"]) == 1 + stats.userlib_io_retries
        op_id = cats["op"][0].span_id
        index = span_index(tracer.spans)
        for dev in cats["device"]:
            chain_ids = [s.span_id for s in ancestor_chain(dev, index)]
            assert op_id in chain_ids
        assert m.faults.counts["media_read_error"] == 1

