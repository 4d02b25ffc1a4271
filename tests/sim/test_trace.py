"""Tests for span tracing, including the measured Figure 7 breakdown."""

import pytest

from repro import GiB, Machine
from repro.obs.attribution import fold_sides, waterfalls
from repro.sim.cpu import CPUSet
from repro.sim.engine import Simulator
from repro.sim.spans import Span, TraceError, Tracer
from repro.sim.trace import NULL_TRACER, charge_phases


class FakeThread:
    """The tracer only reads ``thread.tid``."""

    def __init__(self, tid):
        self.tid = tid


class TestTracerUnit:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            Span("user", "x", 100, 50)

    def test_begin_end(self):
        sim = Simulator()
        tracer = Tracer(sim)
        token = tracer.begin("kernel", "vfs")
        sim.timeout(250)
        sim.run()
        tracer.end(token)
        assert [(s.category, s.label, s.duration_ns)
                for s in tracer.spans] == [("kernel", "vfs", 250)]

    def test_context_manager(self):
        sim = Simulator()
        tracer = Tracer(sim)
        with tracer.span("device", "io"):
            sim.timeout(77)
            sim.run()
        assert [(s.category, s.label, s.duration_ns)
                for s in tracer.spans] == [("device", "io", 77)]

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("a", "x", 0, 1)
        tracer.clear()
        assert len(tracer) == 0

    def test_null_tracer_is_silent(self):
        NULL_TRACER.record("a", "b", 0, 1)
        token = NULL_TRACER.begin("a")
        NULL_TRACER.end(token)
        with NULL_TRACER.span("a"):
            pass
        assert not NULL_TRACER.enabled

    def test_null_tracer_full_api(self):
        t = FakeThread(7)
        NULL_TRACER.begin("a", "b", thread=t, parent=(1, 2), attrs=[("k", 1)])
        NULL_TRACER.record("a", "b", 0, 1, thread=t, parent=(1, 2))
        assert NULL_TRACER.current(t) is None

        class Cmd:
            trace = None

        cmd = Cmd()
        NULL_TRACER.stamp(cmd, thread=t)
        assert cmd.trace is None


class TestHierarchy:
    def _tracer(self):
        sim = Simulator()
        return sim, Tracer(sim)

    def test_thread_stack_parenting(self):
        sim, tracer = self._tracer()
        t = FakeThread(3)
        outer = tracer.begin("op", "pread", thread=t)
        sim.timeout(10)
        sim.run()
        inner = tracer.begin("syscall", "pread", thread=t)
        sim.timeout(20)
        sim.run()
        tracer.end(inner)
        tracer.end(outer)
        spans = {s.label + "/" + s.category: s for s in tracer.spans}
        op = spans["pread/op"]
        sc = spans["pread/syscall"]
        assert op.is_root and op.trace_id == op.span_id
        assert sc.parent_id == op.span_id
        assert sc.trace_id == op.trace_id
        assert sc.tid == op.tid == 3

    def test_threads_do_not_share_stacks(self):
        sim, tracer = self._tracer()
        a, b = FakeThread(1), FakeThread(2)
        ta = tracer.begin("op", "a", thread=a)
        tb = tracer.begin("op", "b", thread=b)
        tracer.end(tb)
        tracer.end(ta)
        assert all(s.is_root for s in tracer.spans)
        assert len({s.trace_id for s in tracer.spans}) == 2

    def test_explicit_parent_wins(self):
        sim, tracer = self._tracer()
        t = FakeThread(1)
        outer = tracer.begin("op", "x", thread=t)
        tracer.record("nvme", "media", 0, 5, parent=(42, 17))
        tracer.end(outer)
        media = [s for s in tracer.spans if s.category == "nvme"][0]
        assert media.parent_id == 17
        assert media.trace_id == 42

    def test_current_and_stamp(self):
        from repro.nvme.spec import Command, Opcode

        sim, tracer = self._tracer()
        t = FakeThread(5)
        assert tracer.current(t) is None
        token = tracer.begin("device", "kernel-io", thread=t)
        trace_id, span_id = tracer.current(t)
        assert span_id == token and trace_id == token
        cmd = Command(Opcode.READ, addr=0, nbytes=4096)
        tracer.stamp(cmd, thread=t)
        assert cmd.trace == (trace_id, span_id)
        tracer.end(token)
        assert tracer.current(t) is None

    def test_record_end_before_start_raises(self):
        """Regression: the error must carry the op's trace id."""
        sim, tracer = self._tracer()
        t = FakeThread(1)
        root = tracer.begin("op", "pread", thread=t)
        with pytest.raises(TraceError) as exc:
            tracer.record("nvme", "media", 100, 50, thread=t)
        assert f"trace {root}" in str(exc.value)
        assert "ends before it starts" in str(exc.value)
        tracer.end(root)
        # The malformed span was rejected, the good one kept.
        assert [s.category for s in tracer.spans] == ["op"]

    def test_traceerror_is_a_valueerror(self):
        with pytest.raises(ValueError):
            raise TraceError("x")

    def test_end_unknown_token(self):
        _, tracer = self._tracer()
        with pytest.raises(TraceError):
            tracer.end(12345)

    def test_traces_grouping(self):
        sim, tracer = self._tracer()
        t = FakeThread(1)
        for label in ("a", "b"):
            tok = tracer.begin("op", label, thread=t)
            tracer.record("nvme", "media", 0, 1, thread=t)
            tracer.end(tok)
        groups = {}
        for s in tracer.spans:
            groups.setdefault(s.trace_id, []).append(s)
        assert len(groups) == 2
        for spans in groups.values():
            assert {s.category for s in spans} == {"op", "nvme"}


class TestChargePhases:
    """A fused run is one delay but traces every phase as begin()/end()
    around one delay per phase would."""

    def _spans(self, tracer):
        return [(s.category, s.label, s.start_ns, s.end_ns, s.tid,
                 s.parent_id) for s in tracer.spans]

    def test_thread_run_queue_wait_stays_in_the_first_span(self):
        sim = Simulator()
        tracer = Tracer(sim)
        cpus = CPUSet(sim, 1)
        busy, late = cpus.thread("busy"), cpus.thread("late")
        phases = (("enter", 160), (None, 40), ("vfs", 2810))

        def hog():
            yield from busy.compute(1000)
            busy.release_core()

        def fused():
            token = tracer.begin("syscall", "pread", thread=late)
            yield from charge_phases(sim, phases, thread=late,
                                     tracer=tracer)
            tracer.end(token)

        seq = sim._seq
        sim.process(hog())
        sim.process(fused())
        sim.run()
        root = tracer.spans[-1].span_id
        assert self._spans(tracer)[:2] == [
            ("kernel", "enter", 0, 1160, late.tid, root),
            ("kernel", "vfs", 1200, 4010, late.tid, root)]
        assert late.compute_ns == 3010 and late.run_queue_ns == 1000
        # Three phases post one timeout: a delay per phase would be 10.
        assert sim._seq - seq == 8

    def test_device_run_parents_under_the_stamp(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.process(charge_phases(
            sim, [("transfer", 953), ("translate", 1075), ("media", 2900)],
            tracer=tracer, category="nvme", parent=(7, 9)))
        sim.run()
        assert sim.now == 4928
        assert [(s.label, s.start_ns, s.end_ns, s.trace_id, s.parent_id)
                for s in tracer.spans] == [
            ("transfer", 0, 953, 7, 9), ("translate", 953, 2028, 7, 9),
            ("media", 2028, 4928, 7, 9)]

    def test_null_tracer_only_charges_time(self):
        sim = Simulator()
        cpus = CPUSet(sim, 1)
        th = cpus.thread()
        sim.process(charge_phases(sim, (("a", 5), ("b", 7)), thread=th))
        sim.run()
        assert (sim.now, th.compute_ns, cpus.busy_ns) == (12, 12, 12)
        assert NULL_TRACER.enabled is False


class TestMeasuredBreakdown:
    """Figure 7 / Table 1 from spans instead of constants."""

    def _run_reads(self, engine_name, ops=16):
        m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                    capture_data=False, trace=True)
        proc = m.spawn_process()
        from repro.baselines.registry import make_engine
        engine = make_engine(m, proc, engine_name)
        t = proc.new_thread()

        def body():
            from repro.apps.workload_utils import materialize_file
            yield from materialize_file(m, proc, engine, "/f", 1 << 20)
            f = yield from engine.open(t, "/f")
            yield from f.pread(t, 0, 4096)  # warm
            m.tracer.clear()
            t0 = m.now
            for i in range(ops):
                yield from f.pread(t, i * 4096, 4096)
            return (m.now - t0) / ops

        total = m.run_process(body())
        return m.tracer, total, ops

    def _sides(self, tracer, ops):
        folded = waterfalls(tracer)
        assert len(folded) == ops
        sides, _ = fold_sides(folded)
        return {side: ns / ops for side, ns in sides.items()}

    def test_sync_measured_device_share(self):
        tracer, total, ops = self._run_reads("sync")
        sides = self._sides(tracer, ops)
        # The sides partition each op: they add up to its latency.
        assert abs(sum(sides.values()) - total) < 5
        assert sides["user"] == 0
        # Table 1: device is ~51% of a sync 4KB read.
        assert 0.47 < sides["device"] / total < 0.55
        assert abs(sides["kernel"] - 3830) < 100

    def test_bypassd_measured_no_kernel(self):
        tracer, total, ops = self._run_reads("bypassd")
        sides = self._sides(tracer, ops)
        assert sides["kernel"] == 0   # no kernel crossings
        device = sides["device"]
        user = sides["user"]
        # Figure 7: almost everything is device; UserLib is tiny.
        assert device / total > 0.9
        assert 0 < user < 500
