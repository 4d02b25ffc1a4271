"""Tracing through full workloads: spans must reconcile with time."""

import pytest

from repro import GiB, Machine
from repro.obs.attribution import fold_sides, waterfalls


def test_spans_never_exceed_wallclock():
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True)
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/tr", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0,
                                          1 << 20)
        for i in range(16):
            yield from f.pread(t, i * 4096, 4096)
            yield from f.pwrite(t, i * 4096, 4096)

    t0 = m.now
    m.run_process(body())
    elapsed = m.now - t0
    # Single-threaded: no span category can exceed the elapsed time.
    by_category = {}
    for s in m.tracer.spans:
        by_category[s.category] = \
            by_category.get(s.category, 0) + s.duration_ns
    for category, ns in by_category.items():
        assert ns <= elapsed, (category, ns, elapsed)


def test_mixed_engines_attribute_to_right_categories():
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True)
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def direct_io():
        f = yield from lib.open(t, "/a", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0,
                                          1 << 20)
        m.tracer.clear()
        yield from f.pread(t, 0, 4096)

    m.run_process(direct_io())
    sides, _ = fold_sides(waterfalls(m.tracer))
    assert sides["device"] > 4000
    assert sides["kernel"] == 0
    assert 0 < sides["user"] < 1000

    from repro.baselines.registry import make_engine
    proc2 = m.spawn_process()
    sync = make_engine(m, proc2, "sync")
    t2 = proc2.new_thread()

    def kernel_io():
        f = yield from sync.open(t2, "/a")
        m.tracer.clear()
        yield from f.pread(t2, 0, 4096)

    m.run_process(kernel_io())
    sides, _ = fold_sides(waterfalls(m.tracer))
    # The syscall root covers the op: its kernel and device time.
    assert sides["kernel"] + sides["device"] > 7000
    assert sides["user"] == 0
    # The device label distinguishes the two paths.
    labels = {s.label for s in m.tracer.spans if s.category == "device"}
    assert "kernel-io" in labels
