"""UserLib (direct path) under injected faults: re-fmap then kernel
fallback for translation faults, bounded retries for media errors,
timeout+abort for lost completions, and the async-write error path."""

import errno

import pytest

from repro import GiB, Machine
from repro.faults import FaultPlan
from repro.kernel.blockio import IOError_


def machine(plan):
    return Machine(faults=plan, capacity_bytes=1 * GiB,
                   memory_bytes=256 << 20)


def setup(m, size=1 << 20, **lib_kw):
    proc = m.spawn_process()
    lib = m.userlib(proc, **lib_kw)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/x", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0, size)
        return f

    return proc, lib, t, m.run_process(body())


def test_single_injected_translation_fault_recovers_in_place():
    m = machine(FaultPlan().translation_faults(nth=1))
    proc, lib, t, f = setup(m)

    def body():
        n, _ = yield from f.pread(t, 0, 4096)
        return n

    assert m.run_process(body()) == 4096
    # One fault, one re-fmap; the file stays on the direct path.
    assert lib.faults_handled == 1
    assert lib.kernel_fallbacks == 0
    assert f.using_direct_path
    assert lib.direct_reads == 1
    assert m.device.translation_faults == 1


def test_persistent_translation_faults_fall_back_to_kernel():
    m = machine(FaultPlan().translation_faults(nth=1, count=100))
    proc, lib, t, f = setup(m)

    def body():
        n, _ = yield from f.pread(t, 0, 4096)
        return n

    # The request still succeeds — served through the kernel path.
    assert m.run_process(body()) == 4096
    # Bounded protocol: 3 faults, 3 re-fmaps, then permanent fallback.
    assert lib.faults_handled == 3
    assert lib.kernel_fallbacks == 1
    assert not f.using_direct_path
    assert lib.direct_reads == 0
    assert m.device.translation_faults == 3
    # Fallback is sticky: the next read goes straight to the kernel
    # without touching the fault machinery again.
    m.run_process(body())
    assert lib.faults_handled == 3


def test_transient_media_error_on_direct_path_retried():
    m = machine(FaultPlan().media_read_errors(nth=1, count=2))
    proc, lib, t, f = setup(m)

    def body():
        n, _ = yield from f.pread(t, 0, 4096)
        return n

    assert m.run_process(body()) == 4096
    assert lib.retries == 2
    assert lib.io_errors == 0
    assert f.using_direct_path        # errors never demote the path
    assert lib.kernel_fallbacks == 0
    assert m.device.commands_failed == 2


def test_persistent_media_error_on_direct_path_raises_eio():
    m = machine(FaultPlan().media_read_errors(nth=1, count=100))
    proc, lib, t, f = setup(m)

    def body():
        yield from f.pread(t, 0, 4096)

    with pytest.raises(IOError_) as exc_info:
        m.run_process(body())
    assert exc_info.value.errno == errno.EIO
    # Same retry budget as the kernel driver: one errno model.
    assert lib.retries == m.params.io_retry_limit
    assert lib.io_errors == 1


def test_dropped_completion_on_direct_path_aborted_and_retried():
    m = machine(FaultPlan().dropped_completions(nth=1))
    proc, lib, t, f = setup(m)

    def body():
        n, _ = yield from f.pread(t, 0, 4096)
        return n

    t0 = m.now
    assert m.run_process(body()) == 4096
    assert lib.timeouts == 1
    assert lib.aborts == 1
    assert lib.retries == 1        # the ABORTED CQE is retryable
    assert m.now - t0 >= m.params.io_timeout_ns
    assert f.using_direct_path


def test_async_write_abort_surfaces_as_async_error():
    m = machine(FaultPlan().dropped_completions(nth=1))
    proc, lib, t, f = setup(m, nonblocking_writes=True)

    def body():
        yield from f.pwrite(t, 0, 4096, b"a" * 4096)
        # fsync drains the lost write: the watchdog aborts it and the
        # ABORTED CQE lands in the completion callback.
        yield from f.fsync(t)

    m.run_process(body())
    assert lib.timeouts == 1
    assert lib.aborts == 1
    assert lib.async_write_errors == 1
    assert m.device.commands_aborted == 1
