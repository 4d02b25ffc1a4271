"""Edge cases across the baseline engines."""

import pytest

from repro import GiB, Machine
from repro.baselines.registry import make_engine


def fresh(capture=True):
    return Machine(capacity_bytes=2 * GiB, memory_bytes=256 << 20,
                   capture_data=capture)


class TestKernelFileEdges:
    def test_append_via_kernel_file(self):
        m = fresh()
        proc = m.spawn_process()
        engine = make_engine(m, proc, "sync")
        t = proc.new_thread()

        def body():
            f = yield from engine.open(t, "/k", write=True, create=True)
            off = yield from f.append(t, 512, b"k" * 512)
            return off, f.size

        assert m.run_process(body()) == (0, 512)

    def test_buffered_sync_engine(self):
        m = fresh()
        proc = m.spawn_process()
        engine = make_engine(m, proc, "sync", buffered=True)
        t = proc.new_thread()

        def body():
            f = yield from engine.open(t, "/b", write=True, create=True)
            yield from f.pwrite(t, 0, 100, b"b" * 100)
            n, data = yield from f.pread(t, 0, 100)
            return data

        assert m.run_process(body()) == b"b" * 100
        assert m.pagecache.hits + m.pagecache.misses > 0

    def test_fsync_via_engine(self):
        m = fresh()
        proc = m.spawn_process()
        engine = make_engine(m, proc, "sync")
        t = proc.new_thread()

        def body():
            f = yield from engine.open(t, "/s", write=True, create=True)
            yield from f.append(t, 4096, bytes(4096))
            yield from f.fsync(t)
            yield from f.close(t)

        m.run_process(body())
        assert m.fs.journal.commits >= 1


class TestIOUringEdges:
    def test_append_falls_back_to_syscall(self):
        m = fresh()
        proc = m.spawn_process()
        engine = make_engine(m, proc, "io_uring")
        t = proc.new_thread()

        def body():
            f = yield from engine.open(t, "/u", write=True, create=True)
            before = m.kernel.syscall_count
            yield from f.append(t, 4096, b"u" * 4096)
            grew_via_kernel = m.kernel.syscall_count > before
            n, data = yield from f.pread(t, 0, 4096)
            return grew_via_kernel, data

        grew, data = m.run_process(body())
        assert grew
        assert data == b"u" * 4096

    def test_one_ring_per_thread(self):
        m = fresh(capture=False)
        proc = m.spawn_process()
        engine = make_engine(m, proc, "io_uring")
        t1, t2 = proc.new_thread(), proc.new_thread()

        def body():
            from repro.apps.workload_utils import materialize_file
            yield from materialize_file(m, proc, engine, "/u2", 1 << 20)
            f = yield from engine.open(t1, "/u2")
            yield from f.pread(t1, 0, 4096)
            t1.release_core()
            yield from f.pread(t2, 4096, 4096)
            t2.release_core()
            return engine.poller_count

        assert m.run_process(body()) == 2


class TestLibaioEdges:
    def test_short_read_clamped(self):
        m = fresh()
        proc = m.spawn_process()
        engine = make_engine(m, proc, "libaio")
        t = proc.new_thread()

        def body():
            f = yield from engine.open(t, "/l", write=True, create=True)
            yield from f.append(t, 1000, b"l" * 1000)
            n, data = yield from f.pread(t, 512, 4096)
            return n, data

        n, data = m.run_process(body())
        assert n == 488
        assert data == b"l" * 488

    def test_get_events_partial_reap(self):
        from repro.baselines.libaio import AIOContext, AioOp
        from repro.nvme.spec import Opcode

        m = fresh(capture=False)
        proc = m.spawn_process()
        engine = make_engine(m, proc, "libaio")
        t = proc.new_thread()

        def body():
            from repro.apps.workload_utils import materialize_file
            yield from materialize_file(m, proc, engine, "/l2", 1 << 20)
            f = yield from engine.open(t, "/l2")
            ctx = AIOContext(m.sim, m.kernel, proc)
            ops = [AioOp(f, Opcode.READ, i * 4096, 4096)
                   for i in range(8)]
            yield from ctx.submit(t, ops)
            got = yield from ctx.get_events(t, 3)
            first = len(got)
            rest = yield from ctx.get_events(t, 8 - first)
            return first, len(rest), ctx.inflight

        first, rest, inflight = m.run_process(body())
        assert first >= 3
        assert first + rest == 8
        assert inflight == 0


@pytest.mark.parametrize("engine", ["sync", "libaio", "io_uring", "xrp",
                                    "spdk", "bypassd"])
@pytest.mark.parametrize("op", ["pread", "pwrite", "empty-pread"])
def test_negative_offset_is_einval_without_a_command(engine, op):
    # pread(2)/pwrite(2) refuse a negative offset with EINVAL, even for
    # zero bytes; io_uring reports it in the CQE as res == -EINVAL.
    import errno

    from repro.baselines.io_uring import CQEError

    m = fresh()
    proc = m.spawn_process()
    eng = make_engine(m, proc, engine)
    t = proc.new_thread()
    files = []

    def setup():
        f = yield from eng.open(t, "/neg", write=True, create=True)
        yield from f.pwrite(t, 0, 8192, b"n" * 8192)
        files.append(f)

    m.run_process(setup())
    f = files[0]

    def bad():
        if op == "pread":
            yield from f.pread(t, -4096, 4096)
        elif op == "empty-pread":
            yield from f.pread(t, -1, 0)
        else:
            yield from f.pwrite(t, -4096, 4096, b"x" * 4096)

    served = m.device.commands_served
    with pytest.raises((OSError, CQEError)) as info:
        m.run_process(bad())
    if engine == "io_uring":
        assert info.type is CQEError
        assert info.value.res == -errno.EINVAL
    else:
        assert info.value.errno == errno.EINVAL
    assert m.device.commands_served == served

    def read_back():
        return (yield from f.pread(t, 0, 8192))

    assert m.run_process(read_back()) == (8192, b"n" * 8192)


def test_xrp_chain_with_a_negative_hop_is_einval_before_entering():
    import errno

    m = fresh()
    proc = m.spawn_process()
    eng = make_engine(m, proc, "xrp")
    t = proc.new_thread()
    files = []

    def setup():
        f = yield from eng.open(t, "/chain", write=True, create=True)
        yield from f.pwrite(t, 0, 8192, b"c" * 8192)
        files.append(f)

    m.run_process(setup())
    served = m.device.commands_served
    syscalls = m.kernel.syscall_count

    def chain():
        yield from files[0].chained_read(t, [0, -4096], 4096)

    with pytest.raises(OSError) as info:
        m.run_process(chain())
    assert info.value.errno == errno.EINVAL
    assert m.device.commands_served == served
    assert m.kernel.syscall_count == syscalls
