"""Unit tests for UserLib: interception, routing, partial writes."""

import pytest

from repro import GiB, Machine
from repro.nvme.spec import Opcode


@pytest.fixture
def m():
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)


def setup_file(m, size=1 << 20, write=True, optimized=False):
    proc = m.spawn_process()
    lib = m.userlib(proc, optimized_appends=optimized)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/data", write=True, create=True)
        if size:
            yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0,
                                              size)
        return f

    f = m.run_process(body())
    return m, proc, lib, t, f


class TestRouting:
    def test_reads_go_direct(self, m):
        m, proc, lib, t, f = setup_file(m)
        syscalls_before = m.kernel.syscall_count

        def body():
            for i in range(5):
                yield from f.pread(t, i * 4096, 4096)

        m.run_process(body())
        assert lib.direct_reads == 5
        assert m.kernel.syscall_count == syscalls_before  # no kernel

    def test_overwrites_go_direct(self, m):
        m, proc, lib, t, f = setup_file(m)
        before = m.kernel.syscall_count

        def body():
            yield from f.pwrite(t, 0, 4096, b"q" * 4096)

        m.run_process(body())
        assert lib.direct_writes == 1
        assert m.kernel.syscall_count == before

    def test_appends_go_through_kernel(self, m):
        """Table 3: appends modify metadata, so UserLib forwards them."""
        m, proc, lib, t, f = setup_file(m, size=0)
        before = m.kernel.syscall_count

        def body():
            yield from f.append(t, 4096, b"a" * 4096)

        m.run_process(body())
        assert m.kernel.syscall_count > before
        assert f.size == 4096
        assert m.fs.lookup("/data").size == 4096

    def test_append_then_direct_read(self, m):
        m, proc, lib, t, f = setup_file(m, size=0)

        def body():
            yield from f.append(t, 512, b"x" * 512)
            n, data = yield from f.pread(t, 0, 512)
            return n, data

        n, data = m.run_process(body())
        assert data == b"x" * 512
        assert lib.direct_reads == 1

    def test_read_write_data_integrity(self, m):
        m, proc, lib, t, f = setup_file(m)
        blob = bytes(range(256)) * 64  # 16 KiB

        def body():
            yield from f.pwrite(t, 8192, len(blob), blob)
            n, data = yield from f.pread(t, 8192, len(blob))
            return data

        assert m.run_process(body()) == blob

    def test_unaligned_read(self, m):
        m, proc, lib, t, f = setup_file(m)

        def body():
            yield from f.pwrite(t, 0, 4096, bytes(range(16)) * 256)
            n, data = yield from f.pread(t, 100, 50)
            return n, data

        n, data = m.run_process(body())
        assert n == 50
        assert data == (bytes(range(16)) * 256)[100:150]

    def test_read_clamped_to_eof(self, m):
        m, proc, lib, t, f = setup_file(m, size=0)

        def body():
            yield from f.append(t, 1000, b"e" * 1000)
            n, data = yield from f.pread(t, 512, 4096)
            return n, data

        n, data = m.run_process(body())
        assert n == 488
        assert data == b"e" * 488

    @pytest.mark.parametrize("offset,nbytes", [
        (0, 4096), (512, 4096), (1000, 512), (4096, 4096), (0, 0),
        (100, -1), ((1 << 20) - 512, 4096), (2 << 20, 512)])
    @pytest.mark.parametrize("size", [0, 1000, 1 << 20])
    def test_direct_read_length_matches_the_clamp(self, m, size, offset,
                                                  nbytes):
        """A direct read returns ``max(0, min(nbytes, size - offset))``
        bytes, for an empty file, a short one, and a file the kernel
        path extended behind UserLib's back (the fallocate after open):
        UserLib's own size only ever grows to the inode's."""
        m, proc, lib, t, f = setup_file(m, size=0)

        def body():
            if size == 1000:
                yield from f.append(t, 1000, b"e" * 1000)
            elif size:
                yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0,
                                                  size)
            n, data = yield from f.pread(t, offset, nbytes)
            return n, data

        n, data = m.run_process(body())
        assert n == max(0, min(nbytes, size - offset))
        assert len(data) == n
        assert lib.direct_reads == (1 if n else 0)
        assert f.using_direct_path

    def test_direct_read_sees_a_later_extension(self, m):
        m, proc, lib, t, f = setup_file(m, size=4096)

        def body():
            first = yield from f.pread(t, 0, 8192)
            yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0, 8192)
            second = yield from f.pread(t, 0, 8192)
            return first[0], second[0]

        assert m.run_process(body()) == (4096, 8192)

    def test_write_readonly_file_rejected(self, m):
        proc = m.spawn_process()
        lib = m.userlib(proc)
        t = proc.new_thread()

        def body():
            f0 = yield from lib.open(t, "/ro", write=True, create=True)
            yield from f0.append(t, 4096, bytes(4096))
            yield from f0.close(t)
            f = yield from lib.open(t, "/ro", write=False)
            yield from f.pwrite(t, 0, 512, bytes(512))

        with pytest.raises(PermissionError):
            m.run_process(body())


class TestPartialWrites:
    def test_sub_sector_rmw(self, m):
        m, proc, lib, t, f = setup_file(m)

        def body():
            yield from f.pwrite(t, 0, 4096, b"A" * 4096)
            yield from f.pwrite(t, 10, 4, b"BBBB")
            n, data = yield from f.pread(t, 0, 20)
            return data

        data = m.run_process(body())
        assert data == b"A" * 10 + b"BBBB" + b"A" * 6

    def test_concurrent_partial_writes_serialized(self, m):
        """Section 4.5.1: overlapping sub-sector writes do not clobber
        each other."""
        m, proc, lib, t, f = setup_file(m)
        t2 = proc.new_thread()

        def writer(thread, offset, byte):
            yield from f.pwrite(thread, offset, 8, bytes([byte]) * 8)

        def body():
            yield from f.pwrite(t, 0, 4096, b"\0" * 4096)
            p1 = m.spawn(t, writer(t, 0, 0x41))
            p2 = m.spawn(t2, writer(t2, 8, 0x42))
            yield m.sim.all_of([p1, p2])
            n, data = yield from f.pread(t, 0, 16)
            return data

        data = m.run_process(body())
        assert data == b"A" * 8 + b"B" * 8

    def test_disjoint_sectors_not_serialized(self, m):
        m, proc, lib, t, f = setup_file(m)
        t2 = proc.new_thread()
        finish = []

        def writer(thread, offset, tag):
            yield from f.pwrite(thread, offset, 8, b"w" * 8)
            finish.append((tag, m.now))

        def body():
            yield from f.pwrite(t, 0, 8192, b"\0" * 8192)
            p1 = m.spawn(t, writer(t, 0, "a"))
            p2 = m.spawn(t2, writer(t2, 4096, "b"))
            yield m.sim.all_of([p1, p2])

        m.run_process(body())
        # Concurrent: the later finisher did not wait a full RMW extra.
        times = dict(finish)
        assert abs(times["a"] - times["b"]) < 6000


class TestOptimizedAppends:
    def test_optimized_append_prealloc(self, m):
        """Section 5.1: fallocate once, then append as overwrites."""
        m, proc, lib, t, f = setup_file(m, size=0, optimized=True)

        def body():
            for i in range(8):
                yield from f.append(t, 4096, bytes([i]) * 4096)
            n, data = yield from f.pread(t, 7 * 4096, 4096)
            return data

        data = m.run_process(body())
        assert data == bytes([7]) * 4096
        # Only the first append hit the kernel (fallocate); the rest
        # were direct overwrites.
        assert lib.direct_writes >= 7

    def test_optimized_append_faster_than_kernel_append(self, m):
        def run_appends(optimized):
            mach = Machine(capacity_bytes=1 * GiB,
                           memory_bytes=256 << 20, capture_data=False)
            _, proc, lib, t, f = setup_file(mach, size=0,
                                            optimized=optimized)

            def body():
                t0 = mach.now
                for _ in range(64):
                    yield from f.append(t, 4096)
                return mach.now - t0

            return mach.run_process(body())

        assert run_appends(True) < run_appends(False)


class TestFsync:
    def test_fsync_flushes_and_commits(self, m):
        m, proc, lib, t, f = setup_file(m)

        def body():
            yield from f.pwrite(t, 0, 4096, b"d" * 4096)
            yield from f.fsync(t)
            return m.fs.journal.commits

        assert m.run_process(body()) >= 1
