"""Unit tests for the page cache and the kernel block layer."""

import pytest

from repro import GiB, Machine
from repro.kernel.process import O_CREAT, O_RDWR
from repro.nvme.spec import Opcode


@pytest.fixture
def m():
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                   page_cache_pages=8)


def make_file(m, path="/f", blocks=32):
    proc = m.spawn_process()
    t = proc.new_thread()

    def body():
        fd = yield from m.kernel.sys_open(proc, t, path,
                                          O_RDWR | O_CREAT)
        yield from m.kernel.sys_fallocate(proc, t, fd, 0, blocks * 4096)
        return fd

    fd = m.run_process(body())
    return proc, t, fd


class TestPageCache:
    def test_hit_after_miss(self, m):
        proc, t, fd = make_file(m)
        inode = m.fs.lookup("/f")

        def body():
            yield from m.pagecache.read_page(t, inode, 0)
            yield from m.pagecache.read_page(t, inode, 0)

        m.run_process(body())
        assert m.pagecache.hits == 1
        assert m.pagecache.misses == 1

    def test_lru_eviction(self, m):
        proc, t, fd = make_file(m)
        inode = m.fs.lookup("/f")

        def body():
            for i in range(12):  # capacity is 8
                yield from m.pagecache.read_page(t, inode, i)
            # Page 0 evicted: reading it again misses.
            before = m.pagecache.misses
            yield from m.pagecache.read_page(t, inode, 0)
            return m.pagecache.misses - before

        assert m.run_process(body()) == 1
        assert m.pagecache.cached_pages <= 8

    def test_dirty_writeback_on_eviction(self, m):
        proc, t, fd = make_file(m)
        inode = m.fs.lookup("/f")

        def body():
            yield from m.pagecache.write_page(t, inode, 0,
                                              b"W" * 4096)
            for i in range(1, 12):
                yield from m.pagecache.read_page(t, inode, i)
            # Page 0 was evicted dirty -> written back to the device.
            return m.pagecache.writebacks

        assert m.run_process(body()) >= 1
        phys = m.fs.bmap(inode, 0)[0]
        assert m.device.backend.read_blocks(phys * 8, 8) == b"W" * 4096

    def test_sync_inode_writes_all_dirty(self, m):
        proc, t, fd = make_file(m)
        inode = m.fs.lookup("/f")

        def body():
            for i in range(4):
                yield from m.pagecache.write_page(t, inode, i,
                                                  bytes([i]) * 4096)
            yield from m.pagecache.sync_inode(t, inode)
            return m.pagecache.writebacks

        assert m.run_process(body()) == 4

    def test_invalidate_inode(self, m):
        proc, t, fd = make_file(m)
        inode = m.fs.lookup("/f")

        def body():
            yield from m.pagecache.read_page(t, inode, 0)

        m.run_process(body())
        m.pagecache.invalidate_inode(inode.ino)
        assert m.pagecache.cached_pages == 0

    def test_hole_reads_zero(self, m):
        proc = m.spawn_process()
        t = proc.new_thread()

        def body():
            fd = yield from m.kernel.sys_open(proc, t, "/sparse",
                                              O_RDWR | O_CREAT)
            inode = m.fs.lookup("/sparse")
            page = yield from m.pagecache.read_page(t, inode, 5)
            return page

        assert m.run_process(body()) == bytes(4096)


class TestBlockIO:
    def test_per_thread_queues(self, m):
        proc = m.spawn_process()
        t1, t2 = proc.new_thread(), proc.new_thread()

        def body():
            yield from m.blockio.rw_fsblocks(
                t1, Opcode.READ, m.fs.sb.first_data_block, 1)
            t1.release_core()
            yield from m.blockio.rw_fsblocks(
                t2, Opcode.READ, m.fs.sb.first_data_block, 1)
            t2.release_core()

        m.run_process(body())
        assert len(m.blockio._queues) == 2

    def test_layer_costs_charged(self, m):
        proc = m.spawn_process()
        t = proc.new_thread()

        def body():
            t0 = m.now
            yield from m.blockio.rw_fsblocks(
                t, Opcode.READ, m.fs.sb.first_data_block, 1)
            return m.now - t0

        elapsed = m.run_process(body())
        expected = (m.params.block_layer_ns + m.params.nvme_driver_ns
                    + m.params.device_read_ns(4096))
        assert abs(elapsed - expected) <= 20

    def test_io_error_raised(self, m):
        from repro.kernel.blockio import IOError_
        proc = m.spawn_process()
        t = proc.new_thread()

        def body():
            yield from m.blockio.rw_runs(t, Opcode.READ, [(10**12, 512)])

        with pytest.raises(IOError_):
            m.run_process(body())

    def test_flush(self, m):
        proc = m.spawn_process()
        t = proc.new_thread()

        def body():
            t0 = m.now
            yield from m.blockio.flush(t)
            return m.now - t0

        assert m.run_process(body()) >= m.params.flush_ns
