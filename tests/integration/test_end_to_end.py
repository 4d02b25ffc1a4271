"""End-to-end integration: full stack, multiple subsystems at once."""

import random

import pytest

from repro import GiB, Machine
from repro.baselines import make_engine
from repro.fs.ext4.filesystem import Ext4Filesystem
from repro.kernel.process import O_CREAT, O_DIRECT, O_RDWR


@pytest.fixture
def m():
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)


def test_mixed_engines_same_file_data_coherent(m):
    """Write through BypassD, read through sync (after revocation),
    write through sync, re-open through BypassD: data always coherent."""
    pa = m.spawn_process("a")
    lib = m.userlib(pa)
    ta = pa.new_thread()

    def phase1():
        f = yield from lib.open(ta, "/coherent", write=True, create=True)
        yield from f.append(ta, 8192, b"A" * 8192)
        yield from f.close(ta)

    m.run_process(phase1())

    pb = m.spawn_process("b")
    sync = make_engine(m, pb, "sync")
    tb = pb.new_thread()

    def phase2():
        f = yield from sync.open(tb, "/coherent", write=True)
        n, data = yield from f.pread(tb, 0, 8192)
        assert data == b"A" * 8192
        yield from f.pwrite(tb, 0, 4096, b"B" * 4096)
        yield from f.close(tb)

    m.run_process(phase2())

    pc = m.spawn_process("c")
    lib2 = m.userlib(pc)
    tc = pc.new_thread()

    def phase3():
        f = yield from lib2.open(tc, "/coherent")
        assert f.using_direct_path
        n, data = yield from f.pread(tc, 0, 8192)
        return data

    data = m.run_process(phase3())
    assert data == b"B" * 4096 + b"A" * 4096
    m.fs.fsck()


def test_many_files_many_processes_fsck_clean(m):
    rng = random.Random(3)
    spawned = []
    for i in range(6):
        proc = m.spawn_process(f"w{i}")
        lib = m.userlib(proc)
        t = proc.new_thread()

        def body(lib=lib, t=t, i=i, rng=random.Random(i)):
            for j in range(3):
                f = yield from lib.open(t, f"/dir{i}-{j}", write=True,
                                        create=True)
                size = rng.randrange(1, 40) * 4096
                yield from f.append(t, size, bytes([i]) * size)
                yield from f.pwrite(t, 0, 4096, bytes([j]) * 4096)
                yield from f.fsync(t)
                yield from f.close(t)

        spawned.append(m.spawn(t, body()))
    m.run()
    for sp in spawned:
        _ = sp.value
    m.fs.fsck()
    assert m.fs.journal.commits >= 6


def test_crash_recovery_through_full_machine(m):
    """Write + fsync through the whole stack, crash, recover, fsck."""
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/durable", write=True, create=True)
        yield from f.append(t, 16384, b"D" * 16384)
        yield from f.fsync(t)
        # More work after the sync, never committed.
        f2 = yield from lib.open(t, "/ephemeral", write=True,
                                 create=True)
        yield from f2.append(t, 4096, b"E" * 4096)

    m.run_process(body())
    image = m.fs.crash_image()
    recovered = Ext4Filesystem.recover(image, 1 * GiB, devid=1,
                                       params=m.params)
    recovered.fsck()
    assert recovered.exists("/durable")
    assert recovered.lookup("/durable").size == 16384
    assert not recovered.exists("/ephemeral")
    # Ordered-mode data: the durable file's blocks hold the real bytes.
    runs = recovered.lookup("/durable").extents.physical_runs()
    payload = b"".join(
        m.device.backend.read_blocks(start * 8, count * 8)
        for start, count in runs
    )
    assert payload == b"D" * 16384


def test_fmap_survives_heavy_growth(m):
    """A file that grows leaf-by-leaf keeps every page reachable
    directly (in-place extension + new-leaf attachment)."""
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/growing", write=True, create=True)
        total = 0
        for i in range(40):
            chunk = 512 * 1024  # forces periodic new leaves
            yield from f.append(t, chunk)
            total += chunk
        # Every region readable through the direct path.
        for off in range(0, total, total // 10):
            n, _ = yield from f.pread(t, off, 4096)
            assert n == 4096
        assert f.using_direct_path
        return m.fs.lookup("/growing").file_table.pages

    pages = m.run_process(body())
    assert pages == 40 * 512 * 1024 // 4096
    assert lib.kernel_fallbacks == 0


def test_device_stats_consistent_after_mixed_load(m):
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/load", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0,
                                          4 << 20)
        for i in range(20):
            yield from f.pwrite(t, i * 4096, 4096, bytes([i]) * 4096)
        for i in range(20):
            n, data = yield from f.pread(t, i * 4096, 4096)
            assert data == bytes([i]) * 4096

    m.run_process(body())
    dev = m.device
    assert dev.commands_served >= 40
    assert dev.backend.bytes_read >= 20 * 4096
    assert dev.backend.bytes_written >= 20 * 4096
    assert dev.translation_faults == 0
