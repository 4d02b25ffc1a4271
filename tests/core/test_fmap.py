"""Unit tests for fmap(): attachment, eligibility, warm/cold paths."""

import pytest

from repro import GiB, Machine
from repro.bench import table5_fmap_overheads
from repro.core import fmap as fmap_module
from repro.hw.pagetable import LEVEL_PT, PAGE_SIZE, PMD_SPAN, PUD_SPAN, fte_lba
from repro.hw.params import KiB, MiB
from repro.kernel.process import O_CREAT, O_DIRECT, O_RDONLY, O_RDWR


@pytest.fixture
def m():
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)


def open_and_fmap(m, proc, t, path, flags=O_RDWR | O_CREAT | O_DIRECT,
                  size=1 << 20):
    def body():
        fd = yield from m.kernel.sys_open(proc, t, path, flags,
                                          bypass_intent=True)
        if size and flags & O_CREAT:
            yield from m.kernel.sys_fallocate(proc, t, fd, 0, size)
        vba = yield from m.kernel.sys_fmap(proc, t, fd)
        return fd, vba

    return m.run_process(body())


def test_fmap_returns_vba_and_maps_blocks(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    fd, vba = open_and_fmap(m, proc, t, "/f")
    assert vba != 0
    assert vba % PMD_SPAN == 0
    result = proc.aspace.page_table.walk(vba)
    assert result.is_fte
    inode = m.fs.lookup("/f")
    assert inode.file_table is not None
    assert inode.file_table.pages == 256  # 1 MiB


def test_fmap_counts_cold_then_warm(m):
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()
    open_and_fmap(m, p1, t1, "/f")
    assert (m.bypassd.cold_fmaps, m.bypassd.warm_fmaps) == (1, 0)
    open_and_fmap(m, p2, t2, "/f", flags=O_RDWR | O_DIRECT, size=0)
    assert (m.bypassd.cold_fmaps, m.bypassd.warm_fmaps) == (1, 1)


def test_shared_file_table_object(m):
    """Both processes attach the same leaf nodes (pre-populated,
    shared file tables, Section 4.1)."""
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()
    _, vba1 = open_and_fmap(m, p1, t1, "/f")
    _, vba2 = open_and_fmap(m, p2, t2, "/f", flags=O_RDWR | O_DIRECT,
                            size=0)
    inode = m.fs.lookup("/f")
    leaf = inode.file_table.leaves[0]
    w1 = p1.aspace.page_table.walk(vba1)
    w2 = p2.aspace.page_table.walk(vba2)
    # Same underlying entries reached through both address spaces.
    assert w1.entry == w2.entry


def test_private_permissions_on_shared_table(m):
    """Figure 4: one process RW, another RO, same shared entries."""
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()
    _, vba1 = open_and_fmap(m, p1, t1, "/f")
    _, vba2 = open_and_fmap(m, p2, t2, "/f", flags=O_RDONLY | O_DIRECT,
                            size=0)
    assert p1.aspace.page_table.walk(vba1).effective_writable
    assert not p2.aspace.page_table.walk(vba2).effective_writable


def test_kernel_opener_blocks_fmap(m):
    """Section 4.5.2: a file open through the kernel interface is not
    eligible for the BypassD interface."""
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()

    def kernel_open():
        fd = yield from m.kernel.sys_open(p1, t1, "/f",
                                          O_RDWR | O_CREAT)
        return fd

    m.run_process(kernel_open())
    _, vba = open_and_fmap(m, p2, t2, "/f", flags=O_RDWR | O_DIRECT,
                           size=0)
    assert vba == 0
    assert m.bypassd.rejected_fmaps == 1


def test_fmap_eligible_again_after_kernel_close(m):
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()

    def kernel_open_close():
        fd = yield from m.kernel.sys_open(p1, t1, "/f",
                                          O_RDWR | O_CREAT)
        yield from m.kernel.sys_close(p1, t1, fd)

    m.run_process(kernel_open_close())
    _, vba = open_and_fmap(m, p2, t2, "/f", flags=O_RDWR | O_DIRECT,
                           size=0)
    assert vba != 0


def test_close_detaches_ftes(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    fd, vba = open_and_fmap(m, proc, t, "/f")

    def close():
        yield from m.kernel.sys_close(proc, t, fd)

    m.run_process(close())
    assert not proc.aspace.page_table.walk(vba).present
    assert m.fs.lookup("/f").fmap_attachments == {}
    # The cached table itself survives in the inode for future warmth.
    assert m.fs.lookup("/f").file_table is not None


def test_refcounted_double_open_same_process(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    fd1, vba1 = open_and_fmap(m, proc, t, "/f")
    fd2, vba2 = open_and_fmap(m, proc, t, "/f",
                              flags=O_RDWR | O_DIRECT, size=0)
    assert vba1 == vba2

    def close_one():
        yield from m.kernel.sys_close(proc, t, fd1)

    m.run_process(close_one())
    # Still attached: the second open holds a reference.
    assert proc.aspace.page_table.walk(vba1).present

    def close_two():
        yield from m.kernel.sys_close(proc, t, fd2)

    m.run_process(close_two())
    assert not proc.aspace.page_table.walk(vba1).present


def test_permission_upgrade_on_second_open(m):
    proc = m.spawn_process()
    t = proc.new_thread()

    def create():
        fd = yield from m.kernel.sys_open(proc, t, "/f",
                                          O_RDWR | O_CREAT)
        yield from m.kernel.sys_fallocate(proc, t, fd, 0, 1 << 20)
        yield from m.kernel.sys_close(proc, t, fd)

    m.run_process(create())
    _, vba = open_and_fmap(m, proc, t, "/f",
                           flags=O_RDONLY | O_DIRECT, size=0)
    assert not proc.aspace.page_table.walk(vba).effective_writable
    open_and_fmap(m, proc, t, "/f", flags=O_RDWR | O_DIRECT, size=0)
    assert proc.aspace.page_table.walk(vba).effective_writable


def test_extend_attaches_new_ftes(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    fd, vba = open_and_fmap(m, proc, t, "/f", size=4096)

    def grow():
        yield from m.kernel.sys_fallocate(proc, t, fd, 0, 4 * PMD_SPAN)

    m.run_process(grow())
    inode = m.fs.lookup("/f")
    assert inode.file_table.pages == 4 * PMD_SPAN // 4096
    # Pages in the fourth leaf are reachable.
    assert proc.aspace.page_table.walk(vba + 3 * PMD_SPAN).is_fte


def test_truncate_detaches_tail(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    fd, vba = open_and_fmap(m, proc, t, "/f", size=3 * PMD_SPAN)

    def shrink():
        yield from m.kernel.sys_ftruncate(proc, t, fd, 4096)

    m.run_process(shrink())
    assert proc.aspace.page_table.walk(vba).is_fte
    assert not proc.aspace.page_table.walk(vba + PMD_SPAN).present
    assert not proc.aspace.page_table.walk(vba + 4096).present


def test_warm_fmap_cheaper_than_cold(m):
    """Table 5: warm attach is pointer updates, cold builds entries."""
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()
    size = 64 << 20  # 64 MiB

    def timed(proc, t, flags, create):
        def body():
            fd = yield from m.kernel.sys_open(
                proc, t, "/big", flags, bypass_intent=True)
            if create:
                yield from m.kernel.sys_fallocate(proc, t, fd, 0, size)
            t0 = m.now
            vba = yield from m.kernel.sys_fmap(proc, t, fd)
            assert vba
            return m.now - t0

        return m.run_process(body())

    cold = timed(p1, t1, O_RDWR | O_CREAT | O_DIRECT, True)
    warm = timed(p2, t2, O_RDWR | O_DIRECT, False)
    assert cold > 10 * warm


def test_fmap_memory_accounting(m):
    proc = m.spawn_process()
    t = proc.new_thread()
    open_and_fmap(m, proc, t, "/f", size=2 * PMD_SPAN)
    # 2 MiB of file per 4 KiB leaf: 0.2% overhead (Section 6.3).
    assert m.bypassd.file_table_bytes() == 2 * 4096
    assert m.bypassd.attachment_count() == 1


def test_warm_fmap_of_file_over_one_gib():
    """A second process's warm fmap of a file that crosses a 1 GiB PUD
    boundary: pages either side of it, and at both ends, reach their
    own LBA with that process's R/W bit; close unlinks them all."""
    m = Machine(capacity_bytes=4 * GiB, memory_bytes=256 << 20,
                capture_data=False)
    size = 1 * GiB + 2 * PMD_SPAN
    p1, p2 = m.spawn_process(), m.spawn_process()
    t1, t2 = p1.new_thread(), p2.new_thread()
    fd1, vba1 = open_and_fmap(m, p1, t1, "/big", size=size)
    fd2, vba2 = open_and_fmap(m, p2, t2, "/big",
                              flags=O_RDONLY | O_DIRECT, size=0)
    assert (m.bypassd.cold_fmaps, m.bypassd.warm_fmaps) == (1, 1)
    assert vba2 % PUD_SPAN == 0

    inode = m.fs.lookup("/big")
    lba = {}
    for logical, phys, count in inode.extents.mappings():
        for i in range(count):
            lba[logical + i] = phys + i
    last = size // PAGE_SIZE - 1
    boundary = PUD_SPAN // PAGE_SIZE
    probes = (0, boundary - 1, boundary, last)
    for proc, vba, writable in ((p1, vba1, True), (p2, vba2, False)):
        for page in probes:
            walk = proc.aspace.page_table.walk(vba + page * PAGE_SIZE)
            assert walk.is_fte, page
            assert fte_lba(walk.entry) == lba[page]
            assert walk.effective_writable == writable

    def close_both():
        yield from m.kernel.sys_close(p1, t1, fd1)
        yield from m.kernel.sys_close(p2, t2, fd2)

    m.run_process(close_both())
    assert m.bypassd.attachment_count() == 0
    for proc, vba in ((p1, vba1), (p2, vba2)):
        for page in probes:
            assert not proc.aspace.page_table.walk(
                vba + page * PAGE_SIZE).present
        for leaf in range(size // PMD_SPAN):
            # The walk stops above the leaf level: nothing is linked.
            assert proc.aspace.page_table.walk(
                vba + leaf * PMD_SPAN).level > LEVEL_PT


def test_doomed_growth_leaves_the_next_region_alone():
    """Regions are allocated back to back.  When /a outgrows its growth
    headroom, its attachment is doomed and unlinks only the leaf it had
    linked; /a's new leaves past its region would sit at /b's VAs, and
    every page of /b still walks to its FTE and reads back directly."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()
    size_b = 3 * PMD_SPAN
    chunks = {off: bytes([i + 1]) * PAGE_SIZE for i, off in enumerate(
        (0, PMD_SPAN - PAGE_SIZE, PMD_SPAN, 2 * PMD_SPAN + 8192,
         size_b - PAGE_SIZE))}

    def setup():
        fa = yield from lib.open(t, "/a", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, fa.state.fd, 0, PMD_SPAN)
        fb = yield from lib.open(t, "/b", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, fb.state.fd, 0, size_b)
        for off, data in sorted(chunks.items()):
            yield from fb.pwrite(t, off, PAGE_SIZE, data)
        return fa, fb

    fa, fb = m.run_process(setup())
    headroom = fmap_module._GROWTH_HEADROOM_LEAVES
    # /a's region holds 1 + headroom leaves; /b's starts right after it.
    assert fb.state.vba == fa.state.vba + (1 + headroom) * PMD_SPAN

    def grow_a():
        yield from m.kernel.sys_fallocate(proc, t, fa.state.fd, 0,
                                          (headroom + 4) * PMD_SPAN)

    m.run_process(grow_a())
    # /a's attachment is doomed: its one linked leaf is gone.
    assert not proc.aspace.page_table.walk(fa.state.vba).present

    inode = m.fs.lookup("/b")
    lba = {}
    for logical, phys, count in inode.extents.mappings():
        for i in range(count):
            lba[logical + i] = phys + i
    for page in range(size_b // PAGE_SIZE):
        walk = proc.aspace.page_table.walk(fb.state.vba + page * PAGE_SIZE)
        assert walk.is_fte, page
        assert fte_lba(walk.entry) == lba[page]

    faults = m.device.translation_faults
    direct = lib.direct_reads

    def read_b():
        out = {}
        for off in sorted(chunks):
            _n, out[off] = yield from fb.pread(t, off, PAGE_SIZE)
        return out

    assert m.run_process(read_b()) == chunks
    assert lib.direct_reads == direct + len(chunks)
    assert m.device.translation_faults == faults


def test_table5_rows_pinned():
    """Table 5's simulated costs (open / open + warm fmap / open + cold
    fmap, us) are fixed: faster host code must not move them."""
    rows = table5_fmap_overheads(sizes=(4 * KiB, 64 * MiB, 1 * GiB)).rows
    assert [tuple(row) for row in rows] == [
        ("4KB", 1.51, 2.45, 2.455),
        ("64MB", 1.51, 3.38, 85.3),
        ("1GB", 1.51, 17.78, 1328.5),
    ]
