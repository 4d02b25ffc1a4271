"""One direct-I/O path: the same ops give the same bytes on every engine.

sync, libaio, io_uring and XRP all reach the device through the
kernel's direct-I/O mapping (``repro.kernel.blockio.extent_runs`` plus
its sector rounding); BypassD maps the same extents from userspace.
Every engine accepts byte-granular I/O, so a sub-sector read or write,
a read across a hole and a read across extent boundaries must return
the same bytes and leave the same device contents on all of them, and
the three kernel engines must split an aligned read into the same
device commands.  Appends at unaligned offsets and lengths read back
the same bytes with BypassD's optimised appends as on sync.
"""

import functools

import pytest

from repro import GiB, Machine
from repro.baselines.registry import make_engine
from repro.kernel.blockio import PAGE
from repro.nvme.spec import Opcode

ENGINES = ("sync", "libaio", "io_uring", "xrp", "bypassd")
FILE = bytes(range(256)) * 32               # 8 KiB, then a 8 KiB hole
FRAGMENTED = bytes(i * 7 % 251 for i in range(6 * PAGE))
PATCH = b"x" * 50
RECORDS = [bytes([i + 1]) * n for i, n in enumerate((100, 700, 4146, 13))]


@functools.lru_cache(maxsize=None)
def run(engine_name):
    """Set the files up through sync, then run the ops on the engine.

    Returns the read results, the ``(lba512, nbytes)`` of every device
    read the fragmented read issued, and each file's extent map and
    on-device bytes.
    """
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)
    setup = m.spawn_process("setup")
    st = setup.new_thread()
    sync = make_engine(m, setup, "sync")

    def prepare():
        f = yield from sync.open(st, "/f", write=True, create=True)
        yield from f.pwrite(st, 0, len(FILE), FILE)
        # Growing the size maps nothing: [8 KiB, 16 KiB) is a hole.
        yield from m.kernel.sys_ftruncate(setup, st, f.fd, 2 * len(FILE))
        yield from f.close(st)
        # Interleaved appends leave /frag six one-block extents.
        frag = yield from sync.open(st, "/frag", write=True, create=True)
        pad = yield from sync.open(st, "/pad", write=True, create=True)
        for i in range(6):
            yield from frag.append(st, PAGE,
                                   FRAGMENTED[i * PAGE:(i + 1) * PAGE])
            yield from pad.append(st, PAGE, bytes([1]) * PAGE)
        yield from frag.close(st)
        yield from pad.close(st)

    m.run_process(prepare())
    assert len(m.fs.lookup("/frag").extents) == 6

    proc = m.spawn_process(engine_name)
    t = proc.new_thread()
    engine = make_engine(m, proc, engine_name)
    commands = []
    submit = m.device.submit

    def logged_submit(qp, cmd):
        if cmd.opcode is Opcode.READ:
            commands.append((cmd.addr, cmd.nbytes))
        return submit(qp, cmd)

    def body():
        f = yield from engine.open(t, "/f", write=True)
        _, unaligned = yield from f.pread(t, 100, 50)
        _, across_hole = yield from f.pread(t, len(FILE) - 100, 300)
        yield from f.pwrite(t, 100, len(PATCH), PATCH)
        _, whole = yield from f.pread(t, 0, 2 * len(FILE))
        yield from f.close(t)
        frag = yield from engine.open(t, "/frag")
        m.device.submit = logged_submit
        _, fragmented = yield from frag.pread(t, 2048, 3 * PAGE)
        m.device.submit = submit
        yield from frag.close(t)
        return unaligned, across_hole, whole, fragmented

    reads = m.run_process(body())
    device = {}
    for path in ("/f", "/frag"):
        inode = m.fs.lookup(path)
        device[path] = [
            (logical, phys, m.device.backend.peek_blocks(phys * 8,
                                                         count * 8))
            for logical, phys, count in inode.extents.mappings()]
    return reads, commands, device


@pytest.mark.parametrize("engine_name", ENGINES)
def test_byte_granular_reads_and_writes(engine_name):
    unaligned, across_hole, whole, fragmented = run(engine_name)[0]
    assert unaligned == FILE[100:150]
    assert across_hole == FILE[-100:] + bytes(200)
    assert whole == FILE[:100] + PATCH + FILE[150:] + bytes(len(FILE))
    assert fragmented == FRAGMENTED[2048:2048 + 3 * PAGE]


@pytest.mark.parametrize("engine_name", ENGINES[1:])
def test_same_device_contents(engine_name):
    assert run(engine_name)[2] == run("sync")[2]


def test_kernel_engines_issue_the_same_commands():
    """One command per extent run, the first and last partial."""
    commands = run("sync")[1]
    sizes = [nbytes for _, nbytes in commands]
    assert sizes == [2048, PAGE, PAGE, 2048]
    assert run("libaio")[1] == commands
    assert run("io_uring")[1] == commands


def appended(engine_name):
    """Append ``RECORDS`` to a fresh file on the engine, read it all."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)
    proc = m.spawn_process(engine_name)
    t = proc.new_thread()
    engine = make_engine(m, proc, engine_name)

    def body():
        f = yield from engine.open(t, "/log", write=True, create=True)
        for record in RECORDS:
            yield from f.append(t, len(record), record)
        _, data = yield from f.pread(t, 0, sum(map(len, RECORDS)))
        yield from f.close(t)
        return data

    return m.run_process(body())


def test_unaligned_optimised_appends_read_back_like_sync():
    """Every append but the first starts off a sector boundary, and
    optimised appends write them from userspace into the blocks they
    preallocated.  The extent maps differ on purpose (optimised appends
    preallocate 4 MiB), so only the bytes are compared."""
    expected = appended("sync")
    assert expected == b"".join(RECORDS)
    assert appended("bypassd-optappend") == expected
