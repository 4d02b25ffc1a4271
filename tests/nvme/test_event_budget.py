"""Engine events posted per device command.

Pins the exact number of events (``Simulator._seq`` advances once per
posted event) one uncontended operation costs on a fresh ``Machine``,
host path included.  A dead event that comes back on the device path,
or a fixed-delay chain that is no longer charged as one delay (the
syscall entry and VFS, the block layer and driver, a write's transfer
and media, a WiredTiger path's cache lookups), changes these counts and
fails here.
"""

import pytest

from repro import Machine
from repro.apps.wiredtiger import BTreeGeometry, WiredTigerModel
from repro.apps.ycsb import YCSBOp
from repro.baselines.registry import make_engine

# (engine, write, posted events, simulated ns)
BUDGET = [
    ("bypassd", False, 15, 4872),
    ("sync", False, 12, 7843),
    ("bypassd", True, 10, 4402),
    ("sync", True, 13, 7923),
]


def _one_op(engine: str, write: bool):
    m = Machine()
    proc = m.spawn_process("app")
    thread = proc.new_thread()
    eng = make_engine(m, proc, engine)
    files = []

    def setup():
        f = yield from eng.open(thread, "/data", write=True, create=True)
        yield from f.pwrite(thread, 0, 4096, b"a" * 4096)
        yield from f.pread(thread, 0, 4096)  # warm the IOTLB and caches
        files.append(f)

    m.run_process(setup())
    f = files[0]

    def op():
        if write:
            yield from f.pwrite(thread, 0, 4096, b"b" * 4096)
        else:
            yield from f.pread(thread, 0, 4096)

    seq, now, served = m.sim._seq, m.now, m.device.commands_served
    m.run_process(op())
    assert m.device.commands_served - served == 1
    return m.sim._seq - seq, m.now - now


@pytest.mark.parametrize("engine,write,events,elapsed_ns", BUDGET,
                         ids=["bypassd-read", "sync-read", "bypassd-write",
                              "sync-write"])
def test_events_per_4k_command(engine, write, events, elapsed_ns):
    assert _one_op(engine, write) == (events, elapsed_ns)


def test_events_per_wiredtiger_read_with_one_path_miss():
    """A YCSB read on bypassd whose 4-page B-tree path misses only at
    the leaf: one lock grant, one delay for the four cache lookups, one
    direct 512 B read."""
    m = Machine()
    proc = m.spawn_process("wt")
    thread = proc.new_thread()
    geom = BTreeGeometry(100_000)
    model = WiredTigerModel(m, geom, 1 << 20, make_engine(m, proc,
                                                          "bypassd"))
    model.setup(proc)
    # Key 16 is the first key of the leaf after key 0's: the warm-up
    # read caches the three interior pages they share.
    assert geom.path_pages(0)[:-1] == geom.path_pages(16)[:-1]
    assert geom.path_pages(0)[-1] != geom.path_pages(16)[-1]
    m.run_process(model.do_op(thread, YCSBOp("read", 0)))

    seq, now, ios = m.sim._seq, m.now, model.ios
    m.run_process(model.do_op(thread, YCSBOp("read", 16)))
    assert model.ios - ios == 1
    assert (m.sim._seq - seq, m.now - now) == (19, 6169)


@pytest.mark.parametrize("engine", ["sync", "bypassd"])
def test_steady_state_read_loop_builds_no_new_event(engine, monkeypatch):
    """Every processed event that nothing else holds goes back to the
    pool, so once the pool is warm a 4 KiB read loop allocates no
    ``Event``: a generator frame that keeps a reference to a processed
    event (the one it blocked on, a submit, a channel wake-up) stops it
    from being recycled and shows up here."""
    from repro.sim import engine as engine_mod

    m = Machine()
    proc = m.spawn_process("app")
    thread = proc.new_thread()
    eng = make_engine(m, proc, engine)
    built = []
    original = engine_mod.Event.__init__

    def counting_init(event, sim):
        if type(event) is engine_mod.Event:
            built.append(event)
        original(event, sim)

    def reads(f, n):
        for i in range(n):
            yield from f.pread(thread, (i % 16) * 4096, 4096)

    def workload():
        f = yield from eng.open(thread, "/data", write=True, create=True)
        yield from f.pwrite(thread, 0, 16 * 4096, b"a" * (16 * 4096))
        yield from reads(f, 64)                   # warm the pools
        monkeypatch.setattr(engine_mod.Event, "__init__", counting_init)
        yield from reads(f, 256)

    served = m.device.commands_served
    m.run_process(workload())
    assert m.device.commands_served - served >= 256 + 64
    assert built == []
