"""Engine events posted per device command.

Pins the exact number of events (``Simulator._seq`` advances once per
posted event) one uncontended 4 KiB operation costs on a fresh
``Machine``, host path included.  A dead event that comes back on the
device path changes these counts and fails here.
"""

import pytest

from repro import Machine
from repro.baselines.registry import make_engine

# (engine, write, posted events, simulated ns)
BUDGET = [
    ("bypassd", False, 15, 4872),
    ("sync", False, 14, 7843),
    ("bypassd", True, 11, 4402),
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
                         ids=["bypassd-read", "sync-read", "bypassd-write"])
def test_events_per_4k_command(engine, write, events, elapsed_ns):
    assert _one_op(engine, write) == (events, elapsed_ns)
