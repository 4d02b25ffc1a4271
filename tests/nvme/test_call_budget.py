"""Python-level calls per layer for one device command.

Beside ``test_event_budget.py``, which pins the engine events one
uncontended 4 KiB operation posts, this pins the interpreter work: the
``call`` events ``sys.setprofile`` sees while a warm 4 KiB read runs
on a fresh ``Machine``, folded by the ``repro`` package they run in.
A generator resume is a call; a list, dict or set comprehension's frame
is not (Python 3.12 inlines them), so the counts agree on 3.10-3.12.
Only ``repro``'s own code is counted: the standard library's share
depends on the interpreter version.  Work that comes back on the read
path (a per-command property, a helper that recomputes a per-job
value) changes a count and fails here.
"""

import sys
from pathlib import Path

import pytest

import repro
from repro import Machine
from repro.baselines.registry import make_engine

_REPRO = Path(repro.__file__).resolve().parent
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

# engine -> calls per layer for one warm 4 KiB read ("repro" is the
# package's top-level modules, such as repro.machine).
# Layers that make no call are left out: the fault hooks make none
# while no plan is armed.  io_uring is left out: its SQPOLL poller
# spins through thousands of calls that are not the read's.
BUDGET = {
    "bypassd": {"sim": 47, "nvme": 43, "core": 10, "hw": 6, "kernel": 1,
                "repro": 1},
    "sync": {"sim": 47, "nvme": 39, "kernel": 19, "fs": 2, "baselines": 1,
             "repro": 1},
    "xrp": {"sim": 47, "nvme": 39, "kernel": 19, "fs": 2, "baselines": 1,
            "repro": 1},
    "libaio": {"sim": 79, "nvme": 40, "baselines": 36, "kernel": 9,
               "fs": 2, "repro": 1},
}

# Calls per layer for a warm kernel open + close pair on the sync
# engine: the metadata path that every fmap() is bracketed by.
OPEN_CLOSE_BUDGET = {"sim": 28, "kernel": 18, "fs": 6, "baselines": 6,
                     "repro": 1}


def _layer(filename):
    try:
        rel = Path(filename).resolve().relative_to(_REPRO)
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else "repro"


def _calls_per_layer(run):
    counts = {}
    layers = {}

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name in _INLINED:
            return
        filename = code.co_filename
        if filename not in layers:
            layers[filename] = _layer(filename)
        layer = layers[filename]
        if layer is not None:
            counts[layer] = counts.get(layer, 0) + 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def _warm_machine(engine):
    """A fresh machine with /data written and read once through
    ``engine``: returns (machine, thread, engine, open file)."""
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
    return m, thread, eng, files[0]


def _one_read(engine):
    m, thread, _eng, f = _warm_machine(engine)

    def op():
        yield from f.pread(thread, 0, 4096)

    served = m.device.commands_served
    counts = _calls_per_layer(lambda: m.run_process(op()))
    assert m.device.commands_served - served == 1
    return counts


@pytest.mark.parametrize("engine", sorted(BUDGET))
def test_calls_per_layer_for_one_4k_read(engine):
    assert _one_read(engine) == BUDGET[engine]


def test_calls_per_layer_for_one_warm_open_close():
    m, thread, eng, _f = _warm_machine("sync")

    def op():
        f = yield from eng.open(thread, "/data")
        yield from f.close(thread)

    syscalls = m.kernel.syscall_count
    served = m.device.commands_served
    counts = _calls_per_layer(lambda: m.run_process(op()))
    assert m.kernel.syscall_count - syscalls == 2
    assert m.device.commands_served == served
    assert counts == OPEN_CLOSE_BUDGET
