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
# while no plan is armed.
BUDGET = {
    "bypassd": {"sim": 47, "nvme": 43, "core": 10, "hw": 6, "kernel": 1,
                "repro": 1},
    "sync": {"sim": 59, "nvme": 39, "kernel": 29, "fs": 5, "baselines": 1,
             "repro": 1},
}


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


def _one_read(engine):
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
        yield from f.pread(thread, 0, 4096)

    served = m.device.commands_served
    counts = _calls_per_layer(lambda: m.run_process(op()))
    assert m.device.commands_served - served == 1
    return counts


@pytest.mark.parametrize("engine", sorted(BUDGET))
def test_calls_per_layer_for_one_4k_read(engine):
    assert _one_read(engine) == BUDGET[engine]
