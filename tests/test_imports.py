"""Import weight: a plain run loads only the model.

``import repro``, a ``Machine``, a sync and a bypassd fio random read,
a short WiredTiger YCSB-A batch and one fmap must not load
``repro.obs.export`` (whose ``hashlib`` maps OpenSSL's libcrypto), the
other trace-only obs modules, the app models the run does not drive,
the optional subsystems (the sanitizer, the telemetry monitor, the span
recorder, the I/OAT model and the engines other than sync), or
``dataclasses`` and the ``inspect`` it pulls in: the model classes on
this path are plain classes, so no method is compiled at import.  Each
optional subsystem loads exactly when its feature is switched on.
Checked in fresh interpreters, since this test process has long
imported all of them.
"""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

UNWANTED = [
    "dataclasses",
    "inspect",
    "hashlib",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.obs.attribution",
    "repro.obs.exemplar",
    "repro.obs.timings",
    "repro.apps.kvell",
    "repro.apps.bpfkv",
    "repro.sim.sanitizer",
    "repro.sim.spans",
    "repro.obs.monitor",
    "repro.hw.ioat",
    "repro.baselines.libaio",
    "repro.baselines.io_uring",
    "repro.baselines.spdk",
    "repro.baselines.xrp",
]

PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import repro
from repro.apps.fio import FioJob, run_fio
from repro.apps.wiredtiger import BTreeGeometry, run_wiredtiger_ycsb
from repro.kernel.process import O_CREAT, O_DIRECT, O_RDWR

for engine in ("sync", "bypassd"):
    run_fio(repro.Machine(), FioJob(engine=engine, file_size=1 << 20,
                                    ops_per_thread=4, ramp_ops=1))
run_wiredtiger_ycsb(repro.Machine(), "bypassd", "A", threads=1,
                    ops_per_thread=8, geometry=BTreeGeometry(10_000))

m = repro.Machine()
proc = m.spawn_process("p")
thread = proc.new_thread("t")

def fmap_once():
    fd = yield from m.kernel.sys_open(proc, thread, "/f",
                                      O_RDWR | O_CREAT | O_DIRECT,
                                      bypass_intent=True)
    yield from m.kernel.sys_fallocate(proc, thread, fd, 0, 1 << 20)
    return (yield from m.kernel.sys_fmap(proc, thread, fd))

assert m.run_process(fmap_once()) != 0
print(json.dumps(sorted(m for m in {UNWANTED!r} if m in sys.modules)))
"""


def _last_json(program):
    proc = subprocess.run([sys.executable, "-c", program],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_plain_run_loads_no_exporters_hashlib_or_unused_apps():
    assert _last_json(PROGRAM) == []


# The optional modules, and what each step of STEPS_PROGRAM newly loads.
DEFERRED = [
    "repro.sim.sanitizer",
    "repro.sim.spans",
    "repro.obs.monitor",
    "repro.baselines.sync_io",
    "repro.baselines.libaio",
    "repro.baselines.io_uring",
    "repro.baselines.spdk",
    "repro.baselines.xrp",
]

STEPS_PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
deferred = {DEFERRED!r}
steps = []
seen = set()

def step(name, extra=None):
    now = {{m for m in deferred if m in sys.modules}}
    steps.append([name, sorted(now - seen), extra])
    seen.update(now)

import repro
from repro.baselines.registry import ENGINE_NAMES, make_engine
from repro.obs import drain_ambient_monitors, set_default_monitor
from repro.sim.engine import Simulator
step("plain", repro.Machine().monitor is None)
Simulator(sanitize=True)
step("sanitize")
step("trace", type(repro.Machine(trace=True).tracer).__name__)
step("monitor", repro.Machine(monitor=True).monitor is not None)
from repro.obs.monitor import MonitorConfig
set_default_monitor(MonitorConfig())
ambient = repro.Machine()
step("ambient", [ambient.monitor is not None,
                 drain_ambient_monitors() == [ambient.monitor]])
set_default_monitor(None)
for name in ENGINE_NAMES:
    machine = repro.Machine()
    engine = make_engine(machine, machine.spawn_process(), name)
    step(name, engine.name)
print(json.dumps(steps))
"""


def test_optional_subsystems_load_exactly_when_used():
    steps = _last_json(STEPS_PROGRAM)
    assert steps == [
        ["plain", [], True],
        ["sanitize", ["repro.sim.sanitizer"], None],
        ["trace", ["repro.sim.spans"], "Tracer"],
        ["monitor", ["repro.obs.monitor"], True],
        ["ambient", [], [True, True]],
        ["sync", ["repro.baselines.sync_io"], "sync"],
        ["libaio", ["repro.baselines.libaio"], "libaio"],
        ["io_uring", ["repro.baselines.io_uring"], "io_uring"],
        ["spdk", ["repro.baselines.spdk"], "spdk"],
        ["xrp", ["repro.baselines.xrp"], "xrp"],
        ["bypassd", [], "bypassd"],
        ["bypassd-optappend", [], "bypassd-optappend"],
    ]


def test_every_dataclass_has_its_own_docstring():
    """Without one, ``dataclasses`` builds ``__doc__`` from
    ``inspect.signature`` at import, in every fresh interpreter."""
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if not (inspect.isclass(obj) and obj.__module__ == info.name
                    and dataclasses.is_dataclass(obj)):
                continue
            generated = obj.__name__ + str(
                inspect.signature(obj)).replace(" -> None", "")
            if obj.__doc__ == generated:
                missing.append(f"{info.name}.{obj.__qualname__}")
    assert missing == []
