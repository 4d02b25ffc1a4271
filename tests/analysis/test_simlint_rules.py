"""One positive and one negative fixture per simlint rule."""

import textwrap

from repro.analysis import lint_source


def _lint(code, path="model.py", **kw):
    return lint_source(textwrap.dedent(code), path=path, **kw)


def _ids(violations):
    return [v.rule.id for v in violations]


# -- SIM001: wall-clock / OS entropy ------------------------------------

def test_sim001_flags_wall_clock():
    vs = _lint("""
        import time

        def latency_stamp():
            return time.time()
    """)
    assert "SIM001" in _ids(vs)


def test_sim001_flags_from_import_and_module_random():
    vs = _lint("""
        import os
        import random
        from datetime import datetime

        def entropy():
            a = os.urandom(8)
            b = random.randint(0, 10)
            c = datetime.now()
            return a, b, c
    """)
    assert _ids(vs).count("SIM001") == 3


def test_sim001_ok_with_sim_clock_and_seeded_rng():
    vs = _lint("""
        import random

        def model(sim, seed):
            rng = random.Random(seed)
            return sim.now + rng.randint(0, 10)
    """)
    assert "SIM001" not in _ids(vs)


def test_sim001_flags_numpy_module_random():
    vs = _lint("""
        import numpy as np

        def noise():
            return np.random.rand(4)
    """)
    assert "SIM001" in _ids(vs)


def test_sim001_ok_numpy_seeded_generator():
    vs = _lint("""
        import numpy as np

        def noise(seed):
            rng = np.random.default_rng(seed)
            return rng.random(4)
    """)
    assert _ids(vs) == []


# -- SIM002: unordered iteration feeding scheduling ---------------------

def test_sim002_flags_set_iteration_with_scheduling_body():
    vs = _lint("""
        class Flusher:
            def __init__(self, sim):
                self.sim = sim
                self.pending = set()

            def kick(self):
                for delay in self.pending:
                    self.sim.timeout(delay)
    """)
    assert "SIM002" in _ids(vs)


def test_sim002_flags_dict_view_with_yield_body():
    vs = _lint("""
        class Flusher:
            def drain(self, table):
                for key, ev in table.items():
                    yield ev
    """)
    assert "SIM002" in _ids(vs)


def test_sim002_ok_when_sorted():
    vs = _lint("""
        class Flusher:
            def __init__(self, sim):
                self.sim = sim
                self.pending = set()

            def kick(self):
                for delay in sorted(self.pending):
                    self.sim.timeout(delay)

            def drain(self, table):
                for key, ev in sorted(table.items()):
                    yield ev
    """)
    assert "SIM002" not in _ids(vs)


def test_sim002_ok_without_scheduling_in_body():
    # pure bookkeeping loops over dicts are insertion-ordered and fine
    vs = _lint("""
        class Stats:
            def totals(self, counters):
                out = 0
                for name, n in counters.items():
                    out += n
                return out
    """)
    assert "SIM002" not in _ids(vs)


def test_sim002_flags_set_comprehension_in_generator():
    vs = _lint("""
        class Cache:
            def __init__(self):
                self.dirty = set()

            def writeback(self, io):
                doomed = [k for k in self.dirty]
                for k in doomed:
                    yield io.write(k)
    """)
    assert "SIM002" in _ids(vs)


def test_sim002_ok_comprehension_consumed_by_sorted():
    vs = _lint("""
        class Cache:
            def __init__(self):
                self.dirty = set()

            def writeback(self, io):
                doomed = sorted(k for k in self.dirty)
                for k in doomed:
                    yield io.write(k)
    """)
    assert "SIM002" not in _ids(vs)


# -- SIM003: float into the integer-ns clock ----------------------------

def test_sim003_flags_float_literal_delay():
    vs = _lint("""
        def proc(sim):
            yield sim.timeout(1.5)
    """)
    assert "SIM003" in _ids(vs)


def test_sim003_flags_true_division_delay():
    vs = _lint("""
        def proc(sim, nbytes, rate):
            yield sim.timeout(nbytes / rate)
    """)
    assert "SIM003" in _ids(vs)


def test_sim003_ok_int_cast_and_floor_division():
    vs = _lint("""
        def proc(sim, nbytes, rate):
            yield sim.timeout(int(nbytes / rate))
            yield sim.timeout(nbytes // rate)
            yield sim.timeout(round(nbytes / rate))
    """)
    assert "SIM003" not in _ids(vs)


def test_sim003_flags_float_on_now():
    vs = _lint("""
        def rewind(sim):
            sim.now = 0.5
    """)
    assert "SIM003" in _ids(vs)


# -- SIM004: yielding a raw value ---------------------------------------

def test_sim004_flags_constant_yield_in_process():
    vs = _lint("""
        def proc(sim):
            yield sim.timeout(10)
            yield 42
    """)
    assert "SIM004" in _ids(vs)


def test_sim004_ok_plain_data_generator():
    # a generator that never yields events is not a sim process
    vs = _lint("""
        def walk(tree):
            for node in tree:
                yield node.name, node
    """)
    assert "SIM004" not in _ids(vs)


# -- SIM005: double trigger ---------------------------------------------

def test_sim005_flags_straight_line_double_succeed():
    vs = _lint("""
        def notify(ev):
            ev.succeed(1)
            ev.succeed(2)
    """)
    assert "SIM005" in _ids(vs)


def test_sim005_ok_with_control_flow_between():
    vs = _lint("""
        def notify(ev, redo):
            ev.succeed(1)
            if redo:
                return
            other.succeed(2)
    """)
    assert "SIM005" not in _ids(vs)


def test_sim005_flags_succeed_then_fail():
    vs = _lint("""
        def notify(ev):
            ev.succeed(1)
            ev.fail(RuntimeError("boom"))
    """)
    assert "SIM005" in _ids(vs)


# -- SIM006: swallowed interrupt ----------------------------------------

def test_sim006_flags_empty_interrupt_handler():
    vs = _lint("""
        def proc(sim, ev):
            try:
                yield ev
            except Interrupt:
                pass
    """)
    assert "SIM006" in _ids(vs)


def test_sim006_ok_when_handled():
    vs = _lint("""
        def proc(sim, ev):
            try:
                yield ev
            except Interrupt as intr:
                record(intr.cause)
                return None
    """)
    assert "SIM006" not in _ids(vs)


# -- SIM007: cross-layer private mutation -------------------------------

def test_sim007_flags_foreign_private_write():
    vs = _lint("""
        def setup(engine, size):
            f = engine.create_file(size)
            f._size = size
    """)
    assert "SIM007" in _ids(vs)


def test_sim007_ok_own_attribute_and_module_friend():
    vs = _lint("""
        class File:
            def __init__(self):
                self._size = 0

        def grow(f, n):
            f._size = n   # _size is owned by a class in this module
    """)
    assert "SIM007" not in _ids(vs)


# -- SIM008: missing __slots__ on hot-path classes ----------------------

def test_sim008_flags_hot_dataclass_without_slots():
    vs = _lint("""
        from dataclasses import dataclass

        @dataclass
        class Command:
            opcode: int
            addr: int
    """, is_hot_module=True)
    assert "SIM008" in _ids(vs)


def test_sim008_ok_with_slots_true_or_cold_module():
    hot = _lint("""
        from dataclasses import dataclass

        @dataclass(slots=True)
        class Command:
            opcode: int
    """, is_hot_module=True)
    cold = _lint("""
        from dataclasses import dataclass

        @dataclass
        class Config:
            retries: int
    """, is_hot_module=False)
    assert "SIM008" not in _ids(hot)
    assert "SIM008" not in _ids(cold)


def test_sim008_flags_event_subclass_without_slots():
    vs = _lint("""
        class Sentinel(Event):
            def __init__(self, sim):
                super().__init__(sim)
                self.extra = None
    """, is_hot_module=True)
    assert "SIM008" in _ids(vs)


def test_sim008_flags_plain_command_without_slots():
    bare = _lint("""
        class Command:
            def __init__(self, opcode, addr):
                self.opcode = opcode
                self.addr = addr
    """, is_hot_module=True)
    slotted = _lint("""
        class Command:
            __slots__ = ("opcode", "addr")

            def __init__(self, opcode, addr):
                self.opcode = opcode
                self.addr = addr
    """, is_hot_module=True)
    assert "SIM008" in _ids(bare)
    assert "SIM008" not in _ids(slotted)


def test_sim008_exempts_enums():
    vs = _lint("""
        import enum

        class Opcode(enum.Enum):
            READ = 1
    """, is_hot_module=True)
    assert "SIM008" not in _ids(vs)


# -- SIM009: unseeded RNG ------------------------------------------------

def test_sim009_flags_unseeded_constructors():
    vs = _lint("""
        import random
        import numpy as np

        def build():
            a = random.Random()
            b = np.random.default_rng()
            c = random.SystemRandom(1)
            return a, b, c
    """)
    assert _ids(vs).count("SIM009") == 3


def test_sim009_ok_seeded():
    vs = _lint("""
        import random
        import numpy as np

        def build(seed):
            return random.Random(seed), np.random.default_rng(seed)
    """)
    assert "SIM009" not in _ids(vs)


# -- SIM010: id() as key / ordering -------------------------------------

def test_sim010_flags_id_as_container_key():
    vs = _lint("""
        class PerThread:
            def __init__(self):
                self.ctxs = {}

            def ctx(self, thread):
                got = self.ctxs.get(id(thread))
                self.ctxs[id(thread)] = got
                return got
    """)
    assert _ids(vs).count("SIM010") == 2


def test_sim010_flags_sort_by_id():
    vs = _lint("""
        def order(threads):
            return sorted(threads, key=id)
    """)
    assert "SIM010" in _ids(vs)


def test_sim010_ok_deterministic_key():
    vs = _lint("""
        class PerThread:
            def __init__(self):
                self.ctxs = {}

            def ctx(self, thread):
                return self.ctxs.get(thread.tid)
    """)
    assert "SIM010" not in _ids(vs)


# -- SIM011: TimeSeries.samples mutation --------------------------------

def test_sim011_flags_direct_series_mutation():
    vs = _lint("""
        def feed(series, ts):
            series.samples.append((10, 1.0))
            ts.samples.extend([(1, 2.0)])
            ts.samples.sort()
    """)
    assert _ids(vs).count("SIM011") == 3


def test_sim011_flags_rebinding_the_sample_list():
    vs = _lint("""
        def reset(series, other):
            series.samples = []
            other.samples = list(other.samples)
    """)
    assert _ids(vs).count("SIM011") == 2


def test_sim011_ok_record_and_reads():
    vs = _lint("""
        def feed(series):
            series.record(10, 1.0)
            return series.samples[-1], len(series.samples)
    """)
    assert "SIM011" not in _ids(vs)


def test_sim011_fires_outside_sim_and_not_on_points():
    # TimeSeries has no .points any more, so only .samples is guarded.
    vs = _lint("""
        def feed(series, trace):
            series.samples.append((10, 1.0))
            trace.points.append((10, 1.0))
    """, path="src/repro/apps/feeder.py")
    assert [v.line for v in vs if v.rule.id == "SIM011"] == [3]


def test_sim011_ok_inside_sim_layer():
    vs = _lint("""
        def record(self, now_ns, value):
            self.samples.append((now_ns, value))
    """, path="src/repro/sim/stats.py")
    assert "SIM011" not in _ids(vs)


def test_sim011_ok_module_owning_its_own_samples_attr():
    # A module that declares its *own* samples attribute (e.g. a
    # dataclass field) is a friend, not a TimeSeries client.
    vs = _lint("""
        class Breakdown:
            samples: list

            def __init__(self):
                self.samples = []

            def add(self, v):
                self.samples.append(v)
    """)
    assert "SIM011" not in _ids(vs)


def test_sim011_ok_plain_class_assigning_its_own_samples():
    vs = _lint("""
        class Histogram:
            def __init__(self):
                self.samples = []

            def add(self, v):
                self.samples.append(v)
    """, path="src/repro/apps/histogram.py")
    assert "SIM011" not in _ids(vs)


# -- SIM012: gauge naming scheme ----------------------------------------

def test_sim012_flags_off_scheme_literal_names():
    vs = _lint("""
        def register(metrics):
            metrics.gauge("BadName")
            metrics.gauge("plain")
            metrics.gauge("nvme..double_dot")
            metrics.gauge("nvme.QP1.inflight")
    """)
    assert _ids(vs).count("SIM012") == 4


def test_sim012_ok_compliant_and_dynamic_names():
    vs = _lint("""
        def register(metrics, name):
            metrics.gauge("nvme.qp1.inflight")
            metrics.gauge("kernel.pagecache.hit_rate")
            metrics.gauge("fio.lat_ns")
            metrics.gauge(name)  # dynamic: not statically checkable
    """)
    assert "SIM012" not in _ids(vs)


# -- SIM013: multiprocessing outside bench/runner.py --------------------

def test_sim013_flags_multiprocessing_import():
    vs = _lint("""
        import multiprocessing

        def fan_out(jobs):
            with multiprocessing.Pool(4) as pool:
                return pool.map(str, jobs)
    """)
    assert "SIM013" in _ids(vs)


def test_sim013_flags_pool_from_import():
    vs = _lint("""
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(jobs):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(str, jobs))
    """)
    assert "SIM013" in _ids(vs)


def test_sim013_flags_thread_pool_too():
    # Threads interleave timelines just as nondeterministically.
    vs = _lint("""
        from concurrent.futures import ThreadPoolExecutor
    """)
    assert "SIM013" in _ids(vs)


def test_sim013_ok_inside_bench_runner():
    vs = _lint("""
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        def fan_out(jobs):
            ctx = get_context("fork")
            with ProcessPoolExecutor(4, mp_context=ctx) as pool:
                return list(pool.map(str, jobs))
    """, path="src/repro/bench/runner.py")
    assert "SIM013" not in _ids(vs)


def test_sim013_ok_plain_concurrent_futures_types():
    # Importing non-pool names from concurrent.futures is fine.
    vs = _lint("""
        from concurrent.futures import Future

        def pending():
            return Future()
    """)
    assert "SIM013" not in _ids(vs)


# -- SIM014: chaos oracles must not mutate simulation state -------------

ORACLES = "src/repro/chaos/oracles.py"


def test_sim014_flags_attribute_assignment():
    vs = _lint("""
        def check_thing(machine):
            machine.device.counter = 0
            return []
    """, path=ORACLES)
    assert "SIM014" in _ids(vs)


def test_sim014_flags_mutator_call():
    vs = _lint("""
        def check_thing(machine):
            machine.stats.record("reads", 1)
            return []
    """, path=ORACLES)
    assert "SIM014" in _ids(vs)


def test_sim014_flags_subscript_write():
    vs = _lint("""
        def check_thing(machine):
            machine._lost[3] = None
            return []
    """, path=ORACLES)
    assert "SIM014" in _ids(vs)


def test_sim014_flags_augassign_and_delete():
    vs = _lint("""
        def check_thing(qp):
            qp.reaped += 1
            del qp.submitted
            return []
    """, path=ORACLES)
    assert _ids(vs).count("SIM014") == 2


def test_sim014_ok_scratch_containers():
    # Locals bound to fresh containers are the oracle's own scratch
    # space; appending findings to them is the whole point.
    vs = _lint("""
        def check_thing(machine):
            out = []
            seen = set()
            by_name = {s.name: s for s in machine.monitor.config.slos}
            for qp in machine.device.queue_pairs():
                seen.add(qp.qid)
                out.append(("completions", qp.qid))
            counts = dict(by_name)
            counts["total"] = len(seen)
            return out
    """, path=ORACLES)
    assert "SIM014" not in _ids(vs)


def test_sim014_ok_self_and_own_module_attrs():
    vs = _lint("""
        class OracleReport:
            def __init__(self):
                self.items = []

            def add(self, item):
                self.items.append(item)
                self.count = len(self.items)
    """, path=ORACLES)
    assert "SIM014" not in _ids(vs)


def test_sim014_scoped_to_oracle_module():
    # The same mutation is fine anywhere else — the executor *should*
    # drive the machine.
    vs = _lint("""
        def run(machine):
            machine.stats.record("reads", 1)
            machine.device.counter = 0
    """, path="src/repro/chaos/executor.py")
    assert "SIM014" not in _ids(vs)
