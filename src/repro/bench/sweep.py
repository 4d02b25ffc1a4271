"""The sweep grid: engine x workload x fault plan as one experiment.

The paper's evaluation is a fixed set of figures; this experiment
crosses four engines (bypassd, io_uring, libaio, sync) with five
workloads and three fault plans and records, per cell, the paper's
user / kernel / device latency split (Table 1, Figure 7) next to
latency percentiles, throughput and fault counters.  It is a registry experiment like any
figure: ``python -m repro.bench sweep`` renders it, ``--timings``
records its table in ``bench-timings.json``, and
``scripts/perf_gate.py`` pins every cell's every metric exactly.

The grid is a Python literal on purpose.  The runner's cache key is the
``src/repro`` tree hash plus the job config, so a grid edit here is a
source edit and can never be served a stale cached table.

Each cell boots one small traced, monitored :class:`Machine`, drives
the cell's workload (an fio pattern or a YCSB mix across N tenant
processes) and folds the data-path ops' spans into the split.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from ..apps.fio import FioJob, run_fio
from ..apps.workload_utils import StartGate, materialize_file
from ..apps.ycsb import WORKLOAD_MIXES, YCSBWorkload
from ..baselines.registry import make_engine
from ..faults import FaultPlan
from ..machine import Machine
from ..obs.attribution import fold_sides, waterfalls
from ..obs.monitor import BACKLOG_SLOS, SLO, MonitorConfig
from ..sim.stats import LatencyRecorder, ThroughputCounter
from .report import ResultTable

__all__ = [
    "FAULT_PLANS",
    "GRID",
    "GridPoint",
    "SWEEP_SLOS",
    "WORKLOADS",
    "expand",
    "run_cell",
    "sweep_grid",
    "validate",
]

MIB = 1024 * 1024

#: Named workloads.  ``kind: fio`` drives an fio pattern; ``kind: ycsb``
#: replays a seeded YCSB mix per tenant, reads and scans as engine
#: preads, updates, inserts and read-modify-writes as pwrites.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "randread-4k": {"kind": "fio", "rw": "randread", "block_size": 4096,
                    "file_mib": 4, "ops": 24, "tenants": 1, "seed": 42},
    "randread-128k": {"kind": "fio", "rw": "randread",
                      "block_size": 131072, "file_mib": 8, "ops": 24,
                      "tenants": 1, "seed": 42},
    "randwrite-4k-2t": {"kind": "fio", "rw": "randwrite",
                        "block_size": 4096, "file_mib": 4, "ops": 16,
                        "tenants": 2, "seed": 42},
    "seqread-64k": {"kind": "fio", "rw": "read", "block_size": 65536,
                    "file_mib": 8, "ops": 24, "tenants": 1, "seed": 42},
    "ycsb-b-2t": {"kind": "ycsb", "mix": "b", "block_size": 4096,
                  "records": 256, "ops": 24, "tenants": 2, "seed": 42},
}

#: Named fault plans (``repro.faults`` specs; ``None`` runs clean).
#: Both plans are deterministic, so every engine sees the same
#: schedule: one media read error mid-run, or four +400 us completion
#: delays (never an error).
FAULT_PLANS: Dict[str, Optional[str]] = {
    "none": None,
    "media-retry": "seed=7,media_read_error_nth=12",
    "spike": "seed=7,latency_spike_nth=10,latency_spike_count=4,"
             "latency_spike_ns=400000",
}

#: The grid: every engine x workload x fault plan, minus the cells an
#: ``exclude`` rule matches on all of its axes.  io_uring and libaio
#: surface a media error as a raw completion error by design (they
#: have no retry machinery), so that pairing is a crash, not a scenario.
GRID: Dict[str, Any] = {
    "engines": ("bypassd", "io_uring", "libaio", "sync"),
    "workloads": tuple(WORKLOADS),
    "faults": tuple(FAULT_PLANS),
    "exclude": ({"engine": "io_uring", "faults": "media-retry"},
                {"engine": "libaio", "faults": "media-retry"}),
}

# Cell machines are deliberately small: a few-MiB file per tenant on a
# 256 MiB device keeps the whole grid under a second.
CELL_CAPACITY_BYTES = 256 * MIB
CELL_MEMORY_BYTES = 128 * MIB

# The backlog SLOs plus a per-op latency bound: a cell whose windowed
# p99 crosses 1 ms books an SLO breach (`slo_breaches`).
SWEEP_SLOS = BACKLOG_SLOS + (
    SLO("fio_lat_p99", "fio.lat_ns", 1_000_000.0,
        reduce="p99", window_ns=200_000),
)

# Op roots the latency split folds: the data path only, so setup
# syscalls (open, fallocate, fsync, fmap, close) stay out of it.
_DATA_PATH_OPS = ("pread", "pwrite")

# YCSB scans are capped short: a cell budgets tens of ops, and a
# 100-block scan would turn one op into half the cell's I/O.
_MAX_SCAN_BLOCKS = 4

# Column order: latency stats, throughput, counters, the split (then
# one `<label>.kernel_ns` per kernel layer seen), the simulated end
# time, and the latency stats of each tenant.
_LATENCY_STATS = ("ops", "mean_ns", "p50_ns", "p99_ns", "p999_ns")
_LEADING_COLUMNS = _LATENCY_STATS + (
    "iops", "mbps", "retries", "faults_injected", "slo_breaches",
    "user_ns", "kernel_ns", "device_ns")


class GridPoint(NamedTuple):
    """One cell of the grid."""

    engine: str
    workload: str
    faults: str                      # fault plan name

    @property
    def cell(self) -> str:
        """The row label: stable across runs and refreshes."""
        return (f"engine={self.engine}/wl={self.workload}"
                f"/faults={self.faults}")


_AXES = ("engine", "workload", "faults")


def validate(grid: Dict[str, Any] = GRID,
             workloads: Dict[str, Dict[str, Any]] = WORKLOADS,
             fault_plans: Dict[str, Optional[str]] = FAULT_PLANS) -> None:
    """Raise :class:`ValueError` unless every name the grid uses
    resolves: its workloads and fault plans exist, each workload has a
    driver (and a ycsb workload a known mix), each fault plan parses
    and every exclude rule matches on the grid's axes only."""
    for name in grid["workloads"]:
        if name not in workloads:
            raise ValueError(f"grid names unknown workload {name!r}")
        spec = workloads[name]
        if spec.get("kind") not in ("fio", "ycsb"):
            raise ValueError(f"workload {name!r} has unknown kind "
                             f"{spec.get('kind')!r}")
        if (spec["kind"] == "ycsb"
                and str(spec.get("mix", "b")).upper() not in WORKLOAD_MIXES):
            raise ValueError(f"workload {name!r} has unknown ycsb mix "
                             f"{spec.get('mix')!r}")
    for name in grid["faults"]:
        if name not in fault_plans:
            raise ValueError(f"grid names unknown fault plan {name!r}")
        if fault_plans[name] is not None:
            FaultPlan.parse(fault_plans[name])
    for rule in grid.get("exclude", ()):
        if not rule or set(rule) - set(_AXES):
            raise ValueError(f"exclude rule {rule!r} must use axes "
                             f"{'/'.join(_AXES)}")


def expand(grid: Dict[str, Any] = GRID) -> List[GridPoint]:
    """The grid's cells in sorted cell order, excludes pruned; a grid
    that fails :func:`validate` raises instead."""
    validate(grid)
    points = [GridPoint(e, w, f) for e in grid["engines"]
              for w in grid["workloads"] for f in grid["faults"]]
    kept = [p for p in points
            if not any(all(p._asdict()[axis] == value
                           for axis, value in rule.items())
                       for rule in grid.get("exclude", ()))]
    return sorted(kept, key=lambda p: p.cell)


# ---------------------------------------------------------------------------
# Cell drivers
# ---------------------------------------------------------------------------

def _drive_fio(machine: Machine, spec: Dict[str, Any],
               engine: str) -> Dict[str, Any]:
    job = FioJob(
        engine=engine,
        rw=spec["rw"],
        block_size=int(spec["block_size"]),
        file_size=int(spec.get("file_mib", 4)) * MIB,
        threads=1,
        processes=int(spec.get("tenants", 1)),
        ops_per_thread=int(spec["ops"]),
        seed=int(spec.get("seed", 42)),
    )
    result = run_fio(machine, job)
    return {
        "latency": result.latency,
        "per_tenant": result.per_process_latency,
        "iops": result.throughput.iops,
        "mbps": result.throughput.mbps,
    }


def _drive_ycsb(machine: Machine, spec: Dict[str, Any],
                engine_name: str) -> Dict[str, Any]:
    """N tenant processes each replaying a seeded YCSB op stream
    against a private file: reads/scans map to engine preads at
    ``key * block_size``, updates/inserts/rmws to pwrites."""
    block = int(spec["block_size"])
    records = int(spec.get("records", 256))
    tenants = int(spec.get("tenants", 1))
    ops_per_tenant = int(spec["ops"])
    seed = int(spec.get("seed", 42))
    mix = str(spec.get("mix", "b"))
    file_size = records * block
    needs_write = any(k not in ("read", "scan")
                      for k in WORKLOAD_MIXES[mix.upper()])

    overall = LatencyRecorder(f"ycsb-{engine_name}")
    throughput = ThroughputCounter(f"ycsb-{engine_name}")
    per_tenant: List[LatencyRecorder] = []
    finish_times: List[int] = []
    gate = StartGate(machine, expected=tenants, counters=[throughput])

    def tenant_body(engine, thread, path, workload, lat):
        f = yield from engine.open(thread, path, write=needs_write)
        yield from gate.arrive(thread)
        for op in workload.ops(ops_per_tenant):
            offset = (op.key % records) * block
            t0 = machine.now
            if op.kind in ("update", "insert"):
                yield from f.pwrite(thread, offset, block)
                nbytes = block
            elif op.kind == "rmw":
                yield from f.pread(thread, offset, block)
                yield from f.pwrite(thread, offset, block)
                nbytes = 2 * block
            elif op.kind == "scan":
                length = min(max(op.scan_len, 1), _MAX_SCAN_BLOCKS)
                nbytes = 0
                for i in range(length):
                    off = ((op.key + i) % records) * block
                    yield from f.pread(thread, off, block)
                    nbytes += block
            else:
                yield from f.pread(thread, offset, block)
                nbytes = block
            lat_ns = machine.now - t0
            overall.record(lat_ns)
            lat.record(lat_ns)
            if machine.monitor is not None:
                machine.monitor.observe("fio.lat_ns", float(lat_ns))
            throughput.record(nbytes=nbytes)
        finish_times.append(machine.now)

    bodies = []
    for p in range(tenants):
        proc = machine.spawn_process(f"ycsb{p}")
        engine = make_engine(machine, proc, engine_name)
        path = f"/ycsb-{p}.dat"
        machine.run_process(
            materialize_file(machine, proc, engine, path, file_size))
        lat = LatencyRecorder(f"tenant{p}")
        per_tenant.append(lat)
        thread = proc.new_thread(f"ycsb{p}-0")
        workload = YCSBWorkload(mix, records, seed=seed + p,
                                max_scan_len=_MAX_SCAN_BLOCKS)
        bodies.append(thread.run(
            tenant_body(engine, thread, path, workload, lat)))

    procs = [machine.sim.process(body) for body in bodies]
    machine.run()
    for sp in procs:
        assert sp.triggered, "ycsb tenant did not finish"
        _ = sp.value
    throughput.stop(max(finish_times))
    return {
        "latency": overall,
        "per_tenant": per_tenant,
        "iops": throughput.iops,
        "mbps": throughput.mbps,
    }


def _latency_stats(lat: LatencyRecorder) -> Dict[str, float]:
    return {
        "ops": float(len(lat)),
        "mean_ns": lat.mean_ns,
        "p50_ns": lat.percentile_ns(50),
        "p99_ns": lat.percentile_ns(99),
        "p999_ns": lat.percentile_ns(99.9),
    }


def _latency_split(spans) -> Dict[str, float]:
    """ns per data-path op on each side of the user / kernel / device
    split, plus ``<label>.kernel_ns`` per kernel layer
    (:func:`repro.obs.attribution.fold_sides`)."""
    ops = [wf for wf in waterfalls(spans)
           if wf.op.partition("/")[2] in _DATA_PATH_OPS]
    sides, layers = fold_sides(ops)
    out = {f"{side}_ns": ns / len(ops) for side, ns in sides.items()}
    for label, ns in sorted(layers.items()):
        out[f"{label}.kernel_ns"] = ns / len(ops)
    return out


def run_cell(point: GridPoint) -> Dict[str, float]:
    """Simulate one cell; its metrics by column name.

    Per-tenant latency stats are keyed ``tenant<i>.<stat>``.
    """
    spec = WORKLOADS[point.workload]
    machine = Machine(
        capacity_bytes=CELL_CAPACITY_BYTES,
        memory_bytes=CELL_MEMORY_BYTES,
        capture_data=False,
        trace=True,
        faults=FAULT_PLANS[point.faults],
        monitor=MonitorConfig(slos=SWEEP_SLOS),
    )
    drive = _drive_ycsb if spec["kind"] == "ycsb" else _drive_fio
    driven = drive(machine, spec, point.engine)
    counters = machine.stats().summary()
    metrics = {
        **_latency_stats(driven["latency"]),
        "iops": driven["iops"],
        "mbps": driven["mbps"],
        "retries": float(counters.get("driver_retries", 0)
                         + counters.get("userlib_io_retries", 0)),
        "faults_injected": float(sum(
            v for k, v in counters.items() if k.startswith("injected_"))),
        "slo_breaches": float(counters.get("slo_breaches", 0)),
        **_latency_split(machine.tracer.spans),
        "sim_end_ns": float(machine.now),
    }
    for i, lat in enumerate(driven["per_tenant"]):
        for stat, value in _latency_stats(lat).items():
            metrics[f"tenant{i}.{stat}"] = value
    return metrics


def sweep_grid() -> ResultTable:
    """The registry experiment: one row per cell, one column per
    metric; ``None`` where a cell has no such metric (a kernel layer
    it never crosses, a second tenant it does not have)."""
    cells = {p.cell: run_cell(p) for p in expand()}
    layers = sorted({key for metrics in cells.values() for key in metrics
                     if key.endswith(".kernel_ns")})
    tenants = max(int(WORKLOADS[w]["tenants"]) for w in GRID["workloads"])
    headers = ["Cell", *_LEADING_COLUMNS, *layers, "sim_end_ns",
               *(f"tenant{i}.{stat}" for i in range(tenants)
                 for stat in _LATENCY_STATS)]
    table = ResultTable(
        "Sweep grid: engine x workload x fault plan",
        headers,
        notes="user_ns / kernel_ns / device_ns and <layer>.kernel_ns are "
              "ns per pread/pwrite op (fio ramp ops included); "
              "retries = driver + UserLib retries; "
              "'-' = the cell has no such metric.")
    for cell, metrics in cells.items():
        table.add(cell, *(metrics.get(h) for h in headers[1:]))
    return table
