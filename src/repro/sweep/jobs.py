"""Sweep cells as runner jobs: build, execute, record.

Each grid point becomes one job dict shaped exactly like the registry
runner's (:func:`repro.bench.runner.run_job` contract): a normalized
config, a content fingerprint over (source tree, config), and a
JSON-serializable result payload.  The jobs flow through
:func:`repro.bench.runner.execute_jobs`, so cells share the
``.bench-cache`` content-addressed store and the process pool with
registry experiments — a warm rerun of an unchanged grid executes
zero simulations, and ``--jobs N`` merges byte-identically to serial.

The worker (:func:`run_sweep_point`) boots one traced, monitored
:class:`~repro.machine.Machine` per cell, drives the cell's workload
(fio pattern or YCSB mix across N tenant processes), and emits a
machine-readable **record**: per-tenant latency percentiles,
throughput, fault/retry counters, SLO breaches, the user / kernel /
device split of the data-path ops (the paper's Table 1 / Figure 7
attribution, per kernel layer too), and a compact wait-annotated trace
dump that :mod:`repro.sweep.compare` feeds to
:func:`repro.obs.diff.attribute_regression` when a metric regresses.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional

from ..apps.fio import FioJob, run_fio
from ..apps.workload_utils import StartGate, materialize_file
from ..apps.ycsb import WORKLOAD_MIXES, YCSBWorkload
from ..baselines.registry import make_engine
from ..bench import runner
from ..machine import Machine
from ..obs.attribution import fold_sides, waterfalls
from ..obs.diff import compact_spans
from ..obs.monitor import SLO, MonitorConfig
from ..sim.stats import LatencyRecorder, ThroughputCounter
from .grid import GridPoint

__all__ = [
    "RECORD_SCHEMA",
    "SWEEP_SLOS",
    "build_job",
    "run_sweep_point",
]

RECORD_SCHEMA = 1

MIB = 1024 * 1024

# Cell machines are deliberately small: a few-MiB file per tenant on a
# 256 MiB device keeps a cell to a fraction of a second so the default
# grid re-simulates on every cold CI run.
CELL_CAPACITY_BYTES = 256 * MIB
CELL_MEMORY_BYTES = 128 * MIB

# The runner's ambient backlog SLOs plus a per-op latency bound: any
# cell whose windowed p99 crosses 1 ms books an SLO breach into its
# record, and the compare stage treats breach-count growth as a
# regression in its own right.
SWEEP_SLOS = runner.MONITOR_SLOS + (
    SLO("fio_lat_p99", "fio.lat_ns", 1_000_000.0,
        reduce="p99", window_ns=200_000),
)

# Op roots the latency split folds: the data path only, so setup
# syscalls (open, fallocate, fsync, fmap, close) stay out of it.
_DATA_PATH_OPS = ("pread", "pwrite")

# YCSB scans are capped short: a sweep cell budgets tens of ops, and a
# 100-block scan would turn one op into half the cell's I/O.
_MAX_SCAN_BLOCKS = 4


def build_job(point: GridPoint, tree: str,
              effective_faults: Optional[str] = None,
              monitor: bool = True) -> Dict[str, Any]:
    """The runner-shaped job dict for one grid point.

    ``effective_faults`` is the cell's fault spec after any seeded-
    regression injection (defaults to the point's own plan).  The
    whole resolved scenario — engine, workload knobs, fault spec —
    rides in ``params`` and therefore in the fingerprint: editing the
    manifest (or injecting a regression) invalidates exactly the cells
    whose resolved scenario changed, and a warm cache can never serve
    a clean result for an injected cell.
    """
    faults = (point.faults_spec if effective_faults is None
              else effective_faults)
    name = f"sweep/{point.cell}"
    config = runner.job_config(
        name, faults, monitor,
        params={
            "kind": "sweep-cell",
            "engine": point.engine,
            "workload": point.workload,
            "workload_spec": dict(point.workload_spec),
            "faults_plan": point.faults,
        })
    fp = runner.job_fingerprint(tree, config)
    return {
        "experiment": name,
        "config": config,
        "fingerprint": fp,
        "tree": tree,
        "seed": runner.job_seed(fp),
        "point": point.to_dict(),
    }


# ---------------------------------------------------------------------------
# Cell drivers
# ---------------------------------------------------------------------------

def _cell_machine(config: Dict[str, Any]) -> Machine:
    monitor = (MonitorConfig(slos=SWEEP_SLOS) if config.get("monitor")
               else None)
    return Machine(
        capacity_bytes=CELL_CAPACITY_BYTES,
        memory_bytes=CELL_MEMORY_BYTES,
        capture_data=False,
        trace=True,
        faults=config.get("faults") or None,
        monitor=monitor,
    )


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
        "ops": result.throughput.ops,
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
    end = max(finish_times)
    throughput.stop(end)
    return {
        "latency": overall,
        "per_tenant": per_tenant,
        "ops": throughput.ops,
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


# ---------------------------------------------------------------------------
# The worker (picklable module-level function; pool-safe)
# ---------------------------------------------------------------------------

def run_sweep_point(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one grid cell inside a clean ambient environment.

    Mirrors :func:`repro.bench.runner.run_job`'s contract: never
    raises across the pool boundary, resets ambient state on entry and
    exit, and returns the JSON payload the cache stores.  The
    difference is the payload body: a sweep **record** instead of
    rendered experiment text.
    """
    config = job["config"]
    point = job["point"]
    spec = dict(point["workload_spec"])
    # Host wall clock: timing metadata only, never simulated time.
    t0 = time.monotonic()  # simlint: ignore[SIM001]
    runner.reset_ambient_state()
    try:
        machine = _cell_machine(config)
        if spec.get("kind") == "ycsb":
            driven = _drive_ycsb(machine, spec, point["engine"])
        else:
            driven = _drive_fio(machine, spec, point["engine"])
        counters = machine.stats().summary()
        monitor = machine.monitor
        record: Dict[str, Any] = {
            "schema": RECORD_SCHEMA,
            "cell": f"engine={point['engine']}/wl={point['workload']}"
                    f"/faults={point['faults']}",
            "axes": {"engine": point["engine"],
                     "workload": point["workload"],
                     "faults": point["faults"]},
            "faults_spec": config.get("faults"),
            "metrics": {
                **_latency_stats(driven["latency"]),
                "iops": driven["iops"],
                "mbps": driven["mbps"],
                "retries": float(counters.get("driver_retries", 0)
                                 + counters.get("userlib_io_retries", 0)),
                "faults_injected": float(sum(
                    v for k, v in counters.items()
                    if k.startswith("injected_"))),
                "slo_breaches": float(counters.get("slo_breaches", 0)),
                **_latency_split(machine.tracer.spans),
                "sim_end_ns": float(machine.now),
            },
            "tenants": [_latency_stats(lat)
                        for lat in driven["per_tenant"]],
            "counters": counters,
            "slo": ([{"slo": b.slo, "t_ns": b.t_ns, "value": b.value}
                     for b in monitor.breaches]
                    if monitor is not None else []),
            "trace": compact_spans(machine.tracer.spans),
        }
        payload: Dict[str, Any] = {
            "schema": runner.CACHE_SCHEMA,
            "experiment": job["experiment"],
            "fingerprint": job["fingerprint"],
            "tree": job["tree"],
            "config": config,
            "seed": job["seed"],
            "record": record,
        }
        sim_time = machine.now
        n_machines = 1
    except Exception:
        payload = {
            "schema": runner.CACHE_SCHEMA,
            "experiment": job["experiment"],
            "fingerprint": job["fingerprint"],
            "tree": job["tree"],
            "config": config,
            "seed": job["seed"],
            "error": traceback.format_exc(),
        }
        sim_time = 0
        n_machines = 0
    finally:
        runner.reset_ambient_state()
    payload["timing"] = {
        "wall_s": time.monotonic() - t0,  # simlint: ignore[SIM001]
        "sim_time_ns": sim_time,
        "machines": n_machines,
    }
    return payload
