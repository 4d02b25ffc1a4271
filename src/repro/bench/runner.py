"""Parallel experiment orchestrator with a content-addressed result
cache.

The paper matrix is embarrassingly parallel: every experiment is a
closed, seeded, deterministic simulation, so the full regeneration can
fan out over a process pool without changing a single byte of output.
This module owns three pieces:

* **The registry** — every figure/table function plus hidden self-test
  targets, in publication order.  ``repro.bench.__main__`` and the CI
  tooling both resolve names here.
* **The cache** — ``.bench-cache/`` maps a job *fingerprint* (SHA-256
  over the ``src/repro`` source-tree hash, the experiment name, and
  the normalized run configuration) to the job's full result payload:
  rendered output, the machine-readable :class:`ResultTable`, fault
  and telemetry counters, and timing records.  Any source edit changes
  the tree hash and invalidates every entry at once — cheap, safe, and
  impossible to poison with a stale result.
* **The pool** — cache misses run under ``ProcessPoolExecutor`` (fork,
  spawn, or forkserver).  Every job executes in a *reset* ambient
  environment (:func:`reset_ambient_state`): a fresh fault injector
  seeded from the plan spec, a fresh monitor config, and an armed
  machine-capture sink, so job results are independent of worker
  reuse, scheduling order, and start method.  Results merge back in
  registry order, making ``--jobs 4`` byte-identical to ``--jobs 1``.

Wall-clock reads in this file are operator-facing progress/timing
metadata only; they never feed simulated time.

This is the **only** module in ``src/repro`` allowed to import
``multiprocessing``/process pools (enforced by simlint rule SIM013):
simulation code stays single-threaded deterministic, parallelism lives
at the orchestration boundary.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from .. import machine as machine_mod
from ..faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    canary,
    set_default_injector,
)
from ..obs.monitor import (
    BACKLOG_SLOS,
    MonitorConfig,
    drain_ambient_monitors,
    set_default_monitor,
)
from ..obs.timings import JobTiming, write_timings
from . import experiments, sweep
from .report import ResultTable

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "ExperimentSpec",
    "JobResult",
    "REGISTRY",
    "ResultCache",
    "RunReport",
    "job_fingerprint",
    "job_seed",
    "execute_jobs",
    "fan_out",
    "normalize_faults_spec",
    "registry_names",
    "reset_ambient_state",
    "run_experiments",
    "run_job",
    "source_tree_hash",
    "telemetry_section",
]

# 2: job_config grew the "profile" key (host profiler pass).
# 3: job_config grew the "params" key (sweep cells as jobs).
# 4: "profile" and "params" dropped (the sweep grid is one experiment).
CACHE_SCHEMA = 4
DEFAULT_CACHE_DIR = ".bench-cache"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: a name and a zero-argument builder."""

    name: str
    build: Callable[[], ResultTable]
    hidden: bool = False     # excluded from `list` and `all`


class _ExplodingTable(ResultTable):
    """A table whose *rendering* fails — the historical escape hatch
    through which a broken experiment still exited 0."""

    def render(self) -> str:
        raise RuntimeError("selftest-fail: render exploded (on purpose)")


def _selftest_fail() -> ResultTable:
    table = _ExplodingTable("selftest", ["col"])
    table.add(1)
    return table


REGISTRY: Dict[str, ExperimentSpec] = {
    spec.name: spec for spec in (
        ExperimentSpec("table1", experiments.table1_latency_breakdown),
        ExperimentSpec("table2", experiments.table2_implementation_size),
        ExperimentSpec("table4", experiments.table4_iommu_overheads),
        ExperimentSpec("fig5", experiments.fig5_translations_per_request),
        ExperimentSpec("fig6", experiments.fig6_fio_latency),
        ExperimentSpec("fig6-write",
                       lambda: experiments.fig6_fio_latency(rw="randwrite")),
        ExperimentSpec("fig7", experiments.fig7_latency_breakdown),
        ExperimentSpec("fig8", experiments.fig8_translation_sensitivity),
        ExperimentSpec("fig9", experiments.fig9_thread_scaling),
        ExperimentSpec("fig10", experiments.fig10_device_sharing),
        ExperimentSpec("fig11", experiments.fig11_io_scheduling),
        ExperimentSpec("fig12", experiments.fig12_revocation_timeline),
        ExperimentSpec("table5", experiments.table5_fmap_overheads),
        ExperimentSpec("memory", experiments.memory_overheads),
        ExperimentSpec("fig13", experiments.fig13_wiredtiger_threads),
        ExperimentSpec("fig14", experiments.fig14_wiredtiger_cache),
        ExperimentSpec("fig15", experiments.fig15_bpfkv),
        ExperimentSpec("fig16", experiments.fig16_kvell),
        ExperimentSpec("table6", experiments.table6_capabilities),
        ExperimentSpec("sweep", sweep.sweep_grid),
        ExperimentSpec("selftest-fail", _selftest_fail, hidden=True),
    )
}


def registry_names(include_hidden: bool = False) -> List[str]:
    """Experiment names in publication (registry) order."""
    return [name for name, spec in REGISTRY.items()
            if include_hidden or not spec.hidden]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def source_tree_hash(root: Optional[Path] = None) -> str:
    """SHA-256 over the ``src/repro`` tree: sorted relative paths plus
    each file's content hash.  Any source edit — a latency constant, a
    scheduler tweak — changes this and invalidates the whole cache."""
    if root is None:
        root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
        h.update(b"\0")
    return h.hexdigest()


def normalize_faults_spec(spec: Optional[str]) -> Optional[str]:
    """Canonical form of a ``--faults`` spec: validated, entries
    stripped and sorted, so equivalent specs share one cache key."""
    if spec is None:
        return None
    FaultPlan.parse(spec)        # raises ValueError on a bad spec
    items = sorted(p.strip() for p in spec.split(",") if p.strip())
    return ",".join(items)


def job_config(experiment: str, faults: Optional[str],
               monitor: bool) -> Dict[str, Any]:
    """The normalized configuration that keys the cache."""
    return {
        "schema": CACHE_SCHEMA,
        "experiment": experiment,
        "faults": normalize_faults_spec(faults),
        "monitor": bool(monitor),
    }


def job_fingerprint(tree: str, config: Dict[str, Any]) -> str:
    h = hashlib.sha256()
    h.update(tree.encode())
    h.update(b"\0")
    h.update(json.dumps(config, sort_keys=True).encode())
    return h.hexdigest()


def job_seed(fingerprint: str) -> int:
    """A deterministic per-job seed derived from the fingerprint
    (recorded in the payload; available to future seeded stages)."""
    return int(fingerprint[:16], 16)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk cache: one JSON file per fingerprint."""

    def __init__(self, directory: os.PathLike = DEFAULT_CACHE_DIR):
        self.dir = Path(directory)

    def path(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached payload, or None.  A corrupt or schema-mismatched
        entry is treated as a miss (and left for gc to reap)."""
        p = self.path(fingerprint)
        try:
            payload = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA or "error" in payload:
            return None
        return payload

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> Path:
        """Atomic write (tmp + rename) so a killed run can't leave a
        half-written entry behind."""
        self.dir.mkdir(parents=True, exist_ok=True)
        p = self.path(fingerprint)
        tmp = p.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n",
                       encoding="utf-8")
        tmp.replace(p)
        return p

    def entries(self) -> List[Dict[str, Any]]:
        """Every readable entry, sorted by fingerprint."""
        out = []
        if not self.dir.is_dir():
            return out
        for p in sorted(self.dir.glob("*.json")):
            try:
                payload = json.loads(p.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = {}
            payload.setdefault("fingerprint", p.stem)
            out.append(payload)
        return out

    def gc(self, keep_tree: Optional[str] = None,
           max_age_s: Optional[float] = None,
           now_s: Optional[float] = None,
           drop_all: bool = False) -> List[str]:
        """Remove stale entries; returns the fingerprints removed.

        * ``drop_all`` — clear the cache.
        * ``keep_tree`` — remove entries recorded under any other
          source-tree hash (they can never hit again).
        * ``max_age_s``/``now_s`` — remove entries older than the age
          (mtime-based; the caller supplies "now" so this module stays
          free of wall-clock reads on its own behalf).

        Unreadable/corrupt files are always removed.
        """
        removed: List[str] = []
        if not self.dir.is_dir():
            return removed
        for p in sorted(self.dir.glob("*.json")):
            try:
                payload = json.loads(p.read_text(encoding="utf-8"))
                stale = (
                    drop_all
                    or payload.get("schema") != CACHE_SCHEMA
                    or (keep_tree is not None
                        and payload.get("tree") != keep_tree)
                )
            except (OSError, ValueError):
                stale = True
            if not stale and max_age_s is not None and now_s is not None:
                stale = (now_s - p.stat().st_mtime) > max_age_s
            if stale:
                p.unlink(missing_ok=True)
                removed.append(p.stem)
        for tmp in sorted(self.dir.glob("*.tmp")):
            tmp.unlink(missing_ok=True)
        return removed


# ---------------------------------------------------------------------------
# Job execution (runs in workers and, for --jobs 1, in-process)
# ---------------------------------------------------------------------------

def reset_ambient_state() -> None:
    """Clear every process-wide ambient hook.

    Called at the start and end of each job so that (a) a forked worker
    never inherits the parent's injector/monitor/capture state and (b)
    two jobs on one reused worker cannot see each other.  This is the
    worker-safety contract: module-level mutable state must not leak
    across jobs or across fork/spawn boundaries.
    """
    set_default_injector(None)
    set_default_monitor(None)
    machine_mod.capture_machines(None)
    canary.disarm_all()


def telemetry_section(name: str, monitors: Sequence) -> str:
    """Aggregated telemetry for one experiment's machines: the busiest
    machine's sparklines as the representative sample, plus every
    machine's SLO breaches in one table."""
    if not monitors:
        return f"telemetry [{name}]: no machines monitored"
    busiest = max(monitors,
                  key=lambda mon: (mon.samples_taken,
                                   len(mon.series)))
    lines = [f"telemetry [{name}]: {len(monitors)} machine(s), "
             f"{sum(mon.samples_taken for mon in monitors)} samples"]
    lines.append(busiest.report())
    total_breaches = sum(mon.breach_count for mon in monitors)
    lines.append(f"SLO breaches across machines: {total_breaches}")
    if total_breaches:
        lines.append(f"  {'machine':>8}  {'t_ns':>12}  {'slo':<24} value")
        for idx, mon in enumerate(monitors):
            for b in mon.breaches:
                lines.append(f"  {idx:>8}  {b.t_ns:>12}  {b.slo:<24} "
                             f"{b.value:g}")
    return "\n".join(lines)


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one experiment inside a clean ambient environment.

    ``job`` carries {experiment, fingerprint, tree, config, seed}.  The
    return payload is JSON-serializable (it is what the cache stores):
    the merged stdout text the serial CLI would have printed, the
    machine-readable table, fault/telemetry counters, and timings.
    Failures never raise across the pool boundary — they come back as
    an ``error`` payload so one broken experiment cannot take down the
    whole matrix.
    """
    name = job["experiment"]
    config = job["config"]
    # Host wall clock: timing metadata only, never simulated time.
    t0 = time.monotonic()  # simlint: ignore[SIM001]
    reset_ambient_state()
    clocks: List[machine_mod.CapturedClock] = []
    machine_mod.capture_machines(clocks)
    injector: Optional[FaultInjector] = None
    buf = io.StringIO()
    try:
        if config.get("faults"):
            injector = FaultInjector(FaultPlan.parse(config["faults"]))
            set_default_injector(injector)
        if config.get("monitor"):
            set_default_monitor(MonitorConfig(slos=BACKLOG_SLOS))
        spec = REGISTRY[name]
        with redirect_stdout(buf):
            table = spec.build()
        monitors = drain_ambient_monitors() if config.get("monitor") else []
        # Byte-for-byte what the serial path printed: stray experiment
        # stdout, then ResultTable.show() (blank line, table, blank
        # line), then the telemetry section.
        text = buf.getvalue() + "\n" + table.render() + "\n\n"
        if config.get("monitor"):
            text += telemetry_section(name, monitors) + "\n"
        payload: Dict[str, Any] = {
            "schema": CACHE_SCHEMA,
            "experiment": name,
            "fingerprint": job["fingerprint"],
            "tree": job["tree"],
            "config": config,
            "seed": job["seed"],
            "output": text,
            "table": table.to_dict(),
            "faults_injected": (injector.summary()
                                if injector is not None else None),
            "telemetry": ({
                "monitors": len(monitors),
                "samples": sum(m.samples_taken for m in monitors),
                "breaches": sum(m.breach_count for m in monitors),
            } if config.get("monitor") else None),
        }
    except Exception:
        payload = {
            "schema": CACHE_SCHEMA,
            "experiment": name,
            "fingerprint": job["fingerprint"],
            "tree": job["tree"],
            "config": config,
            "seed": job["seed"],
            "error": traceback.format_exc(),
        }
    finally:
        reset_ambient_state()
    payload["timing"] = {
        "wall_s": time.monotonic() - t0,  # simlint: ignore[SIM001]
        "sim_time_ns": sum(clock.now for clock in clocks),
        "machines": len(clocks),
    }
    return payload


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    """One experiment's outcome within a run."""

    experiment: str
    fingerprint: str
    payload: Dict[str, Any]
    cached: bool

    @property
    def ok(self) -> bool:
        return "error" not in self.payload

    @property
    def timing(self) -> JobTiming:
        t = self.payload.get("timing", {})
        return JobTiming(
            experiment=self.experiment,
            wall_s=0.0 if self.cached else float(t.get("wall_s", 0.0)),
            sim_time_ns=int(t.get("sim_time_ns", 0)),
            machines=int(t.get("machines", 0)),
            cached=self.cached,
            ok=self.ok,
        )


@dataclass
class RunReport:
    """What a :func:`run_experiments` call did, for callers and tests."""

    tree: str
    jobs: int
    start_method: str
    results: List[JobResult] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def executed(self) -> List[JobResult]:
        return [r for r in self.results if not r.cached]

    @property
    def cached_hits(self) -> List[JobResult]:
        return [r for r in self.results if r.cached]

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def merged_fault_summary(self) -> Dict[str, int]:
        """Injection totals summed across jobs, in FaultKind order
        (every job reports every kind, zeros kept).  The order is
        imposed here rather than inherited from the payloads: cached
        payloads round-trip through sort_keys=True JSON, which
        alphabetizes their dicts — without canonicalization a warm run
        would render the summary rows in a different order."""
        merged: Dict[str, int] = {}
        for r in self.results:
            summary = r.payload.get("faults_injected")
            if not summary:
                continue
            for kind, count in summary.items():
                merged[kind] = merged.get(kind, 0) + int(count)
        order = [k.value for k in FaultKind]
        return {kind: merged.pop(kind) for kind in order if kind in merged} \
            | dict(sorted(merged.items()))

    def merged_counters(self) -> Dict[str, int]:
        """Table-footer counters summed across jobs, sorted by key."""
        merged: Dict[str, int] = {}
        for r in self.results:
            table = r.payload.get("table") or {}
            for key, value in (table.get("counters") or {}).items():
                merged[key] = merged.get(key, 0) + int(value)
        return dict(sorted(merged.items()))

    def timings(self) -> List[JobTiming]:
        return [r.timing for r in self.results]


def _fault_summary_table(summary: Dict[str, int],
                         seed: int) -> ResultTable:
    table = ResultTable(
        "Fault injection summary",
        ["Fault kind", "Injected"],
        notes=f"plan seed={seed}; identical seeds produce "
              "identical fault schedules")
    for kind, count in summary.items():
        table.add(kind, count)
    return table


def resolve_jobs(jobs: Any) -> int:
    """``--jobs`` grammar: a positive int or ``auto`` (CPU count)."""
    if jobs in ("auto", None):
        return max(1, os.cpu_count() or 1)
    n = int(jobs)
    if n < 1:
        raise ValueError(f"--jobs must be >= 1 or 'auto', got {jobs!r}")
    return n


def fan_out(worker: Callable[[Any], Any], payloads: Sequence[Any],
            jobs: Any = 1,
            start_method: Optional[str] = None) -> List[Any]:
    """Map ``worker`` over ``payloads``, optionally across a pool.

    The generic fan-out primitive other orchestration-adjacent callers
    (``repro.chaos`` fuzz batches) use so that process pools stay
    confined to this module (simlint SIM013).  Results come back in
    payload order regardless of worker scheduling, so a parallel batch
    is indistinguishable from a serial one.  ``worker`` must be a
    picklable module-level function that resets its own ambient state
    (see :func:`reset_ambient_state`); payloads must be picklable too.
    """
    n = min(resolve_jobs(jobs), max(1, len(payloads)))
    if n == 1:
        return [worker(p) for p in payloads]
    ctx = get_context(start_method)
    with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
        return list(pool.map(worker, payloads))


def execute_jobs(payloads: Sequence[Dict[str, Any]], *,
                 cache: Optional[ResultCache] = None,
                 jobs: Any = 1,
                 start_method: Optional[str] = None
                 ) -> Tuple[List[JobResult], int]:
    """Cache-aware fan-out of :func:`run_job` over job dicts.

    Each payload is a job dict carrying at least ``experiment`` and
    ``fingerprint``.  Fingerprints already in ``cache`` are served as
    hits without touching a worker; misses run through :func:`run_job`
    via :func:`fan_out` — in-process when serial, over a pool otherwise.
    Results come back in payload order regardless of worker
    scheduling, so ``jobs=N`` is byte-identical to serial.  Returns
    ``(results, n_workers)``; the caller decides what to persist
    (only fresh, successful payloads belong in the cache).
    """
    results: Dict[int, JobResult] = {}
    misses: List[int] = []
    for idx, job in enumerate(payloads):
        hit = cache.get(job["fingerprint"]) if cache is not None else None
        if hit is not None:
            results[idx] = JobResult(job["experiment"],
                                     job["fingerprint"], hit, cached=True)
        else:
            misses.append(idx)

    n_workers = min(resolve_jobs(jobs), max(1, len(misses)))
    fresh = fan_out(run_job, [payloads[idx] for idx in misses],
                    jobs=n_workers, start_method=start_method)
    for idx, payload in zip(misses, fresh):
        results[idx] = JobResult(payloads[idx]["experiment"],
                                 payload["fingerprint"], payload,
                                 cached=False)
    return [results[idx] for idx in range(len(payloads))], n_workers


def run_experiments(names: Sequence[str], *,
                    jobs: int = 1,
                    cache_dir: Optional[os.PathLike] = None,
                    faults: Optional[str] = None,
                    monitor: bool = False,
                    start_method: Optional[str] = None,
                    timings_path: Optional[os.PathLike] = None,
                    out: Optional[IO[str]] = None,
                    err: Optional[IO[str]] = None,
                    tree: Optional[str] = None) -> RunReport:
    """Run ``names`` (registry order is *not* imposed — the caller's
    order is preserved), fanning cache misses out over ``jobs`` worker
    processes, and write the merged output to ``out``.

    The merged stream is byte-identical for any ``jobs``/start-method
    combination: job outputs are buffered and emitted in request order,
    and per-job progress/timing lines go to ``err`` only.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")

    t_run0 = time.monotonic()  # simlint: ignore[SIM001]
    tree = tree if tree is not None else source_tree_hash()
    faults = normalize_faults_spec(faults)
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    jobs_by_name: Dict[str, Dict[str, Any]] = {}
    for name in names:
        config = job_config(name, faults, monitor)
        fp = job_fingerprint(tree, config)
        jobs_by_name[name] = {
            "experiment": name,
            "config": config,
            "fingerprint": fp,
            "tree": tree,
            "seed": job_seed(fp),
        }

    # Cache and execution passes: the shared cache-aware fan-out.
    ordered, n_workers = execute_jobs(
        [jobs_by_name[name] for name in names],
        cache=cache, jobs=jobs,
        start_method=start_method)
    results: Dict[str, JobResult] = dict(zip(names, ordered))

    # Merge pass: request order, byte-identical regardless of jobs.
    for name in names:
        r = results[name]
        if r.ok:
            out.write(r.payload["output"])
            if cache is not None and not r.cached:
                cache.put(r.fingerprint, r.payload)
        else:
            err.write(f"error: experiment {name} failed\n")
            err.write(r.payload["error"])
        wall = r.payload.get("timing", {}).get("wall_s", 0.0)
        status = "cached" if r.cached else f"{wall:.1f}s"
        err.write(f"[{name}: {status}]\n")

    report = RunReport(
        tree=tree, jobs=n_workers, start_method=start_method or "",
        results=[results[n] for n in names],
    )
    if faults:
        seed = FaultPlan.parse(faults).seed
        table = _fault_summary_table(report.merged_fault_summary(), seed)
        out.write("\n" + table.render() + "\n\n")

    report.wall_s = time.monotonic() - t_run0  # simlint: ignore[SIM001]
    if timings_path is not None:
        write_timings(timings_path, report.timings(), tree=tree,
                      jobs=n_workers, start_method=report.start_method,
                      total_wall_s=report.wall_s,
                      tables={r.experiment: r.payload.get("table")
                              for r in report.results})
    return report
