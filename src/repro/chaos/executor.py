"""Scenario executor: build a machine, run the chaos case, judge it.

:func:`run_scenario` is the single entry point the fuzzer, shrinker,
corpus replayer and CLI all share.  It is deterministic end to end:
the machine is built solely from the scenario, every tenant's op trace
is fixed, the fault schedule is seeded, and the oracles are read-only
— so one seed maps to one :class:`ScenarioResult` fingerprint,
forever.  That determinism is what lets the shrinker bisect a failure
and the corpus assert byte-identical replays.

:func:`run_payload` is the picklable worker the parallel runner fans
batches out over (one ``(scenario_json, canaries)`` pair per job); it
resets ambient process state first so results never depend on job
placement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..baselines.io_uring import CQEError
from ..baselines.registry import make_engine
from ..faults import PowerFailure, canary
from ..fs.ext4.filesystem import FsError
from ..kernel.blockio import IOError_
from ..machine import Machine
from ..obs.monitor import SLO, MonitorConfig
from .oracles import (
    Violation,
    check_completions,
    check_durability,
    check_isolation,
    check_retry_bounds,
    check_sanitizer,
    check_slo_consistency,
    check_stats_monotonic,
)
from .scenario import Scenario

__all__ = ["TenantLedger", "ScenarioResult", "run_scenario",
           "run_payload", "CHAOS_MONITOR"]

CAPACITY_BYTES = 256 * 1024 * 1024
MEMORY_BYTES = 128 * 1024 * 1024

#: Stats sampling period for the monotonicity probe (prime, co-prime
#: with the monitor's 9973 ns period so the two samplers interleave).
PROBE_PERIOD_NS = 7_919

#: Every chaos machine carries a monitor with one deliberately tight
#: SLO so the slo-consistency oracle always has material to audit.
CHAOS_MONITOR = MonitorConfig(slos=(
    SLO("chaos_inflight", "nvme.device.inflight", limit=2.0,
        reduce="max", window_ns=50_000),
))

#: Memory backstop for the monotonicity probe.  The run itself ends
#: when the model quiesces (observer events never keep it alive); this
#: only caps sample retention if a scenario runs absurdly long.
MAX_PROBE_SAMPLES = 100_000


@dataclass
class TenantLedger:
    """What the executor promised on behalf of one tenant — the ground
    truth the durability/isolation oracles audit against."""

    name: str
    path: str
    pattern: int
    created: bool = False
    created_durable: bool = False
    finished: bool = False
    aborted: Optional[str] = None          # str(IOError_) when I/O gave up
    size: int = 0
    pending: List[Tuple[int, int]] = field(default_factory=list)
    durable: List[Tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "path": self.path,
            "pattern": self.pattern, "created": self.created,
            "created_durable": self.created_durable,
            "finished": self.finished, "aborted": self.aborted,
            "durable": [list(w) for w in self.durable],
        }


@dataclass
class ScenarioResult:
    """Everything one run produced, reduced to plain data."""

    scenario: Scenario
    end_ns: int
    crashed: bool
    recovered: bool
    violations: List[Violation]
    stats: Dict[str, int]
    tenants: List[TenantLedger]

    @property
    def ok(self) -> bool:
        return not self.violations

    def oracle_kinds(self) -> List[str]:
        return sorted({v.oracle for v in self.violations})

    def to_dict(self) -> Dict:
        return {
            "schema": 1,
            "scenario": self.scenario.to_dict(),
            "end_ns": self.end_ns,
            "crashed": self.crashed,
            "recovered": self.recovered,
            "violations": sorted(
                (v.to_dict() for v in self.violations),
                key=lambda d: (d["oracle"], d["detail"])),
            "stats": self.stats,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    def fingerprint(self) -> str:
        """Names the run's observable outcome; equal across replays of
        the same scenario (the byte-identical-replay criterion)."""
        text = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _tenant_workload(file, thread, spec,
                     ledger: TenantLedger) -> Generator:
    pattern = bytes([ledger.pattern])
    for op in spec.ops:
        if op.kind == "pread":
            yield from file.pread(thread, op.offset, op.nbytes)
        elif op.kind == "pwrite":
            yield from file.pwrite(thread, op.offset, op.nbytes,
                                   pattern * op.nbytes)
            ledger.pending.append((op.offset, op.nbytes))
            ledger.size = max(ledger.size, op.offset + op.nbytes)
        elif op.kind == "append":
            offset = ledger.size
            yield from file.append(thread, op.nbytes,
                                   pattern * op.nbytes)
            ledger.pending.append((offset, op.nbytes))
            ledger.size += op.nbytes
        elif op.kind == "fsync":
            yield from file.fsync(thread)
            # fsync RETURNED: everything issued before it is now a
            # durability promise the crash oracle will hold us to.
            ledger.durable.extend(ledger.pending)
            ledger.pending.clear()
            ledger.created_durable = ledger.created
        if spec.think_ns:
            yield from thread.compute(spec.think_ns)
    yield from file.close(thread)


def _tenant_main(spec, ledger: TenantLedger,
                 thread, engine) -> Generator:
    try:
        file = yield from engine.open(thread, ledger.path, write=True,
                                      create=True)
        ledger.created = True
        yield from _tenant_workload(file, thread, spec, ledger)
        ledger.finished = True
    except (IOError_, CQEError, FsError) as exc:
        # Exhausted retries, an engine-surfaced CQE error, or a shrunk
        # trace touching a hole are legitimate outcomes, not chaos
        # violations; record the abort and release the core so the
        # other tenants keep running.
        ledger.aborted = f"{type(exc).__name__}: {exc}"


def _stats_probe(machine: Machine, samples: List) -> Generator:
    while len(samples) < MAX_PROBE_SAMPLES:
        samples.append((machine.now, machine.stats().summary()))
        yield machine.sim.timeout(PROBE_PERIOD_NS)


def run_scenario(scenario: Scenario,
                 canaries: Sequence[str] = ()) -> ScenarioResult:
    """Execute one scenario and judge it against every oracle.

    ``canaries`` are armed for the duration of the run only (see
    :mod:`repro.faults.canary`); arming is the *test pipeline's* way of
    planting a known bug to prove the oracles can catch it.
    """
    for name in canaries:
        canary.arm(name)
    try:
        return _run(scenario)
    finally:
        for name in canaries:
            canary.disarm(name)


def _chaos_machine(scenario: Scenario) -> Tuple[Machine, List]:
    """The machine a chaos run judges: sanitizer, monitor and the stats
    probe attached.  Returns it with the probe's sample list."""
    machine = Machine(capacity_bytes=CAPACITY_BYTES,
                      memory_bytes=MEMORY_BYTES,
                      capture_data=True, sanitize=True,
                      faults=scenario.plan(), monitor=CHAOS_MONITOR)
    samples: List[Tuple[int, Dict[str, int]]] = []
    machine.sim.process(_stats_probe(machine, samples),
                        name="chaos-stats-probe", observer=True)
    return machine, samples


def _drive(machine: Machine,
           scenario: Scenario) -> Tuple[List[TenantLedger], bool]:
    """Run the scenario's tenants on ``machine`` until it quiesces or
    the planned power failure; returns the ledgers and whether it
    crashed."""
    ledgers: List[TenantLedger] = []
    for idx, spec in enumerate(scenario.tenants):
        ledger = TenantLedger(name=spec.name,
                              path=f"/chaos_{spec.name}",
                              pattern=0x41 + idx)
        ledgers.append(ledger)
        proc = machine.spawn_process(spec.name)
        engine = make_engine(machine, proc, spec.engine)
        thread = proc.new_thread()
        machine.spawn(thread,
                      _tenant_main(spec, ledger, thread, engine),
                      name=f"chaos-{spec.name}")
    try:
        machine.run()
    except PowerFailure:
        return ledgers, True
    return ledgers, False


def _run(scenario: Scenario) -> ScenarioResult:
    machine, samples = _chaos_machine(scenario)
    ledgers, crashed = _drive(machine, scenario)
    samples.append((machine.now, machine.stats().summary()))
    violations: List[Violation] = []
    violations += check_completions(machine, crashed)
    violations += check_retry_bounds(machine)
    violations += check_stats_monotonic(samples)
    violations += check_slo_consistency(machine)
    violations += check_sanitizer(machine, crashed)
    if not crashed:
        for ledger in ledgers:
            if not ledger.finished and ledger.aborted is None:
                violations.append(Violation(
                    "completions",
                    f"tenant {ledger.name} neither finished nor "
                    f"aborted — workload stranded"))
        violations += check_isolation(machine.fs, machine.device.backend,
                                      ledgers)
    recovered = False
    if crashed and scenario.recover:
        recovered_fs = machine.recover_after_crash()
        recovered = True
        violations += check_durability(recovered_fs,
                                       machine.device.backend, ledgers)
        violations += check_isolation(recovered_fs,
                                      machine.device.backend, ledgers)

    return ScenarioResult(scenario=scenario, end_ns=machine.now,
                          crashed=crashed, recovered=recovered,
                          violations=violations,
                          stats=machine.stats().summary(),
                          tenants=ledgers)


def run_payload(payload: Tuple[str, Tuple[str, ...]]) -> Dict:
    """Picklable worker for :func:`repro.bench.runner.fan_out`.

    Takes ``(scenario_json, canaries)``, resets ambient process state
    (fault injector, monitor config, machine capture, armed canaries)
    so pool workers are interchangeable, and returns the result as a
    plain dict (results must cross process boundaries).
    """
    from ..bench.runner import reset_ambient_state
    scenario_json, canaries = payload
    reset_ambient_state()
    result = run_scenario(Scenario.from_json(scenario_json),
                          canaries=tuple(canaries))
    out = result.to_dict()
    out["fingerprint"] = result.fingerprint()
    return out
