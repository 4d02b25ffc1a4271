"""Cross-layer invariant oracles: what must hold after *any* scenario.

Every function here inspects a finished run and returns a list of
:class:`Violation` records — it never mutates simulation state.  That
contract is load-bearing (an oracle that perturbs the machine would
invalidate the byte-identical-replay guarantee the shrinker and corpus
depend on) and is enforced statically: simlint rule SIM014 flags any
assignment or known-mutator call on a non-local object in this module.

The oracle catalogue (one function per invariant family):

- :func:`check_completions` — NVMe queue-pair conservation: no lost,
  duplicated or double-reaped completions; a non-crashed machine
  drains completely and every deliberately dropped completion was
  aborted back into existence.
- :func:`check_retry_bounds` — the kernel block layer and every
  UserLib stayed within ``io_retry_limit`` attempts and
  ``io_retry_backoff_max_ns`` backoff (the planted retry canary is
  caught here).
- :func:`check_stats_monotonic` — every Stats counter sampled over
  time is non-decreasing.
- :func:`check_slo_consistency` — the monitor's breach records agree
  with its own time series and configuration.
- :func:`check_durability` — read-your-writes after crash recovery:
  every byte acknowledged by a returned fsync is readable, with the
  right contents, through the recovered filesystem's extent maps.
- :func:`check_isolation` — no cross-tenant data leakage: a tenant's
  physical blocks contain only that tenant's pattern byte (or zeros).
- :func:`check_sanitizer` — the engine's own sanitizer found no
  leak-class defects on a cleanly drained run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Violation",
    "check_completions",
    "check_retry_bounds",
    "check_stats_monotonic",
    "check_slo_consistency",
    "check_durability",
    "check_isolation",
    "check_sanitizer",
]

BLOCK = 4096
LBAS_PER_BLOCK = BLOCK // 512


@dataclass(frozen=True)
class Violation:
    """One invariant breach; ``oracle`` names the family for triage."""

    oracle: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "detail": self.detail}


def _v(oracle: str, detail: str) -> Violation:
    return Violation(oracle, detail)


# -- queue conservation ------------------------------------------------------


def check_completions(machine, crashed: bool) -> List[Violation]:
    """Per queue pair: reaped <= completed <= submitted, and a
    non-crashed run ends fully drained with no un-aborted drops."""
    out: List[Violation] = []
    for qp in machine.device.queue_pairs():
        if not 0 <= qp.reaped <= qp.completed <= qp.submitted:
            out.append(_v("completions",
               f"qp{qp.qid}: counter inversion submitted={qp.submitted} "
               f"completed={qp.completed} reaped={qp.reaped}"))
        if not crashed:
            if qp.inflight != 0:
                out.append(_v("completions",
                   f"qp{qp.qid}: {qp.inflight} commands still in flight "
                   f"after a clean run"))
            if qp.completed != qp.submitted:
                out.append(_v("completions",
                   f"qp{qp.qid}: {qp.submitted - qp.completed} commands "
                   f"never completed (submitted={qp.submitted}, "
                   f"completed={qp.completed})"))
    if not crashed:
        lost = getattr(machine.device, "_lost", {})
        if lost:
            out.append(_v("completions",
               f"{len(lost)} dropped completions never aborted: "
               f"{sorted(lost)}"))
    return out


# -- retry discipline --------------------------------------------------------


def check_retry_bounds(machine) -> List[Violation]:
    """No layer may exceed the configured retry budget or backoff cap.

    Reads the high-water marks the driver error policy records on every
    layer (``max_attempts`` / ``max_backoff_ns``) and compares them
    against the *parameters*, not the behaviour — which is exactly how
    a planted off-by-one in the bound itself gets caught.
    """
    out: List[Violation] = []
    limit = machine.params.io_retry_limit
    cap = machine.params.io_retry_backoff_max_ns
    layers = [("kernel blockio", machine.blockio),
              ("kernel volume", machine.volume)]
    layers += [(f"userlib[{i}]", lib)
               for i, lib in enumerate(getattr(machine, "_userlibs", []))]
    for name, layer in layers:
        if layer.max_attempts > limit:
            out.append(_v("retry-bounds",
               f"{name}: retried a command {layer.max_attempts} "
               f"times (io_retry_limit={limit})"))
        if layer.max_backoff_ns > cap:
            out.append(_v("retry-bounds",
               f"{name}: backoff {layer.max_backoff_ns} ns "
               f"exceeds cap {cap} ns"))
    return out


# -- stats monotonicity ------------------------------------------------------


def check_stats_monotonic(
        samples: Sequence[Tuple[int, Dict[str, int]]]) -> List[Violation]:
    """Every counter in successive ``Stats.summary()`` snapshots must
    be non-decreasing (counters never run backwards)."""
    out: List[Violation] = []
    prev_t = -1
    prev: Dict[str, int] = {}
    for t, summary in samples:
        if t < prev_t:
            out.append(_v("stats-monotonic",
               f"probe time ran backwards: {prev_t} -> {t}"))
        for key, value in summary.items():
            before = prev.get(key, 0)
            if value < before:
                out.append(_v("stats-monotonic",
                   f"{key} decreased {before} -> {value} at t={t}"))
        prev_t, prev = t, summary
    return out


# -- SLO / telemetry agreement ----------------------------------------------


def check_slo_consistency(machine) -> List[Violation]:
    """Breach records must agree with the monitor's own series/config:
    every breach value reached its SLO's limit, per-SLO breach times
    strictly increase, and the counts line up edge-triggered."""
    out: List[Violation] = []
    monitor = machine.monitor
    if monitor is None:
        return out
    by_name = {slo.name: slo for slo in monitor.config.slos}
    per_slo_t: Dict[str, int] = {}
    for breach in monitor.breaches:
        slo = by_name.get(breach.slo)
        if slo is None:
            out.append(_v("slo-consistency",
               f"breach of unknown SLO {breach.slo!r} at t={breach.t_ns}"))
            continue
        if breach.value < slo.limit:
            out.append(_v("slo-consistency",
               f"SLO {slo.name}: breach recorded at value "
               f"{breach.value} below limit {slo.limit}"))
        last = per_slo_t.get(breach.slo)
        if last is not None and breach.t_ns <= last:
            out.append(_v("slo-consistency",
               f"SLO {slo.name}: breach times not strictly increasing "
               f"({last} then {breach.t_ns})"))
        per_slo_t[breach.slo] = breach.t_ns
    if monitor.breach_count != len(monitor.breaches):
        out.append(_v("slo-consistency",
           f"breach_count={monitor.breach_count} but "
           f"{len(monitor.breaches)} breach records"))
    for name, ticks in monitor.breach_ticks.items():
        edges = sum(1 for b in monitor.breaches if b.slo == name)
        if edges > ticks:
            out.append(_v("slo-consistency",
               f"SLO {name}: {edges} breach edges but only {ticks} "
               f"breach ticks"))
    return out


# -- durability after crash recovery ----------------------------------------


def _read_block(backend, phys: int) -> Optional[bytes]:
    # peek_blocks, not read_blocks: reading through the live counters
    # would perturb the very stats another oracle checks (SIM017).
    return backend.peek_blocks(phys * LBAS_PER_BLOCK, LBAS_PER_BLOCK)


def check_durability(recovered_fs, backend,
                     tenants: Sequence[Any]) -> List[Violation]:
    """Read-your-writes through a crash: every write acknowledged by a
    returned fsync must be present — and correct — in the recovered
    filesystem, read via its extent maps from the device backend.

    ``tenants`` is the executor's per-tenant ledger: objects with
    ``path``, ``pattern`` (the tenant's fill byte), ``created_durable``
    and ``durable`` (a list of ``(offset, nbytes)`` acknowledged
    writes).
    """
    out: List[Violation] = []
    for ledger in tenants:
        exists = recovered_fs.exists(ledger.path)
        if not ledger.created_durable:
            continue  # nothing was promised for this file
        if not exists:
            out.append(_v("durability",
               f"{ledger.path}: fsync acknowledged creation but the "
               f"file is missing after recovery"))
            continue
        inode = recovered_fs.lookup(ledger.path)
        want = bytes([ledger.pattern]) * BLOCK
        for offset, nbytes in ledger.durable:
            for block in range(offset // BLOCK,
                               (offset + nbytes) // BLOCK):
                mapping = inode.extents.lookup(block)
                if mapping is None:
                    out.append(_v("durability",
                       f"{ledger.path}: durable block {block} has no "
                       f"extent mapping after recovery"))
                    continue
                data = _read_block(backend, mapping[0])
                if data is None:
                    continue  # data capture off: mapping checks only
                if data != want:
                    got = data[:8].hex()
                    out.append(_v("durability",
                       f"{ledger.path}: durable block {block} reads "
                       f"back wrong bytes (phys={mapping[0]}, "
                       f"first8={got}, want {ledger.pattern:#x}*)"))
    return out


# -- tenant isolation --------------------------------------------------------


def check_isolation(fs, backend,
                    tenants: Sequence[Any]) -> List[Violation]:
    """No cross-tenant leakage: every physical block mapped by a
    tenant's file holds only that tenant's pattern byte or zeros."""
    out: List[Violation] = []
    for ledger in tenants:
        if not fs.exists(ledger.path):
            continue
        inode = fs.lookup(ledger.path)
        allowed = {0, ledger.pattern}
        for phys, count in inode.extents.physical_runs():
            for block in range(phys, phys + count):
                data = _read_block(backend, block)
                if data is None:
                    continue
                foreign = set(data) - allowed
                if foreign:
                    out.append(_v("isolation",
                       f"{ledger.path}: physical block {block} contains "
                       f"foreign bytes {sorted(foreign)[:4]} "
                       f"(tenant pattern {ledger.pattern:#x})"))
    return out


# -- engine sanitizer --------------------------------------------------------


def check_sanitizer(machine, crashed: bool) -> List[Violation]:
    """Surface leak-class sanitizer findings as chaos violations.

    Only meaningful for cleanly drained runs — a crash abandons the
    event queue by design, and the sanitizer itself only evaluates
    leak checks on a drained queue.
    """
    out: List[Violation] = []
    san = machine.sim.sanitizer
    if crashed or san is None:
        return out
    for kind in ("stranded-process", "leaked-event", "leaked-resource"):
        for diag in san.findings(kind):
            out.append(_v("sanitizer", f"{kind}: {diag.message}"))
    return out
