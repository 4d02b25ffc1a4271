"""Scenario grammar for the chaos engine: what one fuzz case *is*.

A :class:`Scenario` is a fully serialisable description of one chaos
run — tenants (each with an engine choice and an op trace), a fault
plan, and an optional planned power failure.  Everything the executor
needs is in the scenario; nothing is ambient.  Two properties make the
whole pipeline deterministic:

- :func:`generate` derives every choice from one ``random.Random(seed)``
  stream, so a seed names a scenario forever;
- :meth:`Scenario.to_json` is canonical (sorted keys, fixed
  separators), so :meth:`Scenario.fingerprint` names the scenario's
  *content* — the shrinker and corpus compare fingerprints, never
  object identity.

The grammar is deliberately size-bounded: at most
:data:`MAX_TENANTS` tenants, :data:`MAX_OPS` ops each, offsets inside a
:data:`FILE_BLOCKS`-block region, all I/O 4 KiB-aligned.  Small
scenarios keep a 200-case batch fast and make shrunk reproducers
legible.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..faults import FaultKind, FaultPlan, FaultRule

__all__ = [
    "OpSpec",
    "TenantSpec",
    "FaultSpec",
    "Scenario",
    "generate",
    "scenario_seed",
    "OP_KINDS",
    "CHAOS_ENGINES",
    "BLOCK",
    "FILE_BLOCKS",
    "MAX_TENANTS",
    "MAX_OPS",
]

BLOCK = 4096
#: Tenant files live inside a 64-block (256 KiB) region so scenarios
#: stay small and physical placement is easy to audit.
FILE_BLOCKS = 64
MAX_TENANTS = 3
MAX_OPS = 12

OP_KINDS = ("pread", "pwrite", "append", "fsync")

#: Engine choices the generator samples.  ``sync`` and ``io_uring``
#: exercise the kernel block layer; ``bypassd`` exercises the userspace
#: path, translation faults and the SQ/CQ guard machinery.  The retry
#: canary lives in the one driver error policy: every engine reaches
#: it through metadata I/O, and ``sync`` and ``bypassd`` through their
#: data I/O too (``io_uring`` data I/O is async, without retry).
CHAOS_ENGINES = ("bypassd", "io_uring", "sync")

#: Latency spikes stay well under the 5 ms I/O timeout so a delayed
#: completion is never mistaken for a dropped one (the async abort
#: guard is one-shot; feeding it false timeouts would test the guard's
#: misfire path, which dedicated tests own, not the fuzzer).
MAX_SPIKE_NS = 2_000_000

_FAULT_KINDS = tuple(k.value for k in FaultKind
                     if k is not FaultKind.POWER_FAILURE)


@dataclass(frozen=True)
class OpSpec:
    """One file operation in a tenant's trace (4 KiB-aligned)."""

    kind: str
    offset: int = 0        # pread/pwrite only; ignored for append/fsync
    nbytes: int = BLOCK    # ignored for fsync

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.offset % BLOCK or self.offset < 0:
            raise ValueError(f"offset must be block-aligned: {self.offset}")
        if self.kind != "fsync" and (self.nbytes <= 0
                                     or self.nbytes % BLOCK):
            raise ValueError(f"nbytes must be a positive multiple of "
                             f"{BLOCK}: {self.nbytes}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "offset": self.offset,
                "nbytes": self.nbytes}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "OpSpec":
        return cls(kind=d["kind"], offset=d["offset"], nbytes=d["nbytes"])


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an engine plus an op trace against its own file."""

    name: str
    engine: str
    ops: Tuple[OpSpec, ...] = ()
    think_ns: int = 0

    def __post_init__(self) -> None:
        if self.engine not in CHAOS_ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.think_ns < 0:
            raise ValueError(f"negative think_ns: {self.think_ns}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "engine": self.engine,
                "ops": [op.to_dict() for op in self.ops],
                "think_ns": self.think_ns}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TenantSpec":
        return cls(name=d["name"], engine=d["engine"],
                   ops=tuple(OpSpec.from_dict(o) for o in d["ops"]),
                   think_ns=d["think_ns"])


@dataclass(frozen=True)
class FaultSpec:
    """Serialisable mirror of :class:`~repro.faults.FaultRule`.

    The plan grammar lives here (JSON-friendly strings and lists)
    rather than reusing FaultRule directly so corpus files stay plain
    data with no enum coupling.
    """

    kind: str
    probability: float = 0.0
    nth: Optional[int] = None
    count: Optional[int] = None
    extra_ns: int = MAX_SPIKE_NS
    window: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        self.to_rule()  # delegate validation to FaultRule

    def to_rule(self) -> FaultRule:
        return FaultRule(kind=FaultKind(self.kind),
                         probability=self.probability,
                         nth=self.nth, count=self.count,
                         extra_ns=self.extra_ns, window=self.window)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "probability": self.probability,
                "nth": self.nth, "count": self.count,
                "extra_ns": self.extra_ns,
                "window": list(self.window) if self.window else None}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultSpec":
        window = tuple(d["window"]) if d.get("window") else None
        return cls(kind=d["kind"], probability=d["probability"],
                   nth=d["nth"], count=d["count"],
                   extra_ns=d["extra_ns"], window=window)


@dataclass(frozen=True)
class Scenario:
    """One complete chaos case; the unit of fuzzing and shrinking."""

    seed: int
    tenants: Tuple[TenantSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    crash_at_ns: Optional[int] = None
    recover: bool = True

    def plan(self) -> FaultPlan:
        """The runnable FaultPlan (built fresh — plans are mutable)."""
        plan = FaultPlan(seed=self.seed)
        for spec in self.faults:
            plan.add(spec.to_rule())
        if self.crash_at_ns is not None:
            plan.crash_at(self.crash_at_ns)
        return plan

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "seed": self.seed,
            "tenants": [t.to_dict() for t in self.tenants],
            "faults": [f.to_dict() for f in self.faults],
            "crash_at_ns": self.crash_at_ns,
            "recover": self.recover,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Scenario":
        if d.get("schema") != 1:
            raise ValueError(f"unknown scenario schema: {d.get('schema')}")
        return cls(
            seed=d["seed"],
            tenants=tuple(TenantSpec.from_dict(t) for t in d["tenants"]),
            faults=tuple(FaultSpec.from_dict(f) for f in d["faults"]),
            crash_at_ns=d["crash_at_ns"],
            recover=d["recover"],
        )

    def to_json(self) -> str:
        """Canonical JSON: byte-identical iff the scenarios are equal."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def scenario_seed(base_seed: int, index: int) -> int:
    """Derive the i-th scenario seed of a batch.

    Hash-derived (not ``base_seed + i``) so neighbouring batches never
    share scenarios and a batch can be re-run member by member.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- the generator -----------------------------------------------------------


def _gen_ops(rng: random.Random, budget: int) -> Tuple[OpSpec, ...]:
    # pread/pwrite stay inside the already-materialised region (the
    # direct-I/O engines refuse holes), so the trace starts with an
    # append and random-access ops are bounded by appended size.
    ops = []
    size_blocks = 0
    for _ in range(budget):
        kind = rng.choices(OP_KINDS, weights=(3, 3, 2, 2))[0]
        if kind == "fsync":
            ops.append(OpSpec("fsync", 0, BLOCK))
            continue
        nblocks = rng.choice((1, 1, 2, 4))
        if kind != "append" and size_blocks < nblocks:
            kind = "append"  # nothing allocated yet to read/overwrite
        if kind == "append":
            if size_blocks + nblocks > FILE_BLOCKS:
                continue
            ops.append(OpSpec("append", 0, nblocks * BLOCK))
            size_blocks += nblocks
        else:
            start = rng.randrange(0, size_blocks - nblocks + 1)
            ops.append(OpSpec(kind, start * BLOCK, nblocks * BLOCK))
    return tuple(ops)


def _gen_fault(rng: random.Random) -> FaultSpec:
    archetype = rng.choices(
        ("transient", "persistent", "rate", "spike", "drop"),
        weights=(3, 2, 2, 2, 2))[0]
    if archetype == "transient":
        kind = rng.choice(("media_read_error", "media_write_error",
                           "translation_fault"))
        return FaultSpec(kind, nth=rng.randint(1, 5),
                         count=rng.randint(1, 2))
    if archetype == "persistent":
        # Enough consecutive failures of one command to exhaust the
        # retry budget — the archetype that flushes out off-by-one
        # retry bounds (the planted canary's habitat).
        kind = rng.choice(("media_read_error", "media_write_error"))
        return FaultSpec(kind, nth=rng.randint(1, 3),
                         count=rng.randint(6, 10))
    if archetype == "rate":
        kind = rng.choice(_FAULT_KINDS)
        return FaultSpec(kind, probability=rng.uniform(0.01, 0.10))
    if archetype == "spike":
        return FaultSpec("latency_spike",
                         probability=rng.uniform(0.05, 0.3),
                         extra_ns=rng.randrange(100_000,
                                                MAX_SPIKE_NS + 1))
    return FaultSpec("drop_completion", nth=rng.randint(1, 4),
                     count=rng.randint(1, 2))


def generate(seed: int) -> Scenario:
    """Sample one scenario from the grammar, fully determined by seed."""
    rng = random.Random(seed)
    # 40 % of cases are single-tenant on a kernel-path engine: the
    # shapes where a retry-bound bug is unambiguous (no cross-tenant
    # interleaving consuming rule counts).
    if rng.random() < 0.4:
        engines = [rng.choice(("sync", "io_uring"))]
    else:
        engines = [rng.choice(CHAOS_ENGINES)
                   for _ in range(rng.randint(1, MAX_TENANTS))]
    tenants = tuple(
        TenantSpec(name=f"t{i}", engine=eng,
                   ops=_gen_ops(rng, rng.randint(1, MAX_OPS)),
                   think_ns=rng.choice((0, 0, 1_000, 10_000)))
        for i, eng in enumerate(engines))
    faults = tuple(_gen_fault(rng) for _ in range(rng.randint(0, 3)))
    crash_at_ns = None
    recover = True
    if rng.random() < 0.3:
        crash_at_ns = rng.randrange(200_000, 3_000_000)
    return Scenario(seed=seed, tenants=tenants, faults=faults,
                    crash_at_ns=crash_at_ns, recover=recover)
