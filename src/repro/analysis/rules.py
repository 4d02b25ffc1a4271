"""The simlint rule catalogue.

Each rule is a small declarative record; the detection logic lives in
:mod:`repro.analysis.linter`.  Rules target *simulation correctness*:
the discrete-event engine promises that same-seed runs are byte
identical, and every paper figure rests on that promise.  These rules
mechanically exclude the ways Python code usually breaks it — wall
clock reads, hash-order iteration, floats leaking into the integer
nanosecond clock, and protocol misuse of the event engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Rule", "RULES", "ERROR", "WARNING", "rule_by_id",
           "iter_rules_help"]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule."""

    id: str                  # "SIM003"
    name: str                # short kebab-case handle
    severity: str            # ERROR or WARNING
    summary: str             # one line, shown next to each violation
    rationale: str           # why this breaks the simulation
    fixable: bool = False    # scripts/simlint.py --fix can rewrite it
    tags: Tuple[str, ...] = field(default=())


RULES: Tuple[Rule, ...] = (
    Rule(
        id="SIM000",
        name="parse-error",
        severity=ERROR,
        summary="file does not parse; no other rule was evaluated",
        rationale=(
            "a syntax error hides every other finding in the file and "
            "must not be misfiled under a semantic rule (it used to "
            "pollute SIM001 counts).  Fix the parse error first; the "
            "whole-program pass also skips unparseable modules."
        ),
        tags=("infrastructure",),
    ),
    Rule(
        id="SIM001",
        name="wall-clock-entropy",
        severity=ERROR,
        summary="wall-clock time or OS entropy read in model code",
        rationale=(
            "time.time()/datetime.now()/os.urandom()/module-level "
            "random.* leak host state into the simulation; same-seed "
            "runs stop being byte identical.  Use sim.now for time and "
            "a seeded random.Random for randomness."
        ),
        tags=("determinism",),
    ),
    Rule(
        id="SIM002",
        name="unordered-iteration",
        severity=ERROR,
        summary="iteration over a set/dict view feeds event scheduling "
                "without sorted()",
        rationale=(
            "set iteration order depends on hash seeds and insertion "
            "history; when the loop body yields, triggers events, or "
            "pushes onto a heap, that order becomes the event order.  "
            "Wrap the iterable in sorted()."
        ),
        fixable=True,
        tags=("determinism", "ordering"),
    ),
    Rule(
        id="SIM003",
        name="float-into-clock",
        severity=ERROR,
        summary="float arithmetic flows into the integer-nanosecond clock",
        rationale=(
            "the engine measures time in integer nanoseconds; float "
            "delays accumulate rounding error and make timelines "
            "platform sensitive.  Cast with int()/round() before the "
            "value reaches timeout()/compute()/sleep() or sim.now."
        ),
        fixable=True,
        tags=("determinism", "clock"),
    ),
    Rule(
        id="SIM004",
        name="yield-non-event",
        severity=ERROR,
        summary="simulation process yields a raw value instead of an Event",
        rationale=(
            "the engine resumes a process only when the yielded Event "
            "triggers; yielding a constant or arithmetic expression "
            "fails at runtime (SimulationError) — catch it statically."
        ),
        tags=("protocol",),
    ),
    Rule(
        id="SIM005",
        name="double-trigger",
        severity=ERROR,
        summary="Event.succeed()/fail() reachable twice on one "
                "straight-line path",
        rationale=(
            "an Event is one-shot; the second trigger raises "
            "SimulationError mid-run and tears the simulation down."
        ),
        tags=("protocol",),
    ),
    Rule(
        id="SIM006",
        name="swallowed-interrupt",
        severity=WARNING,
        summary="except Interrupt: with an empty body silently swallows "
                "the interrupt",
        rationale=(
            "Interrupt carries a cause (e.g. access revocation racing "
            "an in-flight I/O); dropping it on the floor hides protocol "
            "bugs.  Re-raise, return, or handle it explicitly."
        ),
        tags=("protocol",),
    ),
    Rule(
        id="SIM007",
        name="cross-layer-mutation",
        severity=WARNING,
        summary="direct mutation of another layer's private attribute",
        rationale=(
            "writing obj._x from outside the owning module bypasses the "
            "owning layer's invariants (and its sanitizer hooks).  Add "
            "a public method on the owning class instead."
        ),
        tags=("layering",),
    ),
    Rule(
        id="SIM008",
        name="missing-slots",
        severity=WARNING,
        summary="hot-path event/command class without __slots__",
        rationale=(
            "events and NVMe commands are allocated millions of times "
            "per run; per-instance __dict__ costs memory and cache "
            "misses.  Declare __slots__ (or @dataclass(slots=True))."
        ),
        tags=("performance",),
    ),
    Rule(
        id="SIM009",
        name="unseeded-rng",
        severity=ERROR,
        summary="RNG constructed without a seed (random.Random(), "
                "default_rng(), SystemRandom)",
        rationale=(
            "an unseeded generator pulls entropy from the OS; every "
            "run gets a different fault schedule and key sequence.  "
            "Thread a seed from the experiment config."
        ),
        tags=("determinism",),
    ),
    Rule(
        id="SIM010",
        name="address-ordering",
        severity=WARNING,
        summary="id() used as a container key or ordering key",
        rationale=(
            "id() is a memory address: it differs across runs, so "
            "sorting by it — or keying a dict that is later iterated — "
            "injects address-space layout into the event order.  Use a "
            "deterministic identifier (thread.tid, a sequence number)."
        ),
        tags=("determinism", "ordering"),
    ),
    Rule(
        id="SIM011",
        name="timeseries-mutation",
        severity=WARNING,
        summary="direct mutation of TimeSeries.samples outside sim/",
        rationale=(
            "TimeSeries keeps its samples sorted by timestamp so "
            "windowed SLO reducers can bisect; appending or assigning "
            "to .samples from model or analysis code can break that "
            "invariant silently.  Call record() instead."
        ),
        tags=("layering", "observability"),
    ),
    Rule(
        id="SIM012",
        name="gauge-naming",
        severity=WARNING,
        summary="gauge registered outside the documented naming scheme",
        rationale=(
            "telemetry gauges follow <subsystem>.<object>.<metric> — "
            "lowercase, digits/underscores, two or more dot-separated "
            "components (docs/observability.md).  Off-scheme names "
            "fragment dashboards and break trace_diff's per-layer "
            "grouping."
        ),
        tags=("observability",),
    ),
    Rule(
        id="SIM013",
        name="multiprocessing-outside-runner",
        severity=ERROR,
        summary="multiprocessing/process-pool use outside "
                "bench/runner.py",
        rationale=(
            "the simulation promises single-threaded determinism: one "
            "event loop, one timeline, byte-identical same-seed runs.  "
            "Process-level parallelism lives exclusively at the "
            "experiment-orchestration boundary (repro.bench.runner), "
            "where whole jobs fan out and merge in a fixed order.  A "
            "pool inside model code would interleave timelines "
            "nondeterministically."
        ),
        tags=("determinism", "layering"),
    ),
    Rule(
        id="SIM014",
        name="oracle-mutates-state",
        severity=ERROR,
        summary="chaos oracle mutates simulation state",
        rationale=(
            "the invariant oracles in repro/chaos/oracles.py must be "
            "pure observers: a replayed scenario is only byte "
            "identical if judging it changes nothing.  An oracle that "
            "assigns to a machine attribute, or calls a mutating "
            "method (succeed/submit/record/...), perturbs the very "
            "run it is auditing and poisons shrinker verdicts.  Move "
            "state changes into the executor; oracles read and "
            "return Violations."
        ),
        tags=("determinism", "layering", "chaos"),
    ),
    Rule(
        id="SIM015",
        name="layering-violation",
        severity=ERROR,
        summary="import edge not permitted by the architecture DAG "
                "(or an import cycle)",
        rationale=(
            "the reproduction's credibility rests on the layering the "
            "paper is about: userlib above syscalls above blockio "
            "above NVMe, with the device model below and the "
            "simulation engine at the bottom.  An import that jumps "
            "the declared DAG (nvme/ importing apps/, or any cycle) "
            "couples layers the figures treat as independent.  The "
            "allowed edges live in repro/analysis/architecture.py; "
            "legitimate exceptions are named friend exemptions there, "
            "not silent imports."
        ),
        tags=("layering", "whole-program"),
    ),
    Rule(
        id="SIM016",
        name="transitive-entropy",
        severity=ERROR,
        summary="model code reaches a wall-clock/entropy sink through "
                "a call chain",
        rationale=(
            "SIM001 sees one file at a time; hiding time.time() one "
            "helper away defeats it.  The whole-program pass "
            "propagates reads-host-entropy summaries over the call "
            "graph, so a function whose own body is clean is still "
            "flagged when something it calls (transitively) reads the "
            "host clock or OS entropy.  The full call chain is "
            "printed.  Pragma-sanctioned sinks (# simlint: "
            "ignore[SIM001]) do not taint their callers."
        ),
        tags=("determinism", "whole-program"),
    ),
    Rule(
        id="SIM017",
        name="impure-oracle-call",
        severity=ERROR,
        summary="chaos oracle calls a function inferred to mutate "
                "simulation state",
        rationale=(
            "SIM014 catches direct mutations and calls to a hardcoded "
            "list of mutator names; this rule replaces the name-list "
            "guesswork with inference: every function in the repo "
            "gets a purity summary (mutates its receiver, its "
            "arguments, or global state) propagated interprocedurally "
            "to a fixpoint, and an oracle calling anything impure on "
            "non-scratch state is flagged with the inference chain.  "
            "A replayed scenario is only byte identical if judging it "
            "changes nothing."
        ),
        tags=("determinism", "chaos", "whole-program"),
    ),
    Rule(
        id="SIM018",
        name="hot-path-allocation",
        severity=WARNING,
        summary="function reachable from the engine's per-event "
                "dispatch allocates an unslotted class",
        rationale=(
            "SIM008 checks class *definitions* in the per-I/O "
            "modules the linter lists (HOT_PATH_MODULES, plus the "
            "plain records in HOT_RECORD_CLASSES); this rule checks "
            "*allocation sites*: any class "
            "without __slots__ (or dataclass(slots=True)) constructed "
            "in a function transitively reachable from the engine's "
            "per-event dispatch (Simulator.run and friends, declared "
            "in the architecture manifest) is allocated per event — "
            "millions of times per run — and its __dict__ costs "
            "memory and cache misses on the hottest path we have."
        ),
        tags=("performance", "whole-program"),
    ),
    Rule(
        id="SIM019",
        name="attribution-mutates-state",
        severity=ERROR,
        summary="latency-attribution code calls a function inferred "
                "to mutate non-local state",
        rationale=(
            "The waterfall/exemplar observers (attribution_modules in "
            "the architecture manifest) read recorded spans and fold "
            "them into reports; if they mutated the tracer, a "
            "histogram shared with the monitor, or any simulation "
            "object, enabling attribution would perturb the timeline "
            "it measures and break the byte-identical determinism "
            "contract.  Same interprocedural purity inference as "
            "SIM017: local scratch is fine, writes through "
            "parameters/globals are not."
        ),
        tags=("determinism", "whole-program"),
    ),
)

_BY_ID: Dict[str, Rule] = {r.id: r for r in RULES}


def rule_by_id(rule_id: str) -> Rule:
    try:
        return _BY_ID[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_BY_ID))}"
        ) from None


def iter_rules_help() -> str:
    """Human-readable rule catalogue for ``simlint --list-rules``."""
    out = []
    for r in RULES:
        fix = "  [--fix]" if r.fixable else ""
        out.append(f"{r.id} ({r.name}, {r.severity}){fix}")
        out.append(f"    {r.summary}")
        out.append(f"    why: {r.rationale}")
    return "\n".join(out)
