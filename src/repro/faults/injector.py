"""The fault injector: the single decision point every layer queries.

One :class:`FaultInjector` per machine owns a ``random.Random(seed)``
and the per-rule trigger state.  Model code never draws randomness
itself — it asks the injector, which evaluates the plan's rules in
order against the command's context (opcode, LBA extents, simulated
time).  Because the device arbitrates commands deterministically, the
sequence of queries — and therefore of RNG draws and injected faults —
is identical across same-seed runs.

Every injection is counted (:attr:`FaultInjector.counts`) and recorded
as a zero-or-spike-length span in the machine tracer under the
``"fault"`` category, so benchmarks can report fault/retry/fallback
totals next to their latency numbers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..sim.trace import NULL_TRACER
from .plan import FaultKind, FaultPlan, FaultRule

__all__ = ["FaultInjector", "PowerFailure", "NO_FAULTS"]


class PowerFailure(Exception):
    """Raised out of the simulation when a planned crash fires.

    Catch it, then call :meth:`repro.machine.Machine.recover_after_crash`
    to replay the journal and fsck the recovered filesystem.
    """

    def __init__(self, at_ns: int, during: str = "run"):
        detail = "" if during == "run" else f" (during {during})"
        super().__init__(f"power failure at t={at_ns}ns{detail}")
        self.at_ns = at_ns
        self.during = during


class _RuleState:
    __slots__ = ("seen", "fired")

    def __init__(self) -> None:
        self.seen = 0
        self.fired = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        # Adopting the plan freezes it (``FaultPlan.add`` raises from
        # now on), so every per-rule trigger state exists and the plan's
        # classification is worked out once, not per command.
        self.plan.freeze()
        self.rng = random.Random(self.plan.seed)
        self.tracer = NULL_TRACER
        self.counts: Dict[str, int] = {}
        self._states: List[_RuleState] = [_RuleState()
                                          for _ in self.plan.rules]
        self.active = bool(self.plan.rules)
        self.may_drop = self.plan.may_drop

    # -- rule evaluation ------------------------------------------------------

    def _fires(self, rule: FaultRule, state: _RuleState, now: int,
               segments: Optional[List[Tuple[int, int]]]) -> bool:
        if rule.window is not None:
            t0, t1 = rule.window
            if not t0 <= now < t1:
                return False
        if rule.lba_range is not None:
            if segments is None:
                return False
            lo, hi = rule.lba_range
            if not any(lba < hi and lo < lba + nblocks
                       for lba, nblocks in segments):
                return False
        state.seen += 1
        if rule.max_fires is not None and state.fired >= rule.max_fires:
            return False
        if rule.nth is not None:
            fire = state.seen >= rule.nth
        else:
            fire = self.rng.random() < rule.probability
        if fire:
            state.fired += 1
            self._record(rule.kind, now,
                         rule.extra_ns
                         if rule.kind is FaultKind.LATENCY_SPIKE else 0)
        return fire

    def _record(self, kind: FaultKind, now: int, extra_ns: int) -> None:
        self.counts[kind.value] = self.counts.get(kind.value, 0) + 1
        self.tracer.record("fault", kind.value, now, now + extra_ns)

    def _matching(self, kinds) -> List[Tuple[FaultRule, _RuleState]]:
        return [(rule, state)
                for rule, state in zip(self.plan.rules, self._states)
                if rule.kind in kinds]

    # -- device-facing queries ------------------------------------------------

    def translation_fault(self, now: int) -> bool:
        """Should this VBA command see a spurious translation fault?"""
        for rule, state in self._matching((FaultKind.TRANSLATION_FAULT,)):
            if self._fires(rule, state, now, None):
                return True
        return False

    def media_verdict(self, is_write: bool,
                      segments: Optional[List[Tuple[int, int]]],
                      now: int) -> Tuple[int, Optional[FaultKind]]:
        """(extra latency ns, terminal fault or None) for one command.

        Latency spikes accumulate; the first terminal rule to fire wins
        (later terminal rules are not even consulted, so their trigger
        counters only see commands that survived to their turn).
        """
        spike_ns = 0
        terminal: Optional[FaultKind] = None
        media_kind = (FaultKind.MEDIA_WRITE_ERROR if is_write
                      else FaultKind.MEDIA_READ_ERROR)
        for rule, state in zip(self.plan.rules, self._states):
            if rule.kind is FaultKind.LATENCY_SPIKE:
                if self._fires(rule, state, now, segments):
                    spike_ns += rule.extra_ns
            elif rule.kind in (media_kind, FaultKind.DROP_COMPLETION):
                if terminal is None and self._fires(rule, state, now,
                                                    segments):
                    terminal = (FaultKind.DROP_COMPLETION
                                if rule.kind is FaultKind.DROP_COMPLETION
                                else media_kind)
        return spike_ns, terminal

    # -- machine-facing -------------------------------------------------------

    def record_crash(self, now: int) -> None:
        self._record(FaultKind.POWER_FAILURE, now, 0)

    def summary(self) -> Dict[str, int]:
        """Injection counts keyed by fault kind (all kinds, zeros kept,
        so same-seed runs can be compared key for key)."""
        return {kind.value: self.counts.get(kind.value, 0)
                for kind in FaultKind}


#: Shared inert injector for components built without a machine.  It is
#: stateless while inactive (no rules means no RNG draws, no counters),
#: so sharing one instance across devices is safe.
NO_FAULTS = FaultInjector(FaultPlan())
