"""Declarative fault plans: *what* should fail, *when*, and *how often*.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultRule`
entries.  Rules are matched deterministically — probability draws come
from one seeded RNG inside the :class:`~repro.faults.injector.FaultInjector`
and trigger counters advance in device-arbitration order — so two runs
of the same workload with the same plan inject byte-identical fault
sequences.

Three trigger families cover the experiments the robustness suite needs:

- ``probability`` — each matching command fails with probability *p*
  (steady-state error rates, Amber-style device modelling);
- ``nth`` — the nth matching command fails (surgical placement of a
  fault inside an otherwise healthy run; with ``count`` > 1 the fault
  repeats on the following matches, which is how a *persistent* error
  that defeats the retry bound is modelled);
- ``window``/``lba_range`` — restrict any rule to a simulated-time
  window or an LBA extent (bad-block emulation).

Plans are built either programmatically::

    plan = (FaultPlan(seed=7)
            .media_read_errors(nth=3)
            .latency_spikes(rate=0.01, extra_ns=2_000_000)
            .crash_at(5_000_000))

or parsed from the CLI grammar used by ``python -m repro.bench
--faults seed=7,media_error_rate=1e-4`` (see :meth:`FaultPlan.parse`).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

__all__ = ["FaultKind", "FaultRule", "FaultPlan"]


class FaultKind(enum.Enum):
    """Every failure the injector knows how to produce."""

    MEDIA_READ_ERROR = "media_read_error"    # Unrecovered Read Error CQE
    MEDIA_WRITE_ERROR = "media_write_error"  # Write Fault CQE
    LATENCY_SPIKE = "latency_spike"          # slow command, still correct
    DROP_COMPLETION = "drop_completion"      # CQE never posted (host times out)
    TRANSLATION_FAULT = "translation_fault"  # spurious ATS refusal (VBA only)
    POWER_FAILURE = "power_failure"          # whole-machine crash at a time


#: Kinds that terminate a command (vs. LATENCY_SPIKE, which only delays it).
TERMINAL_KINDS = frozenset({
    FaultKind.MEDIA_READ_ERROR,
    FaultKind.MEDIA_WRITE_ERROR,
    FaultKind.DROP_COMPLETION,
    FaultKind.TRANSLATION_FAULT,
})


class FaultRule:
    """One injection rule; immutable so plans can be shared freely.

    ``nth`` is the 1-based index of the matching command to fail;
    ``count`` caps the fires (None: 1 for ``nth``, unlimited for a
    rate); ``lba_range`` is [start, end) in 512 B LBAs and ``window``
    [t0, t1) in sim ns; ``extra_ns`` is a LATENCY_SPIKE's delay and
    ``at_ns`` a POWER_FAILURE's instant.
    """

    def __init__(self, kind: FaultKind, probability: float = 0.0,
                 nth: Optional[int] = None, count: Optional[int] = None,
                 lba_range: Optional[Tuple[int, int]] = None,
                 window: Optional[Tuple[int, int]] = None,
                 extra_ns: int = 2_000_000,
                 at_ns: Optional[int] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        if nth is not None and nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        if count is not None and count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if kind is FaultKind.POWER_FAILURE and at_ns is None:
            raise ValueError("POWER_FAILURE rules need at_ns")
        if kind is not FaultKind.POWER_FAILURE \
                and nth is None and probability == 0.0:
            raise ValueError(f"rule {kind.value} can never fire: "
                             "give it nth= or probability=")
        for name, pair in (("lba_range", lba_range), ("window", window)):
            if pair is not None and pair[1] <= pair[0]:
                raise ValueError(f"empty {name}: {pair}")
        vars(self).update(kind=kind, probability=probability, nth=nth,
                          count=count, lba_range=lba_range, window=window,
                          extra_ns=extra_ns, at_ns=at_ns)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: "
                             "FaultRule is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: "
                             "FaultRule is frozen")

    @property
    def max_fires(self) -> Optional[int]:
        """How many times this rule may fire (None = unlimited)."""
        if self.count is not None:
            return self.count
        return 1 if self.nth is not None else None


class FaultPlan:
    """A seed plus an ordered rule list; the unit of configuration.

    A :class:`~repro.faults.injector.FaultInjector` freezes the plan it
    adopts: ``rules`` becomes a tuple and every builder method raises
    ``RuntimeError``, so the injector can classify the plan once.
    """

    def __init__(self, seed: int = 0,
                 rules: Optional[List[FaultRule]] = None) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = [] if rules is None else rules
        self.frozen = False

    def freeze(self) -> None:
        """Refuse every later mutation (an injector adopted the plan)."""
        self.rules = tuple(self.rules)  # type: ignore[assignment]
        self.frozen = True

    # -- builder API ---------------------------------------------------------

    def add(self, rule: FaultRule) -> "FaultPlan":
        if self.frozen:
            # A rule added now would have no trigger state in the
            # injector, yet could flip ``may_drop``: the driver would
            # leave its timeouts unarmed against a plan that drops.
            raise RuntimeError(
                "fault plan mutated after the injector adopted it; build "
                "the full plan before constructing the FaultInjector/"
                "Machine")
        self.rules.append(rule)
        return self

    def _io_rule(self, kind: FaultKind, rate: float, nth: Optional[int],
                 count: Optional[int], lba: Optional[Tuple[int, int]],
                 window: Optional[Tuple[int, int]],
                 extra_ns: int = 2_000_000) -> "FaultPlan":
        return self.add(FaultRule(kind, probability=rate, nth=nth,
                                  count=count, lba_range=lba,
                                  window=window, extra_ns=extra_ns))

    def media_read_errors(self, rate: float = 0.0,
                          nth: Optional[int] = None,
                          count: Optional[int] = None,
                          lba: Optional[Tuple[int, int]] = None,
                          window: Optional[Tuple[int, int]] = None
                          ) -> "FaultPlan":
        return self._io_rule(FaultKind.MEDIA_READ_ERROR, rate, nth, count,
                             lba, window)

    def media_write_errors(self, rate: float = 0.0,
                           nth: Optional[int] = None,
                           count: Optional[int] = None,
                           lba: Optional[Tuple[int, int]] = None,
                           window: Optional[Tuple[int, int]] = None
                           ) -> "FaultPlan":
        return self._io_rule(FaultKind.MEDIA_WRITE_ERROR, rate, nth, count,
                             lba, window)

    def latency_spikes(self, rate: float = 0.0,
                       nth: Optional[int] = None,
                       count: Optional[int] = None,
                       extra_ns: int = 2_000_000,
                       lba: Optional[Tuple[int, int]] = None,
                       window: Optional[Tuple[int, int]] = None
                       ) -> "FaultPlan":
        return self._io_rule(FaultKind.LATENCY_SPIKE, rate, nth, count,
                             lba, window, extra_ns=extra_ns)

    def dropped_completions(self, rate: float = 0.0,
                            nth: Optional[int] = None,
                            count: Optional[int] = None,
                            lba: Optional[Tuple[int, int]] = None,
                            window: Optional[Tuple[int, int]] = None
                            ) -> "FaultPlan":
        return self._io_rule(FaultKind.DROP_COMPLETION, rate, nth, count,
                             lba, window)

    def translation_faults(self, rate: float = 0.0,
                           nth: Optional[int] = None,
                           count: Optional[int] = None,
                           window: Optional[Tuple[int, int]] = None
                           ) -> "FaultPlan":
        return self._io_rule(FaultKind.TRANSLATION_FAULT, rate, nth, count,
                             None, window)

    def crash_at(self, at_ns: int) -> "FaultPlan":
        return self.add(FaultRule(FaultKind.POWER_FAILURE, at_ns=at_ns))

    # -- queries --------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self.rules

    @property
    def crash_at_ns(self) -> Optional[int]:
        for rule in self.rules:
            if rule.kind is FaultKind.POWER_FAILURE:
                return rule.at_ns
        return None

    @property
    def may_drop(self) -> bool:
        """Whether any rule can swallow a completion (hosts must arm
        timeouts before submitting when this is set)."""
        return any(rule.kind is FaultKind.DROP_COMPLETION
                   for rule in self.rules)

    # -- CLI grammar ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``key=value[,key=value...]`` into a plan.

        Keys: ``seed``, ``crash_at_ns``, ``latency_spike_ns``, and for
        each kind prefix (``media_error`` = both media kinds,
        ``media_read_error``, ``media_write_error``, ``latency_spike``,
        ``drop``, ``translation_fault``) the suffixes ``_rate``,
        ``_nth`` and ``_count``.
        """
        fields: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"--faults entry needs key=value: {item!r}")
            key, value = item.split("=", 1)
            fields[key.strip()] = value.strip()

        plan = cls(seed=int(float(fields.pop("seed", "0"))))
        crash = fields.pop("crash_at_ns", None)
        spike_ns = int(float(fields.pop("latency_spike_ns", "2000000")))

        prefixes = {
            "media_error": ("media_read_errors", "media_write_errors"),
            "media_read_error": ("media_read_errors",),
            "media_write_error": ("media_write_errors",),
            "latency_spike": ("latency_spikes",),
            "drop": ("dropped_completions",),
            "translation_fault": ("translation_faults",),
        }
        for prefix, builders in prefixes.items():
            rate = fields.pop(f"{prefix}_rate", None)
            nth = fields.pop(f"{prefix}_nth", None)
            count = fields.pop(f"{prefix}_count", None)
            if rate is None and nth is None:
                if count is not None:
                    raise ValueError(
                        f"{prefix}_count needs {prefix}_rate or {prefix}_nth")
                continue
            kwargs = {
                "rate": float(rate) if rate is not None else 0.0,
                "nth": int(float(nth)) if nth is not None else None,
                "count": int(float(count)) if count is not None else None,
            }
            for builder in builders:
                if builder == "latency_spikes":
                    getattr(plan, builder)(extra_ns=spike_ns, **kwargs)
                else:
                    getattr(plan, builder)(**kwargs)
        if crash is not None:
            plan.crash_at(int(float(crash)))
        if fields:
            raise ValueError(
                f"unknown --faults key(s): {', '.join(sorted(fields))}")
        return plan
