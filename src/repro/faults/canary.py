"""Planted canary bugs for validating the chaos pipeline end to end.

A fault-injection harness that has never caught a real bug proves
nothing.  Canaries are deliberately wrong behaviours hidden behind
process-wide flags: arming one re-introduces a known bug class, and the
chaos oracles (:mod:`repro.chaos.oracles`) must find it, shrink it, and
reproduce it from the corpus.  With every canary disarmed (the default,
and what :func:`repro.bench.runner.reset_ambient_state` restores) the
simulation is byte-identical to a build without this module.

Like the ambient injector and monitor config, the armed set is
process-wide mutable state: worker processes reset it per job so a
canary armed for one fuzz batch can never leak into another.
"""

from __future__ import annotations

from typing import FrozenSet, Set

__all__ = [
    "CANARY_RETRY_OFF_BY_ONE",
    "KNOWN_CANARIES",
    "arm",
    "armed",
    "disarm",
    "disarm_all",
    "extra_retries",
]

#: Off-by-one retry bound: the driver error policy grants one retry
#: beyond ``params.io_retry_limit`` on every path, the classic ``>=`` vs ``>`` slip.  Caught
#: by the retry-bounds oracle, which trusts only the params.
CANARY_RETRY_OFF_BY_ONE = "retry-off-by-one"

KNOWN_CANARIES: FrozenSet[str] = frozenset({CANARY_RETRY_OFF_BY_ONE})

_armed: Set[str] = set()


def arm(name: str) -> None:
    """Arm a canary; unknown names are rejected loudly."""
    if name not in KNOWN_CANARIES:
        raise ValueError(f"unknown canary {name!r}; "
                         f"known: {', '.join(sorted(KNOWN_CANARIES))}")
    _armed.add(name)


def disarm(name: str) -> None:
    _armed.discard(name)


def disarm_all() -> None:
    _armed.clear()


def armed(name: str) -> bool:
    return name in _armed


def extra_retries() -> int:
    """Retry-budget slack granted by the armed canaries (0 when clean).

    The driver error policy (:class:`repro.kernel.blockio.GuardedIO`,
    shared by the block layer, the metadata volume and UserLib) adds
    this to ``params.io_retry_limit``; the oracles do not, which is
    exactly how the planted bug is caught.
    """
    return 1 if CANARY_RETRY_OFF_BY_ONE in _armed else 0
