"""``repro.faults``: deterministic, seed-driven fault injection.

The subsystem threads through the whole stack:

- the NVMe device consults the machine's :class:`FaultInjector` per
  command and can complete with media errors, delay (latency spike),
  or silently drop the completion;
- one driver error policy (``repro.kernel.blockio.GuardedIO``),
  shared by the kernel block layer, the metadata volume and UserLib,
  arms timeouts, aborts lost commands and retries transient errors
  with bounded exponential backoff before surfacing ``-EIO``;
- UserLib handles translation faults by re-issuing ``fmap()``, then
  degrades to the kernel I/O path;
- a planned :class:`PowerFailure` crashes the machine mid-run; journal
  replay plus fsck recover it (``Machine.recover_after_crash``).

A process-wide *default injector* lets experiment code opt in without
code changes: ``python -m repro.bench --faults seed=7,... fig6`` sets
it, and every :class:`~repro.machine.Machine` built with ``faults=None``
picks it up.
"""

from __future__ import annotations

from typing import Optional

from . import canary
from .injector import NO_FAULTS, FaultInjector, PowerFailure
from .plan import FaultKind, FaultPlan, FaultRule

__all__ = [
    "FaultKind",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "PowerFailure",
    "NO_FAULTS",
    "canary",
    "set_default_injector",
    "default_injector",
]

_default: Optional[FaultInjector] = None


def set_default_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or clear, with None) the ambient injector new machines
    adopt when constructed without an explicit ``faults=`` argument."""
    global _default
    _default = injector


def default_injector() -> Optional[FaultInjector]:
    return _default
