"""Baseline I/O engines the paper compares BypassD against.

Build engines through :func:`repro.baselines.registry.make_engine`
(re-exported here), which imports only the engine module it builds.
The engine classes are imported from their own modules
(``repro.baselines.libaio``, ``.io_uring``, ``.spdk``, ``.xrp``,
``.sync_io``), so a run loads only the engines it uses.
"""

from .registry import make_engine

__all__ = ["make_engine"]
