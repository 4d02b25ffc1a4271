"""Engine factory: one place the benchmarks build every bar from.

``make_engine(machine, proc, name)`` returns an object with ``name``
and ``open(thread, path, write, create)`` for each approach the paper
compares: sync, libaio, io_uring, spdk, xrp, bypassd (and
bypassd-optappend for the Section 5.1 enhancement).
"""

from __future__ import annotations

from typing import Generator, List

from ..core.userlib import UserLib
from ..kernel.process import Process
from ..machine import Machine
from ..sim.cpu import Thread

__all__ = ["ENGINE_NAMES", "make_engine", "chained_read",
           "BypassDEngine"]

ENGINE_NAMES = ("sync", "libaio", "io_uring", "spdk", "xrp", "bypassd",
                "bypassd-optappend")


class BypassDEngine:
    """Engine-protocol adapter over a per-process UserLib."""

    def __init__(self, lib: UserLib, name: str = "bypassd"):
        self.lib = lib
        self.name = name

    def open(self, thread: Thread, path: str, write: bool = False,
             create: bool = False) -> Generator:
        return self.lib.open(thread, path, write=write, create=create)


def make_engine(machine: Machine, proc: Process, name: str,
                buffered: bool = False):
    """Build the named engine for ``proc`` on ``machine``.

    Each baseline's module is imported here, on first use, so a run
    loads only the engines it builds."""
    if name == "sync":
        from .sync_io import SyncEngine
        return SyncEngine(machine.kernel, proc, direct=not buffered)
    if name == "libaio":
        from .libaio import LibaioEngine
        return LibaioEngine(machine.sim, machine.kernel, proc)
    if name == "io_uring":
        from .io_uring import IOUringEngine
        return IOUringEngine(machine.sim, machine.cpus, machine.kernel,
                             proc)
    if name == "spdk":
        from .spdk import SPDKEngine
        return SPDKEngine(machine.sim, machine.device, proc)
    if name == "xrp":
        from .xrp import XRPEngine
        return XRPEngine(machine.kernel, proc)
    if name == "bypassd":
        return BypassDEngine(machine.userlib(proc))
    if name == "bypassd-optappend":
        return BypassDEngine(machine.userlib(proc,
                                             optimized_appends=True),
                             name="bypassd-optappend")
    raise ValueError(f"unknown engine {name!r}; "
                     f"choose from {ENGINE_NAMES}")


def chained_read(file, thread: Thread, offsets: List[int],
                 nbytes: int) -> Generator:
    """Pointer-chase helper: uses XRP's in-kernel resubmission when the
    file supports it, sequential reads otherwise."""
    if hasattr(file, "chained_read"):
        return file.chained_read(thread, offsets, nbytes)
    return _sequential_chain(file, thread, offsets, nbytes)


def _sequential_chain(file, thread: Thread, offsets: List[int],
                      nbytes: int) -> Generator:
    result = (0, None)
    for offset in offsets:
        result = yield from file.pread(thread, offset, nbytes)
    return result
