"""The simulated machine: every substrate wired together.

A :class:`Machine` is the paper's testbed — Xeon cores, an IOMMU with
the BypassD extension, an Optane-class NVMe SSD, a mounted ext4-like
filesystem, the kernel I/O stack and the BypassD manager.  Experiments
spawn processes, obtain per-process UserLibs (or baseline engines) and
run workload generators against simulated time.

    machine = Machine()
    proc = machine.spawn_process("app")
    lib = machine.userlib(proc)
    thread = proc.new_thread()

    def workload():
        f = yield from lib.open(thread, "/data/file", write=True,
                                create=True)
        yield from f.append(thread, 4096, b"x" * 4096)
        n, data = yield from f.pread(thread, 0, 4096)
        yield from f.close(thread)

    machine.run_process(workload)

Fault injection (``repro.faults``) plugs in through the ``faults=``
argument: a :class:`~repro.faults.FaultPlan` (or a CLI-style spec
string) arms the device's injector, and a planned power failure makes
the run raise :class:`~repro.faults.PowerFailure`, after which
:meth:`Machine.recover_after_crash` replays the journal and fscks the
result.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Union

from .core.fmap import FmapManager
from .core.userlib import UserLib
from .faults import (
    FaultInjector,
    FaultPlan,
    PowerFailure,
    default_injector,
)
from .fs.ext4.filesystem import Ext4Filesystem
from .hw.iommu import IOMMU
from .hw.memory import PhysicalMemory
from .hw.params import DEFAULT_PARAMS, GiB, HardwareParams
from .kernel.blockio import BlockIOLayer, KernelVolume
from .kernel.pagecache import PageCache
from .kernel.process import Process
from .kernel.syscalls import Kernel
from .nvme.device import NVMeDevice
from .obs import default_monitor
from .sim.cpu import CPUSet
from .sim.engine import Simulator
from .sim.stats import Stats
from .sim.trace import NULL_TRACER

if TYPE_CHECKING:
    from .obs.monitor import Monitor, MonitorConfig

__all__ = ["CapturedClock", "Machine", "capture_machines"]


# -- construction capture (armed by the bench runner) -----------------------
#
# Experiments build their machines internally, so the parallel runner
# cannot see them to attribute simulated time to a job.  While a sink
# list is armed here, every Machine constructed appends a
# :class:`CapturedClock` to it; the runner sums ``clock.now`` over the
# sink when the job finishes.  A clock does not keep its machine alive,
# so an experiment's finished machines are freed as it goes.  Like the
# ambient fault injector and monitor config, this is process-wide
# mutable state: worker processes reset it before each job
# (:func:`repro.bench.runner.reset_ambient_state`) so nothing leaks
# across fork/spawn boundaries.

_CAPTURE: Optional[List["CapturedClock"]] = None


def capture_machines(sink: Optional[List["CapturedClock"]]) -> None:
    """Arm (with a list) or disarm (with None) construction capture."""
    global _CAPTURE
    _CAPTURE = sink


class CapturedClock:
    """The simulated time a captured machine reached.

    The machine owns the clock's probe: while the machine lives,
    ``now`` reads its simulator, and when it is collected the probe's
    finalizer leaves the clock's last value in ``final_ns``.
    """

    __slots__ = ("_probe", "final_ns")

    def __init__(self, probe: "_ClockProbe"):
        self._probe = weakref.ref(probe)
        self.final_ns = 0

    @property
    def now(self) -> int:
        probe = self._probe()
        return self.final_ns if probe is None else probe.sim.now


class _ClockProbe:
    __slots__ = ("sim", "clock", "__weakref__")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.clock = CapturedClock(self)

    def __del__(self) -> None:
        self.clock.final_ns = self.sim.now


class Machine:
    """A complete simulated host with one shared NVMe SSD."""

    def __init__(self, params: Optional[HardwareParams] = None,
                 capacity_bytes: int = 64 * GiB,
                 memory_bytes: int = 8 * GiB,
                 capture_data: bool = True,
                 cache_ftes: bool = False,
                 page_cache_pages: Optional[int] = None,
                 trace: bool = False,
                 sanitize: bool = False,
                 faults: Union[FaultPlan, FaultInjector, str, None] = None,
                 monitor: Union[bool, MonitorConfig, None] = None):
        self.params = params if params is not None else DEFAULT_PARAMS
        self.sim = Simulator(sanitize=sanitize)
        self.tracer = NULL_TRACER
        if trace:
            from .sim.spans import Tracer
            self.tracer = Tracer(self.sim)
        self.faults = self._resolve_injector(faults)
        self.faults.tracer = self.tracer
        self.cpus = CPUSet(self.sim, self.params.cpu_cores)
        self.memory = PhysicalMemory(memory_bytes)
        self.iommu = IOMMU(self.params, cache_ftes=cache_ftes)
        self.device = NVMeDevice(self.sim, self.params, self.iommu,
                                 devid=1, capacity_bytes=capacity_bytes,
                                 capture_data=capture_data,
                                 injector=self.faults)
        self.device.tracer = self.tracer
        self.volume = KernelVolume(self.sim, self.params, self.device)
        self._capacity_bytes = capacity_bytes
        self.fs = Ext4Filesystem.mkfs(capacity_bytes, devid=1,
                                      params=self.params)
        self.fs.mount(self.volume, now_fn=lambda: self.sim.now)
        self.blockio = BlockIOLayer(self.sim, self.params, self.device)
        if page_cache_pages is None:
            page_cache_pages = max(64, memory_bytes // 4 // 4096)
        self.pagecache = PageCache(page_cache_pages, self.blockio, self.fs)
        self.kernel = Kernel(self.sim, self.params, self.fs, self.blockio,
                             self.pagecache)
        self.kernel.tracer = self.tracer
        self.blockio.tracer = self.tracer
        self.bypassd = FmapManager(self.sim, self.params, self.fs,
                                   self.iommu)
        self.kernel.bypassd = self.bypassd
        self._userlibs: List[UserLib] = []
        self.crashed = False
        # Telemetry last, so the sampler sees every layer wired up.
        # `monitor=True` attaches defaults, a MonitorConfig customises,
        # None defers to the ambient config (repro.bench --monitor),
        # False forces it off.  The monitor module loads only when one
        # of those attaches a monitor.
        self.monitor: Optional[Monitor] = None
        if monitor is not False and (monitor is not None
                                     or default_monitor() is not None):
            from .obs.monitor import Monitor, resolve_monitor_config
            mon_cfg, ambient = resolve_monitor_config(monitor)
            self.monitor = Monitor(self, mon_cfg, ambient=ambient)
        if self.faults.plan.crash_at_ns is not None:
            self.sim.process(self._power_fail(self.faults.plan.crash_at_ns),
                             name="power-fail")
        if _CAPTURE is not None:
            self._clock_probe = _ClockProbe(self.sim)
            _CAPTURE.append(self._clock_probe.clock)

    @staticmethod
    def _resolve_injector(faults) -> FaultInjector:
        if isinstance(faults, FaultInjector):
            return faults
        if isinstance(faults, FaultPlan):
            return FaultInjector(faults)
        if isinstance(faults, str):
            return FaultInjector(FaultPlan.parse(faults))
        ambient = default_injector()
        if ambient is not None:
            return ambient
        return FaultInjector(FaultPlan())

    def _power_fail(self, at_ns: int) -> Generator:
        """Pull the plug at the planned instant: every in-flight event
        is abandoned and the run raises :class:`PowerFailure`."""
        yield self.sim.timeout(at_ns)
        self.crashed = True
        self.faults.record_crash(self.sim.now)
        raise PowerFailure(self.sim.now)

    # -- lifecycle -----------------------------------------------------------

    def spawn_process(self, name: str = "", uid: int = 1000,
                      gids=None, chroot: str = "") -> Process:
        proc = Process(self.cpus, uid=uid, gids=gids, name=name,
                       chroot=chroot)
        self.iommu.bind_pasid(proc.pasid, proc.aspace.page_table)
        return proc

    def spawn_container_process(self, container: str, name: str = "",
                                uid: int = 1000) -> Process:
        """Spawn a process inside a mount namespace (Section 5.2).

        Containers share the device and the BypassD machinery without
        modification: the kernel's path resolution confines each
        container to its subtree, and everything below open() (fmap,
        FTEs, the IOMMU checks) is namespace-agnostic.
        """
        root = f"/containers/{container}"
        if not self.fs.exists("/containers"):
            self.fs.mkdir("/containers")
        if not self.fs.exists(root):
            self.fs.mkdir(root)
        return self.spawn_process(name=name or f"{container}-proc",
                                  uid=uid, chroot=root)

    def userlib(self, proc: Process,
                optimized_appends: bool = False,
                nonblocking_writes: bool = False) -> UserLib:
        lib = UserLib(self.sim, proc, self.kernel, self.device,
                      self.memory, optimized_appends=optimized_appends,
                      nonblocking_writes=nonblocking_writes)
        self._userlibs.append(lib)
        return lib

    # -- running -------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.sim.now

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until)

    def run_process(self, gen: Generator,
                    until: Optional[int] = None) -> Any:
        return self.sim.run_process(gen, until)

    def spawn(self, thread, gen: Generator, name: str = ""):
        """Start a workload on ``thread``; the core is released when it
        finishes (see :meth:`repro.sim.cpu.Thread.run`)."""
        return self.sim.process(thread.run(gen), name=name or thread.name)

    # -- observability --------------------------------------------------------

    def write_chrome_trace(self, path, flows: bool = False) -> str:
        """Export the tracer's spans as Chrome trace JSON (Perfetto).

        With a monitor attached, telemetry gauges ride along as
        Perfetto counter tracks (queue depth over time next to spans).
        ``flows`` adds submission->completion flow arrows linking each
        host wait span to its device-side phases.
        """
        from .obs.export import write_chrome_trace
        counters = self.monitor.series if self.monitor is not None else None
        return write_chrome_trace(self.tracer, path, counters=counters,
                                  flows=flows)

    def write_flamegraph(self, path) -> str:
        """Export collapsed stacks weighted by span self-time."""
        from .obs.export import write_flamegraph
        return write_flamegraph(self.tracer, path)

    def write_telemetry(self, path) -> str:
        """Export the monitor's telemetry dump (gauges + SLO breaches)."""
        if self.monitor is None:
            raise ValueError("machine has no monitor attached "
                             "(construct with monitor=True)")
        return self.monitor.write_telemetry(path)

    # -- fault accounting / recovery -----------------------------------------

    def stats(self) -> Stats:
        """Aggregate fault/recovery counters across every layer."""
        return Stats.from_machine(self)

    def recover_after_crash(self,
                            crash_after_records: Optional[int] = None
                            ) -> Ext4Filesystem:
        """Journal replay plus fsck after a :class:`PowerFailure`.

        Returns the recovered filesystem (a fresh instance — the
        crashed machine's in-memory state is gone, exactly like a
        reboot).  Raises ``AssertionError`` if the replayed metadata is
        inconsistent.

        ``crash_after_records`` injects a *second* power failure that
        many journal records into the replay (chaos testing): the call
        raises :class:`~repro.faults.PowerFailure` cleanly, the crash
        image is untouched, and calling this method again completes the
        recovery — an interrupted recovery is itself recoverable.
        """
        records = self.fs.crash_image()
        recovered = Ext4Filesystem.recover(
            records, self._capacity_bytes, devid=self.fs.devid,
            params=self.params, crash_after_records=crash_after_records)
        recovered.fsck()
        return recovered
