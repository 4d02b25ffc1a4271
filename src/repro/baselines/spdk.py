"""SPDK: userspace driver with exclusive device ownership.

SPDK unbinds the kernel driver and maps the whole device into one
process.  That gives the lowest possible latency — no kernel, no
filesystem, no translation — but (1) the application must bring its own
"filesystem" (a trivial run-of-blocks namespace here, like SPDK's
blobstore), and (2) **the device cannot be shared**: a second process
cannot attach, and the owning process can reach every block on the
device, which is exactly the protection gap BypassD closes (Sections
1, 2).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..kernel.blockio import PAGE, SECTOR, negative_offset
from ..kernel.process import Process
from ..nvme.device import DeviceBusyError, NVMeDevice
from ..nvme.spec import AddressKind, Command, Completion, Opcode, Status
from ..sim.cpu import Thread
from ..sim.engine import Simulator

__all__ = ["SPDKEngine", "SPDKError", "SPDKFile"]


class SPDKError(IOError):
    """A command completed with a non-success NVMe status.

    SPDK applications see the raw CQE (``spdk_nvme_cpl``) in their
    completion callback — no errno translation, no kernel retry — so
    the status code itself is the API surface.
    """

    def __init__(self, completion: Completion):
        super().__init__(f"SPDK I/O failed: {completion.status} "
                         f"{completion.fault_reason}")
        self.completion = completion
        self.status = completion.status


class SPDKFile:
    """A named run of raw device blocks (no real filesystem)."""

    def __init__(self, engine: "SPDKEngine", name: str, first_page: int,
                 capacity_pages: int):
        self.engine = engine
        self.name = name
        self.first_page = first_page
        self.capacity_pages = capacity_pages
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def mark_written(self, nbytes: int) -> None:
        """Extend the logical size without issuing writes (bulk setup)."""
        if nbytes < 0 or nbytes > self.capacity_pages * PAGE:
            raise ValueError(f"size {nbytes} beyond SPDK file capacity")
        self._size = max(self._size, nbytes)

    def _lba(self, offset: int) -> int:
        if offset >= self.capacity_pages * PAGE:
            raise ValueError(f"offset {offset} beyond SPDK file capacity")
        return self.first_page * (PAGE // SECTOR) + offset // SECTOR

    def pread(self, thread: Thread, offset: int,
              nbytes: int) -> Generator:
        if offset < 0:
            raise negative_offset(offset)
        n = max(0, min(nbytes, self._size - offset))
        if n == 0:
            return 0, b""
        aligned = -(-n // SECTOR) * SECTOR
        completion = yield from self.engine.raw_io(
            thread, Opcode.READ, self._lba(offset), aligned)
        data = completion.data
        return n, (data[:n] if data is not None else None)

    def pwrite(self, thread: Thread, offset: int, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        if offset < 0:
            raise negative_offset(offset)
        aligned = -(-nbytes // SECTOR) * SECTOR
        payload = None if data is None else data + bytes(aligned - nbytes)
        yield from self.engine.raw_io(thread, Opcode.WRITE,
                                      self._lba(offset), aligned, payload)
        self._size = max(self._size, offset + nbytes)
        return nbytes

    def append(self, thread: Thread, nbytes: int,
               data: Optional[bytes] = None) -> Generator:
        offset = self._size
        yield from self.pwrite(thread, offset, nbytes, data)
        return offset

    def fsync(self, thread: Thread) -> Generator:
        completion = yield from self.engine.raw_flush(thread)
        del completion

    def close(self, thread: Thread) -> Generator:
        return iter(())


class SPDKEngine:
    """Userspace NVMe driver bound to one process."""

    name = "spdk"

    def __init__(self, sim: Simulator, device: NVMeDevice, proc: Process):
        self.sim = sim
        self.device = device
        self.params = device.params
        self.proc = proc
        self.owner_tag = f"spdk-{proc.pid}"
        device.claim_exclusive(self.owner_tag)
        self._qps: Dict[int, object] = {}
        self._files: Dict[str, SPDKFile] = {}
        self._next_page = 64  # skip a "metadata" stripe

    def detach(self) -> None:
        for _tid, qp in sorted(self._qps.items()):
            self.device.delete_queue_pair(qp)
        self._qps.clear()
        self.device.release_exclusive(self.owner_tag)

    def _qp(self, thread: Thread):
        qp = self._qps.get(thread.tid)
        if qp is None:
            qp = self.device.create_queue_pair(pasid=0, depth=1024,
                                               owner=self.owner_tag)
            self._qps[thread.tid] = qp
        return qp

    # -- raw access (this is the sharing hazard) -------------------------------

    def raw_io(self, thread: Thread, opcode: Opcode, lba512: int,
               nbytes: int, data: Optional[bytes] = None) -> Generator:
        """Issue an LBA command: no permission check of any kind."""
        params = self.params
        tracer = self.device.tracer
        yield from thread.compute(params.spdk_submit_ns)
        cmd = Command(opcode, addr=lba512, nbytes=nbytes,
                      addr_kind=AddressKind.LBA, data=data)
        token = tracer.begin("device", "spdk-io", thread=thread)
        try:
            tracer.stamp(cmd, thread=thread)
            ev = self.device.submit(self._qp(thread), cmd)
            completion = yield from thread.poll(ev)
        finally:
            tracer.end(token)
        yield from thread.compute(params.spdk_complete_ns)
        if completion.status is not Status.SUCCESS:
            raise SPDKError(completion)
        return completion

    def raw_flush(self, thread: Thread) -> Generator:
        ev = self.device.submit(self._qp(thread),
                                Command(Opcode.FLUSH, addr=0, nbytes=0))
        return (yield from thread.poll(ev))

    # -- the toy namespace ------------------------------------------------------

    def create_file(self, name: str, capacity_bytes: int) -> SPDKFile:
        if name in self._files:
            raise FileExistsError(name)
        pages = -(-capacity_bytes // PAGE)
        f = SPDKFile(self, name, self._next_page, pages)
        self._next_page += pages
        self._files[name] = f
        return f

    def open(self, thread: Thread, path: str, write: bool = False,
             create: bool = False) -> Generator:
        """Engine-interface open: files live in SPDK's own namespace."""
        f = self._files.get(path)
        if f is None:
            if not create:
                raise FileNotFoundError(path)
            f = self.create_file(path, 16 * 1024 * 1024 * 1024)
        return f
        yield  # pragma: no cover - generator protocol
