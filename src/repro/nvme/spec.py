"""NVMe command/completion structures and status codes.

Only the slice of the NVMe 1.4 protocol the experiments exercise is
modelled: I/O reads and writes, flush, and the BypassD extension where
a command's address field carries a Virtual Block Address that the
device must have translated by the IOMMU before accessing media
(paper Sections 3.3, 4.3).
"""

from __future__ import annotations

import enum
import errno as _errno
import itertools
from typing import Optional, Tuple

__all__ = [
    "Opcode",
    "Status",
    "AddressKind",
    "Command",
    "Completion",
    "LBA_SIZE",
    "DEVICE_PAGE_SIZE",
    "OP_READ",
    "OP_WRITE",
    "OP_FLUSH",
    "ADDR_LBA",
    "ADDR_VBA",
    "ST_SUCCESS",
]

LBA_SIZE = 512
DEVICE_PAGE_SIZE = 4096

_cid_counter = itertools.count(1)


class Opcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    FLUSH = "flush"


class Status(enum.Enum):
    SUCCESS = 0x0
    INVALID_FIELD = 0x2
    # Command Abort Requested: the host timed out and aborted the
    # command (NVMe 1.4 generic status 0x7).
    ABORTED = 0x7
    # Command Aborted due to SQ Deletion (NVMe 1.4 generic status 0x8):
    # the queue pair was deleted before the device fetched the command.
    ABORTED_SQ_DELETION = 0x8
    LBA_OUT_OF_RANGE = 0x80
    # Media and Data Integrity errors (NVMe status code type 2): the
    # fault injector uses these for device-side media failures.
    MEDIA_WRITE_FAULT = 0x280
    MEDIA_READ_ERROR = 0x281
    # BypassD: the IOMMU refused the VBA translation; the SSD returns an
    # error code to the process without touching media (Section 5.3).
    TRANSLATION_FAULT = 0x1C1

    @property
    def ok(self) -> bool:
        return self is ST_SUCCESS

    @property
    def retryable(self) -> bool:
        """Transient by NVMe semantics: a host-side retry may succeed.

        Translation faults are *not* retryable here — the BypassD
        recovery for those is re-issuing fmap(), not resubmitting the
        same command (Section 3.6).
        """
        return self in (Status.MEDIA_READ_ERROR, Status.MEDIA_WRITE_FAULT,
                        Status.ABORTED)


class AddressKind(enum.Enum):
    LBA = "lba"  # classic: logical block address, 512 B units
    VBA = "vba"  # BypassD: virtual block address, byte-granular


# Members read on every command, bound once here for every module on
# the command path: on CPython 3.11 an ``Enum.MEMBER`` read is an
# unspecialised class-attribute lookup, a module global is not.
OP_READ, OP_WRITE, OP_FLUSH = Opcode.READ, Opcode.WRITE, Opcode.FLUSH
ADDR_LBA, ADDR_VBA = AddressKind.LBA, AddressKind.VBA
ST_SUCCESS = Status.SUCCESS


class Command:
    """One submission queue entry.

    ``addr`` is an LBA (512 B blocks) or a VBA (bytes), as
    ``addr_kind`` says; ``buffer_iova`` is the host DMA target or
    source; ``data`` is the payload of a write (None = timing-only).
    ``cid`` defaults to the next number of a process-wide counter.
    ``trace`` is the host trace context (trace_id, span_id) stamped by
    the submitter so device-side phase spans parent under the host's
    wait span; it carries no timing information and is None when
    tracing is off.  ``submit_ns`` is the doorbell timestamp (sim ns)
    set by NVMeDevice.submit; the delta to fetch start is the arbiter
    queueing delay the device stamps as a wait attr, never read by
    timing decisions.
    """

    __slots__ = ("opcode", "addr", "nbytes", "addr_kind", "buffer_iova",
                 "data", "cid", "trace", "submit_ns")

    def __init__(self, opcode: Opcode, addr: int, nbytes: int,
                 addr_kind: AddressKind = ADDR_LBA, buffer_iova: int = 0,
                 data: Optional[bytes] = None, cid: Optional[int] = None,
                 trace: Optional[Tuple[int, int]] = None,
                 submit_ns: int = -1) -> None:
        self.opcode = opcode
        self.addr = addr
        self.nbytes = nbytes
        self.addr_kind = addr_kind
        self.buffer_iova = buffer_iova
        self.data = data
        self.cid = next(_cid_counter) if cid is None else cid
        self.trace = trace
        self.submit_ns = submit_ns
        if opcode is not OP_FLUSH:
            if nbytes <= 0:
                raise ValueError("I/O command needs a positive size")
            if addr < 0:
                raise ValueError("negative address")
            if addr_kind is ADDR_LBA and nbytes % LBA_SIZE:
                raise ValueError(
                    f"LBA I/O must be {LBA_SIZE}-byte aligned, got {nbytes}"
                )

    @property
    def is_write(self) -> bool:
        return self.opcode is OP_WRITE


class Completion:
    """One completion queue entry; ``data`` is a read's payload
    (None = timing-only)."""

    __slots__ = ("cid", "status", "data", "fault_reason")

    def __init__(self, cid: int, status: Status,
                 data: Optional[bytes] = None,
                 fault_reason: str = "") -> None:
        self.cid = cid
        self.status = status
        self.data = data
        self.fault_reason = fault_reason

    @property
    def ok(self) -> bool:
        return self.status is ST_SUCCESS

    @property
    def errno(self) -> int:
        """The negative errno a POSIX layer reports for this CQE
        (0 on success); what libaio puts in ``io_event.res`` and the
        syscall layer returns as ``-EIO`` and friends."""
        if self.status.ok:
            return 0
        if self.status is Status.INVALID_FIELD:
            return -_errno.EINVAL
        if self.status is Status.TRANSLATION_FAULT:
            return -_errno.EFAULT
        return -_errno.EIO
