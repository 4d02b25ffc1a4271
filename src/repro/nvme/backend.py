"""SSD media backend: lazily-materialised block store plus timing.

Blocks that were never written read back as zeros without being
stored, so paper-scale files (a 46 GB WiredTiger database, a 54 GB
KVell store) cost memory proportional to the bytes actually written,
not to the logical capacity.  Benchmarks that only need timing can
disable payload capture entirely.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hw.params import HardwareParams
from .spec import LBA_SIZE, OP_FLUSH, OP_READ, OP_WRITE, Opcode

__all__ = ["MediaBackend"]

_ZERO_BLOCK = bytes(LBA_SIZE)


class MediaBackend:
    """Block storage with Optane-like service times."""

    def __init__(self, params: HardwareParams, capacity_bytes: int,
                 capture_data: bool = True):
        if capacity_bytes < LBA_SIZE:
            raise ValueError("capacity below one block")
        self.params = params
        self.capacity_blocks = capacity_bytes // LBA_SIZE
        self.capture_data = capture_data
        self._blocks: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- data ---------------------------------------------------------------

    def check_range(self, lba: int, nblocks: int) -> bool:
        return 0 <= lba and lba + nblocks <= self.capacity_blocks

    def read_blocks(self, lba: int, nblocks: int) -> Optional[bytes]:
        """Return payload bytes, or None when capture is disabled."""
        if not self.check_range(lba, nblocks):
            raise ValueError(f"read beyond capacity: lba={lba} n={nblocks}")
        self.reads += 1
        self.bytes_read += nblocks * LBA_SIZE
        if not self.capture_data:
            return None
        return b"".join(
            self._blocks.get(lba + i, _ZERO_BLOCK) for i in range(nblocks)
        )

    def peek_blocks(self, lba: int, nblocks: int) -> Optional[bytes]:
        """Read payload bytes without touching the access counters.

        For observers only — chaos oracles and debugging tools that
        must not perturb the run they are auditing (``read_blocks``
        bumps ``reads``/``bytes_read``, which a later stats check
        would see).  Returns None when capture is disabled.
        """
        if not self.check_range(lba, nblocks):
            raise ValueError(f"peek beyond capacity: lba={lba} n={nblocks}")
        if not self.capture_data:
            return None
        return b"".join(
            self._blocks.get(lba + i, _ZERO_BLOCK) for i in range(nblocks)
        )

    def write_blocks(self, lba: int, nblocks: int,
                     data: Optional[bytes]) -> None:
        if not self.check_range(lba, nblocks):
            raise ValueError(f"write beyond capacity: lba={lba} n={nblocks}")
        self.writes += 1
        self.bytes_written += nblocks * LBA_SIZE
        if not self.capture_data or data is None:
            return
        if len(data) != nblocks * LBA_SIZE:
            raise ValueError(
                f"payload is {len(data)} bytes for {nblocks} blocks"
            )
        for i in range(nblocks):
            chunk = data[i * LBA_SIZE:(i + 1) * LBA_SIZE]
            if chunk == _ZERO_BLOCK:
                # Writing zeros de-materialises the block.
                self._blocks.pop(lba + i, None)
            else:
                self._blocks[lba + i] = chunk

    def zero_blocks(self, lba: int, nblocks: int) -> None:
        """Discard/zero a range (block allocation zeroing, Section 4.1)."""
        if not self.check_range(lba, nblocks):
            raise ValueError(f"zero beyond capacity: lba={lba} n={nblocks}")
        if nblocks < len(self._blocks):
            for i in range(nblocks):
                self._blocks.pop(lba + i, None)
        else:
            # Huge range (fallocate of a paper-scale file): walk the
            # materialised blocks instead of the range.
            end = lba + nblocks
            doomed = [b for b in self._blocks if lba <= b < end]
            for b in doomed:
                del self._blocks[b]

    @property
    def materialized_blocks(self) -> int:
        return len(self._blocks)

    # -- timing ---------------------------------------------------------------

    def media_ns(self, opcode: Opcode) -> int:
        """Media access latency before/around the data transfer."""
        if opcode is OP_READ:
            return self.params.read_media_ns
        if opcode is OP_WRITE:
            return self.params.write_media_ns
        if opcode is OP_FLUSH:
            return self.params.flush_ns
        raise ValueError(f"unknown opcode {opcode}")

    def transfer_ns(self, nbytes: int) -> int:
        """Per-command transfer time at the media/controller rate."""
        return self.params.media_transfer_ns(nbytes)

    def link_ns(self, nbytes: int) -> int:
        """Time the shared device link is occupied moving ``nbytes``."""
        return int(round(nbytes / self.params.device_link_bytes_per_ns))
