"""Physical memory frames, IOVA space and pinned DMA buffers.

The models only need the *bookkeeping* of memory management — frame
numbers, pinning, and IO-virtual addresses that the IOMMU can check —
not actual byte storage (file payloads live in the NVMe backend).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["PhysicalMemory", "DMABuffer", "OutOfMemoryError"]

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class OutOfMemoryError(Exception):
    """Raised when the frame allocator is exhausted."""


class DMABuffer:
    """A pinned, IOVA-addressable buffer owned by one process/thread."""

    def __init__(self, iova: int, size: int, frames: List[int], pasid: int,
                 pinned: bool = True) -> None:
        if size <= 0:
            raise ValueError("DMA buffer size must be positive")
        if iova % PAGE_SIZE:
            raise ValueError("DMA buffer IOVA must be page-aligned")
        self.iova = iova
        self.size = size
        self.frames = frames
        self.pasid = pasid
        self.pinned = pinned

    @property
    def pages(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE

    def contains(self, iova: int, nbytes: int) -> bool:
        return self.iova <= iova and iova + nbytes <= self.iova + self.size


class PhysicalMemory:
    """Frame allocator plus a registry of pinned DMA buffers.

    Frames are identified by frame number only.  The allocator is a
    simple bump-plus-freelist scheme — fragmentation is irrelevant to
    the experiments, the capacity accounting is not (file-table memory
    overheads, Section 6.3).
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < PAGE_SIZE:
            raise ValueError("memory capacity below one page")
        self.capacity_frames = capacity_bytes // PAGE_SIZE
        self._next_frame = 0
        self._free: List[int] = []
        self.allocated_frames = 0
        self._dma_buffers: Dict[int, DMABuffer] = {}
        self._next_iova = 1 << 40  # distinct from process VAs by convention

    # -- frames -------------------------------------------------------------

    def alloc_frame(self) -> int:
        if self._free:
            frame = self._free.pop()
        elif self._next_frame < self.capacity_frames:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemoryError(
                f"out of frames ({self.capacity_frames} total)"
            )
        self.allocated_frames += 1
        return frame

    def alloc_frames(self, count: int) -> List[int]:
        """``count`` frames in one step: the same frames, in the same
        order, as ``count`` calls of :meth:`alloc_frame`, and like them
        it raises :class:`OutOfMemoryError` once both the free list and
        the fresh range are used up, keeping the frames taken so far."""
        if count <= 0:
            return []
        free = self._free
        take = min(count, len(free))
        split = len(free) - take
        frames = free[split:]
        frames.reverse()
        del free[split:]
        start = self._next_frame
        fresh = min(count - take, self.capacity_frames - start)
        frames.extend(range(start, start + fresh))
        self._next_frame = start + fresh
        self.allocated_frames += take + fresh
        if take + fresh < count:
            raise OutOfMemoryError(
                f"out of frames ({self.capacity_frames} total)"
            )
        return frames

    def free_frame(self, frame: int) -> None:
        if frame < 0 or frame >= self._next_frame:
            raise ValueError(f"bogus frame number {frame}")
        self.allocated_frames -= 1
        self._free.append(frame)

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self.allocated_frames

    # -- DMA buffers ----------------------------------------------------------

    def alloc_dma_buffer(self, size: int, pasid: int) -> DMABuffer:
        """Allocate a pinned buffer and assign it a fresh IOVA range."""
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        frames = self.alloc_frames(pages)
        iova = self._next_iova
        self._next_iova += pages * PAGE_SIZE
        buf = DMABuffer(iova=iova, size=pages * PAGE_SIZE, frames=frames,
                        pasid=pasid)
        self._dma_buffers[iova] = buf
        return buf

    def free_dma_buffer(self, buf: DMABuffer) -> None:
        if buf.iova not in self._dma_buffers:
            raise ValueError("unknown DMA buffer")
        del self._dma_buffers[buf.iova]
        for frame in buf.frames:
            self.free_frame(frame)
        buf.pinned = False

    def find_dma_buffer(self, iova: int) -> Optional[DMABuffer]:
        """Locate the buffer covering ``iova`` (device-side validation)."""
        for buf in self._dma_buffers.values():
            if buf.iova <= iova < buf.iova + buf.size:
                return buf
        return None

    @property
    def dma_buffer_count(self) -> int:
        return len(self._dma_buffers)
