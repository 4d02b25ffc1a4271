"""Unit tests for physical memory, DMA buffers and the parameter block."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.memory import DMABuffer, OutOfMemoryError, PhysicalMemory
from repro.hw.params import DEFAULT_PARAMS, HardwareParams
from repro.hw.pcie import PCIeLink


class TestPhysicalMemory:
    def test_alloc_free_frames(self):
        mem = PhysicalMemory(1 << 20)  # 256 frames
        f1 = mem.alloc_frame()
        f2 = mem.alloc_frame()
        assert f1 != f2
        assert mem.allocated_frames == 2
        mem.free_frame(f1)
        assert mem.allocated_frames == 1
        assert mem.free_frames == 255

    def test_frames_recycled(self):
        mem = PhysicalMemory(1 << 20)
        f = mem.alloc_frame()
        mem.free_frame(f)
        assert mem.alloc_frame() == f

    def test_exhaustion(self):
        mem = PhysicalMemory(4096 * 4)
        mem.alloc_frames(4)
        with pytest.raises(OutOfMemoryError):
            mem.alloc_frame()

    @staticmethod
    def _state(mem):
        return (mem._next_frame, list(mem._free), mem.allocated_frames,
                mem.free_frames)

    def _batch_matches_loop(self, capacity, used, freed, count):
        """``alloc_frames(count)`` against ``count`` ``alloc_frame``
        calls on two allocators with the same history (``used`` frames
        handed out, then ``freed`` given back): the same frames in the
        same order, the same error, the same state afterwards."""
        def outcome(alloc):
            mem = PhysicalMemory(capacity * 4096)
            for _ in range(used):
                mem.alloc_frame()
            for frame in freed:
                mem.free_frame(frame)
            try:
                return alloc(mem), self._state(mem)
            except OutOfMemoryError as exc:
                return ("OutOfMemoryError", str(exc)), self._state(mem)

        def loop(mem):
            frames = []
            for _ in range(count):
                frames.append(mem.alloc_frame())
            return frames

        assert outcome(lambda mem: mem.alloc_frames(count)) == outcome(loop)

    def test_alloc_frames_matches_per_frame_loop(self):
        cases = [
            # capacity, used, freed, count
            (16, 8, [], 0),               # nothing asked for
            (16, 8, [3, 7, 1], 2),        # only from the free list
            (16, 8, [3, 7, 1], 3),        # exactly the free list
            (16, 8, [3, 7, 1], 5),        # free list, then fresh frames
            (16, 0, [], 16),              # every fresh frame
            (16, 8, [], 8),               # the rest of the fresh range
            (4, 4, [2, 0], 2),            # partly free, fresh range spent
            (4, 4, [2, 0], 3),            # out of frames after the list
            (4, 3, [1], 3),               # out after list and fresh range
            (4, 0, [], 5),                # out of frames, none free
        ]
        for capacity, used, freed, count in cases:
            self._batch_matches_loop(capacity, used, freed, count)

    @given(capacity=st.integers(1, 64), data=st.data())
    def test_alloc_frames_matches_loop_property(self, capacity, data):
        used = data.draw(st.integers(0, capacity))
        freed = data.draw(st.lists(st.integers(0, max(used - 1, 0)),
                                   unique=True)) if used else []
        count = data.draw(st.integers(0, capacity + 4))
        self._batch_matches_loop(capacity, used, freed, count)

    def test_bogus_free_rejected(self):
        mem = PhysicalMemory(1 << 20)
        with pytest.raises(ValueError):
            mem.free_frame(12345)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)


class TestDMABuffers:
    def test_alloc_assigns_unique_iovas(self):
        mem = PhysicalMemory(1 << 22)
        a = mem.alloc_dma_buffer(8192, pasid=1)
        b = mem.alloc_dma_buffer(8192, pasid=2)
        assert a.iova != b.iova
        assert a.pages == 2
        assert mem.dma_buffer_count == 2

    def test_size_rounded_to_pages(self):
        mem = PhysicalMemory(1 << 22)
        buf = mem.alloc_dma_buffer(100, pasid=1)
        assert buf.size == 4096

    def test_contains(self):
        mem = PhysicalMemory(1 << 22)
        buf = mem.alloc_dma_buffer(8192, pasid=1)
        assert buf.contains(buf.iova, 8192)
        assert buf.contains(buf.iova + 4096, 4096)
        assert not buf.contains(buf.iova + 4096, 8192)

    def test_find_by_iova(self):
        mem = PhysicalMemory(1 << 22)
        buf = mem.alloc_dma_buffer(8192, pasid=1)
        assert mem.find_dma_buffer(buf.iova + 5000) is buf
        assert mem.find_dma_buffer(buf.iova - 1) is None

    def test_free_releases_frames(self):
        mem = PhysicalMemory(1 << 22)
        before = mem.allocated_frames
        buf = mem.alloc_dma_buffer(16384, pasid=1)
        mem.free_dma_buffer(buf)
        assert mem.allocated_frames == before
        assert not buf.pinned
        with pytest.raises(ValueError):
            mem.free_dma_buffer(buf)

    def test_unaligned_iova_rejected(self):
        with pytest.raises(ValueError):
            DMABuffer(iova=100, size=4096, frames=[0], pasid=1)


class TestHardwareParams:
    def test_table1_total(self):
        """The kernel stack constants must sum to Table 1's software
        overhead: 7850 - 4020 = 3830 ns."""
        p = DEFAULT_PARAMS
        assert p.kernel_read_stack_ns() == 3830

    def test_device_4k_read_near_table1(self):
        assert abs(DEFAULT_PARAMS.device_read_ns(4096) - 4020) <= 10

    def test_vba_translation_minimum_550(self):
        p = DEFAULT_PARAMS
        assert (p.pcie_round_trip_ns + p.ats_processing_ns
                + p.full_pagewalk_ns()) == 550

    def test_frozen(self):
        # AttributeError is also the base of dataclasses'
        # FrozenInstanceError, which the class used to raise.
        with pytest.raises(AttributeError):
            DEFAULT_PARAMS.cpu_cores = 1
        with pytest.raises(AttributeError):
            del DEFAULT_PARAMS.cpu_cores
        assert DEFAULT_PARAMS.cpu_cores == 24

    def test_replace_creates_variant(self):
        p = DEFAULT_PARAMS.replace(pcie_round_trip_ns=145)
        assert p.pcie_round_trip_ns == 145
        assert DEFAULT_PARAMS.pcie_round_trip_ns == 345

    def test_replace_rejects_unknown_names(self):
        before = dict(vars(DEFAULT_PARAMS))
        with pytest.raises(TypeError):
            DEFAULT_PARAMS.replace(pcie_round_trip=145)
        assert vars(DEFAULT_PARAMS) == before

    def test_replace_leaves_the_default_unchanged(self):
        before = dict(vars(DEFAULT_PARAMS))
        p = DEFAULT_PARAMS.replace(cpu_cores=2, iotlb_entries=8)
        assert (p.cpu_cores, p.iotlb_entries) == (2, 8)
        assert vars(DEFAULT_PARAMS) == before
        assert HardwareParams().cpu_cores == 24

    def test_constructor_keeps_order_and_defaults(self):
        p = HardwareParams(4, 20.0, user_to_kernel_ns=1)
        assert (p.cpu_cores, p.memcpy_bytes_per_ns,
                p.user_to_kernel_ns) == (4, 20.0, 1)
        assert p.kernel_to_user_ns == DEFAULT_PARAMS.kernel_to_user_ns
        with pytest.raises(TypeError):
            HardwareParams(4, cpu_cores=5)
        with pytest.raises(TypeError):
            HardwareParams(no_such_constant=1)

    @given(st.integers(min_value=0, max_value=1 << 24))
    def test_memcpy_monotone(self, nbytes):
        assert DEFAULT_PARAMS.memcpy_ns(nbytes) <= \
            DEFAULT_PARAMS.memcpy_ns(nbytes + 4096)

    def test_negative_copy_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.memcpy_ns(-1)


class TestPCIeLink:
    def test_round_trip_counts(self):
        link = PCIeLink(DEFAULT_PARAMS)
        assert link.round_trip() == 345
        assert link.round_trips == 1
        assert link.doorbell_ns() == DEFAULT_PARAMS.doorbell_ns
        assert link.posted_writes == 1

    def test_one_way_is_half(self):
        link = PCIeLink(DEFAULT_PARAMS)
        assert link.one_way_ns == 172
