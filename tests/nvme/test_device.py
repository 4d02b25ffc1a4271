"""Unit tests for the NVMe device model."""

import pytest

from repro.hw.iommu import IOMMU, AtsResult
from repro.hw.pagetable import PAGE_SIZE, PageTable
from repro.hw.params import DEFAULT_PARAMS
from repro.nvme.device import DeviceBusyError, NVMeDevice
from repro.nvme.spec import AddressKind, Command, Opcode, Status
from repro.sim.engine import Simulator

VBA = 0x5000_0000_0000


def make_device(capture=True, capacity=1 << 30):
    sim = Simulator()
    iommu = IOMMU(DEFAULT_PARAMS)
    dev = NVMeDevice(sim, DEFAULT_PARAMS, iommu, devid=1,
                     capacity_bytes=capacity, capture_data=capture)
    return sim, iommu, dev


def do(sim, gen):
    return sim.run_process(gen)


class TestLBAPath:
    def test_read_latency_matches_table1(self):
        sim, _, dev = make_device(capture=False)
        qp = dev.create_queue_pair(pasid=0)

        def body():
            t0 = sim.now
            c = yield dev.submit(qp, Command(Opcode.READ, addr=0,
                                             nbytes=4096))
            return c, sim.now - t0

        completion, elapsed = do(sim, body())
        assert completion.ok
        assert abs(elapsed - 4020) <= 10  # Table 1 device time

    def test_write_read_roundtrip(self):
        sim, _, dev = make_device()
        qp = dev.create_queue_pair(pasid=0)
        payload = bytes(range(256)) * 16

        def body():
            yield dev.submit(qp, Command(Opcode.WRITE, addr=16,
                                         nbytes=4096, data=payload))
            c = yield dev.submit(qp, Command(Opcode.READ, addr=16,
                                             nbytes=4096))
            return c

        completion = do(sim, body())
        assert completion.data == payload

    def test_unwritten_blocks_read_zero(self):
        sim, _, dev = make_device()
        qp = dev.create_queue_pair(pasid=0)

        def body():
            c = yield dev.submit(qp, Command(Opcode.READ, addr=1024,
                                             nbytes=512))
            return c

        assert do(sim, body()).data == bytes(512)

    def test_out_of_range_errors(self):
        sim, _, dev = make_device(capacity=1 << 20)
        qp = dev.create_queue_pair(pasid=0)

        def body():
            c = yield dev.submit(qp, Command(Opcode.READ,
                                             addr=(1 << 20) // 512,
                                             nbytes=512))
            return c

        assert do(sim, body()).status is Status.LBA_OUT_OF_RANGE

    def test_flush(self):
        sim, _, dev = make_device()
        qp = dev.create_queue_pair(pasid=0)

        def body():
            t0 = sim.now
            c = yield dev.submit(qp, Command(Opcode.FLUSH, addr=0,
                                             nbytes=0))
            return c, sim.now - t0

        completion, elapsed = do(sim, body())
        assert completion.ok
        assert elapsed >= DEFAULT_PARAMS.flush_ns

    def test_larger_read_takes_longer(self):
        def read_time(nbytes):
            sim, _, dev = make_device(capture=False)
            qp = dev.create_queue_pair(pasid=0)

            def body():
                t0 = sim.now
                yield dev.submit(qp, Command(Opcode.READ, addr=0,
                                             nbytes=nbytes))
                return sim.now - t0

            return do(sim, body())

        assert read_time(128 * 1024) > read_time(4096) * 4


class TestVBAPath:
    def _setup(self, pages=4, writable=True):
        sim, iommu, dev = make_device(capture=False)
        pt = PageTable()
        iommu.bind_pasid(9, pt)
        for i in range(pages):
            pt.map_file_page(VBA + i * PAGE_SIZE, lba=100 + i, devid=1,
                             writable=writable)
        qp = dev.create_queue_pair(pasid=9)
        return sim, dev, qp, pt

    def test_vba_read_adds_translation_latency(self):
        sim, dev, qp, _ = self._setup()

        def body():
            t0 = sim.now
            c = yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA, nbytes=4096,
                addr_kind=AddressKind.VBA))
            return c, sim.now - t0

        completion, elapsed = do(sim, body())
        assert completion.ok
        assert abs(elapsed - (4013 + 550)) <= 10

    def test_vba_write_hides_translation(self):
        """Section 4.3: write translation overlaps the data transfer."""
        sim, dev, qp, _ = self._setup()

        def body():
            t0 = sim.now
            yield dev.submit(qp, Command(
                Opcode.WRITE, addr=VBA, nbytes=4096,
                addr_kind=AddressKind.VBA))
            return sim.now - t0

        vba_elapsed = do(sim, body())

        sim2, _, dev2 = make_device(capture=False)
        qp2 = dev2.create_queue_pair(pasid=0)

        def body2():
            t0 = sim2.now
            yield dev2.submit(qp2, Command(Opcode.WRITE, addr=0,
                                           nbytes=4096))
            return sim2.now - t0

        lba_elapsed = do(sim2, body2())
        assert vba_elapsed == lba_elapsed  # no visible VBA overhead

    def test_unmapped_vba_translation_fault(self):
        sim, dev, qp, _ = self._setup(pages=1)

        def body():
            c = yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA + 64 * PAGE_SIZE, nbytes=4096,
                addr_kind=AddressKind.VBA))
            return c

        completion = do(sim, body())
        assert completion.status is Status.TRANSLATION_FAULT
        assert dev.translation_faults == 1

    def test_write_to_readonly_mapping_fault(self):
        sim, dev, qp, _ = self._setup(writable=False)

        def body():
            c = yield dev.submit(qp, Command(
                Opcode.WRITE, addr=VBA, nbytes=4096,
                addr_kind=AddressKind.VBA))
            return c

        assert do(sim, body()).status is Status.TRANSLATION_FAULT

    def test_unaligned_vba_rejected(self):
        sim, dev, qp, _ = self._setup()

        def body():
            c = yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA + 17, nbytes=512,
                addr_kind=AddressKind.VBA))
            return c

        assert do(sim, body()).status is Status.INVALID_FIELD

    def test_subpage_vba_read(self):
        sim, iommu, dev = make_device(capture=True)
        pt = PageTable()
        iommu.bind_pasid(9, pt)
        pt.map_file_page(VBA, lba=100, devid=1)
        qp = dev.create_queue_pair(pasid=9)
        sector = bytes([7] * 512)

        def body():
            # Write sector 3 of the page via LBA, read back via VBA.
            yield dev.submit(qp, Command(Opcode.WRITE, addr=100 * 8 + 3,
                                         nbytes=512, data=sector))
            c = yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA + 3 * 512, nbytes=512,
                addr_kind=AddressKind.VBA))
            return c

        assert do(sim, body()).data == sector


class TestVBASegments:
    """A one-pair ATS reply (a read inside one extent) builds its LBA
    segment directly; it must equal what ``_segments`` builds."""

    PAGES = 3   # one extent: device pages 100..102

    def _device(self, capacity=1 << 30, capture=False):
        sim, iommu, dev = make_device(capture=capture, capacity=capacity)
        pt = PageTable()
        iommu.bind_pasid(9, pt)
        for i in range(self.PAGES):
            pt.map_file_page(VBA + i * PAGE_SIZE, lba=100 + i, devid=1)
        return sim, iommu, dev, dev.create_queue_pair(pasid=9)

    @pytest.mark.parametrize("opcode", [Opcode.READ, Opcode.WRITE])
    def test_one_pair_segment_matches_segments_at_every_offset(self,
                                                               opcode):
        sim, iommu, dev, qp = self._device()
        seen = []
        backend = dev.backend
        real = (backend.read_blocks if opcode is Opcode.READ
                else backend.write_blocks)

        def spy(lba, nblocks, *rest):
            seen.append((lba, nblocks))
            return real(lba, nblocks, *rest)

        if opcode is Opcode.READ:
            backend.read_blocks = spy
        else:
            backend.write_blocks = spy
        expected = []
        blocks = self.PAGES * PAGE_SIZE // 512
        for head in range(PAGE_SIZE // 512):
            for nblocks in range(1, blocks - head + 1):
                vba, nbytes = VBA + head * 512, nblocks * 512
                pairs = iommu.translate_vba(9, vba, nbytes, write=False,
                                            requester_devid=1).pairs
                assert len(pairs) == 1
                expected.extend(dev._segments(pairs, vba, nbytes))

                def body(vba=vba, nbytes=nbytes):
                    c = yield dev.submit(qp, Command(
                        opcode, addr=vba, nbytes=nbytes,
                        addr_kind=AddressKind.VBA))
                    return c

                assert do(sim, body()).ok
        assert seen == expected
        assert seen[0] == (800, 1) and seen[-1] == (807, blocks - 7)

    def test_short_translation_still_raises(self):
        sim, iommu, dev, qp = self._device()
        iommu.translate_vba = lambda *a, **k: AtsResult([(100, 1)], 550)

        def body():
            yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA + 512, nbytes=PAGE_SIZE,
                addr_kind=AddressKind.VBA))

        with pytest.raises(ValueError,
                           match="translation pairs shorter than request"):
            do(sim, body())

    @pytest.mark.parametrize("lba,nbytes,reason", [
        (255, 2 * PAGE_SIZE, "lba 2040 x16"),
        (256, 512, "lba 2048 x1"),
    ])
    def test_segment_past_capacity_completes_out_of_range(
            self, lba, nbytes, reason):
        sim, iommu, dev = make_device(capacity=1 << 20)  # 256 pages
        pt = PageTable()
        iommu.bind_pasid(9, pt)
        for i in range(2):
            pt.map_file_page(VBA + i * PAGE_SIZE, lba=lba + i, devid=1)
        qp = dev.create_queue_pair(pasid=9)

        def body():
            c = yield dev.submit(qp, Command(
                Opcode.READ, addr=VBA, nbytes=nbytes,
                addr_kind=AddressKind.VBA))
            return c

        completion = do(sim, body())
        assert completion.status is Status.LBA_OUT_OF_RANGE
        assert completion.fault_reason == reason
        assert dev.backend.reads == 0


class TestExclusiveClaim:
    def test_claim_blocks_other_queues(self):
        _, _, dev = make_device()
        dev.claim_exclusive("spdk-app")
        with pytest.raises(DeviceBusyError):
            dev.create_queue_pair(pasid=0)
        # The owner itself can create queues.
        dev.create_queue_pair(pasid=0, owner="spdk-app")

    def test_claim_fails_with_existing_queues(self):
        _, _, dev = make_device()
        dev.create_queue_pair(pasid=0)
        with pytest.raises(DeviceBusyError):
            dev.claim_exclusive("spdk-app")

    def test_release(self):
        _, _, dev = make_device()
        dev.claim_exclusive("a")
        with pytest.raises(DeviceBusyError):
            dev.release_exclusive("b")
        dev.release_exclusive("a")
        dev.create_queue_pair(pasid=0)


class TestQueueManagement:
    def test_delete_queue(self):
        _, _, dev = make_device()
        qp = dev.create_queue_pair(pasid=0)
        assert dev.queue_count == 1
        dev.delete_queue_pair(qp)
        assert dev.queue_count == 0
        with pytest.raises(ValueError):
            dev.delete_queue_pair(qp)

    def test_many_queues_roundrobin_served(self):
        sim, _, dev = make_device(capture=False)
        qps = [dev.create_queue_pair(pasid=0) for _ in range(4)]

        def body():
            events = []
            for qp in qps:
                for _ in range(8):
                    events.append(dev.submit(qp, Command(
                        Opcode.READ, addr=0, nbytes=4096)))
            yield sim.all_of(events)

        do(sim, body())
        assert all(qp.completed == 8 for qp in qps)
