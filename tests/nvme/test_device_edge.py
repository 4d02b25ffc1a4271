"""Device edge cases: queue deletion races, segmented I/O, stats."""

import pytest

from repro.hw.iommu import IOMMU
from repro.hw.pagetable import PAGE_SIZE, PageTable
from repro.hw.params import DEFAULT_PARAMS
from repro.nvme.device import NVMeDevice
from repro.nvme.spec import AddressKind, Command, Opcode, Status
from repro.sim.engine import Simulator

VBA = 0x5000_0000_0000


def make():
    sim = Simulator()
    iommu = IOMMU(DEFAULT_PARAMS)
    dev = NVMeDevice(sim, DEFAULT_PARAMS, iommu, devid=1,
                     capacity_bytes=1 << 30)
    return sim, iommu, dev


def test_queue_deleted_with_outstanding_commands_no_crash():
    """Deleting a queue completes its never-fetched commands with
    ABORTED_SQ_DELETION; commands already on a channel finish."""
    sim, _, dev = make()
    qp = dev.create_queue_pair(pasid=0)
    channels = DEFAULT_PARAMS.device_channels
    count = channels + 4
    events = [dev.submit(qp, Command(Opcode.READ, addr=i, nbytes=512))
              for i in range(count)]
    sim.run(until=1)  # each channel has taken one command off the SQ
    dev.delete_queue_pair(qp)
    sim.run()  # channels drain tokens; removed queue yields nothing
    assert dev.queue_count == 0
    assert all(ev.processed for ev in events)
    statuses = [ev.value.status for ev in events]
    assert statuses == ([Status.SUCCESS] * channels
                        + [Status.ABORTED_SQ_DELETION] * 4)
    assert not Status.ABORTED_SQ_DELETION.retryable
    assert all(ev.value.errno < 0 for ev in events[channels:])
    assert dev.commands_served == channels
    assert dev.commands_failed == 4
    assert qp.inflight == 0


def test_segmented_vba_read_across_fragments():
    """One VBA read over discontiguous device pages issues segmented
    media accesses and returns the stitched data."""
    sim, iommu, dev = make()
    pt = PageTable()
    iommu.bind_pasid(5, pt)
    pt.map_file_page(VBA, lba=100, devid=1)
    pt.map_file_page(VBA + PAGE_SIZE, lba=900, devid=1)
    qp = dev.create_queue_pair(pasid=5)
    dev.backend.write_blocks(100 * 8, 8, b"A" * 4096)
    dev.backend.write_blocks(900 * 8, 8, b"B" * 4096)

    def body():
        c = yield dev.submit(qp, Command(
            Opcode.READ, addr=VBA, nbytes=8192,
            addr_kind=AddressKind.VBA))
        return c

    c = sim.run_process(body())
    assert c.data == b"A" * 4096 + b"B" * 4096


def test_segmented_vba_write_lands_in_both_fragments():
    sim, iommu, dev = make()
    pt = PageTable()
    iommu.bind_pasid(5, pt)
    pt.map_file_page(VBA, lba=100, devid=1)
    pt.map_file_page(VBA + PAGE_SIZE, lba=900, devid=1)
    qp = dev.create_queue_pair(pasid=5)
    payload = b"1" * 4096 + b"2" * 4096

    def body():
        c = yield dev.submit(qp, Command(
            Opcode.WRITE, addr=VBA, nbytes=8192,
            addr_kind=AddressKind.VBA, data=payload))
        return c

    assert sim.run_process(body()).ok
    assert dev.backend.read_blocks(100 * 8, 8) == b"1" * 4096
    assert dev.backend.read_blocks(900 * 8, 8) == b"2" * 4096


def test_commands_served_counter():
    sim, _, dev = make()
    qp = dev.create_queue_pair(pasid=0)

    def body():
        for i in range(5):
            yield dev.submit(qp, Command(Opcode.READ, addr=0,
                                         nbytes=512))

    sim.run_process(body())
    assert dev.commands_served == 5
    assert qp.completed == 5
    assert qp.bytes_completed == 5 * 512


def test_concurrent_commands_use_channels():
    """8 concurrent reads on one queue finish in ~1 service time, not 8."""
    sim, _, dev = make()
    qp = dev.create_queue_pair(pasid=0)

    def body():
        t0 = sim.now
        events = [dev.submit(qp, Command(Opcode.READ, addr=0,
                                         nbytes=4096))
                  for _ in range(8)]
        yield sim.all_of(events)
        return sim.now - t0

    elapsed = sim.run_process(body())
    assert elapsed < 2.2 * DEFAULT_PARAMS.device_read_ns(4096)


def test_link_serialises_large_transfers():
    """Aggregate bandwidth is capped by the shared link."""
    sim, _, dev = make()
    qp = dev.create_queue_pair(pasid=0, depth=64)
    nbytes = 128 * 1024
    count = 16

    def body():
        t0 = sim.now
        events = [dev.submit(qp, Command(Opcode.READ, addr=0,
                                         nbytes=nbytes))
                  for _ in range(count)]
        yield sim.all_of(events)
        return sim.now - t0

    elapsed = sim.run_process(body())
    gbps = count * nbytes / elapsed
    assert gbps <= DEFAULT_PARAMS.device_link_bytes_per_ns * 1.05
    assert gbps > 0.6 * DEFAULT_PARAMS.device_link_bytes_per_ns


def test_link_fifo_completion_instants():
    """Completions follow a single-server FIFO schedule on the link.

    Staggered and same-instant LBA reads of mixed sizes.  At most eight
    commands are outstanding, so each takes a channel the instant it is
    submitted and reaches the link after fetch + media.  Link rates are
    set almost equal so rounding leaves the 512 B and 1 KiB reads with
    no controller tail (``link_ns >= transfer_ns``) while the larger
    reads keep one.
    """
    params = DEFAULT_PARAMS.replace(media_bytes_per_ns=4.3,
                                    device_link_bytes_per_ns=4.31)
    sim = Simulator()
    dev = NVMeDevice(sim, params, IOMMU(params), devid=1,
                     capacity_bytes=1 << 30)
    qp = dev.create_queue_pair(pasid=0, depth=64)
    # (submit instant, size): submit order breaks same-instant ties.
    plan = [(0, 128 * 1024), (0, 512), (0, 64 * 1024), (0, 4096),
            (5_000, 1024), (5_000, 32 * 1024), (40_000, 512),
            (70_000, 16 * 1024)]

    def link_ns(n):
        return int(round(n / params.device_link_bytes_per_ns))

    def transfer_ns(n):
        return int(round(n / params.media_bytes_per_ns))

    assert any(link_ns(n) >= transfer_ns(n) for _, n in plan)
    assert any(link_ns(n) < transfer_ns(n) for _, n in plan)

    expected = []
    free_at = 0
    for at, n in plan:
        start = max(at + params.command_fetch_ns + params.read_media_ns,
                    free_at)
        free_at = start + link_ns(n)
        tail = max(0, transfer_ns(n) - link_ns(n))
        expected.append(free_at + tail + params.completion_post_ns)

    done = {}

    def one(i, n):
        c = yield dev.submit(qp, Command(Opcode.READ, addr=0, nbytes=n))
        assert c.ok
        done[i] = sim.now

    def body():
        for i, (at, n) in enumerate(plan):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            sim.process(one(i, n))

    sim.run_process(body())
    assert [done[i] for i in range(len(plan))] == expected
