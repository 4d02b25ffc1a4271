"""Unit tests for queue pairs, arbitration and the media backend."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.params import DEFAULT_PARAMS
from repro.nvme.backend import MediaBackend
from repro.nvme.queues import QueueFullError, QueuePair
from repro.nvme.scheduler import RoundRobinArbiter, WeightedArbiter
from repro.nvme.spec import Command, Completion, Opcode, Status
from repro.sim.engine import Simulator


def mkcmd(addr=0):
    return Command(Opcode.READ, addr=addr, nbytes=512)


class TestQueuePair:
    def test_submit_and_complete(self):
        sim = Simulator()
        qp = QueuePair(sim, qid=1, pasid=5)
        cmd = mkcmd()
        ev = qp.submit(cmd)
        assert qp.sq_len == 1
        assert qp.inflight == 1
        fetched = qp.fetch()
        assert fetched is cmd
        qp.post_completion(Completion(cid=cmd.cid,
                                      status=Status.SUCCESS), nbytes=512)
        sim.run()
        assert ev.triggered
        assert ev.value.ok
        assert qp.completed == 1
        assert qp.bytes_completed == 512

    def test_depth_enforced(self):
        sim = Simulator()
        qp = QueuePair(sim, qid=1, pasid=0, depth=2)
        qp.submit(mkcmd())
        qp.submit(mkcmd())
        with pytest.raises(QueueFullError):
            qp.submit(mkcmd())

    def test_shutdown_rejects_submissions(self):
        sim = Simulator()
        qp = QueuePair(sim, qid=1, pasid=0)
        qp.shutdown()
        with pytest.raises(QueueFullError):
            qp.submit(mkcmd())

    def test_pop_completion(self):
        sim = Simulator()
        qp = QueuePair(sim, qid=1, pasid=0)
        assert qp.pop_completion() is None
        cmd = mkcmd()
        qp.submit(cmd)
        qp.fetch()
        qp.post_completion(Completion(cid=cmd.cid, status=Status.SUCCESS))
        assert qp.pop_completion().cid == cmd.cid

    def test_cq_ring_is_bounded_by_depth(self):
        sim = Simulator()
        depth, extra = 4, 3
        qp = QueuePair(sim, qid=1, pasid=0, depth=depth)
        cids = []
        for _ in range(depth + extra):
            cmd = mkcmd()
            qp.submit(cmd)
            qp.fetch()
            qp.post_completion(Completion(cid=cmd.cid,
                                          status=Status.SUCCESS))
            cids.append(cmd.cid)
        assert qp.completed == depth + extra
        assert len(qp.cq) == depth
        # the oldest entries were overwritten; the newest `depth` remain
        popped = [qp.pop_completion().cid for _ in range(depth)]
        assert popped == cids[extra:]
        assert qp.pop_completion() is None


class TestRoundRobin:
    def _queues(self, sim, n):
        return [QueuePair(sim, qid=i + 1, pasid=0) for i in range(n)]

    def test_cycles_through_queues(self):
        sim = Simulator()
        arb = RoundRobinArbiter()
        qps = self._queues(sim, 3)
        for qp in qps:
            arb.add_queue(qp)
            for i in range(2):
                qp.submit(mkcmd(addr=qp.qid * 100 + i))
        order = []
        while True:
            picked = arb.select()
            if picked is None:
                break
            order.append(picked[0].qid)
        assert order == [1, 2, 3, 1, 2, 3]

    def test_skips_empty_queues(self):
        sim = Simulator()
        arb = RoundRobinArbiter()
        qps = self._queues(sim, 3)
        for qp in qps:
            arb.add_queue(qp)
        qps[1].submit(mkcmd())
        qp, _ = arb.select()
        assert qp.qid == 2
        assert arb.select() is None

    def test_remove_queue(self):
        sim = Simulator()
        arb = RoundRobinArbiter()
        qps = self._queues(sim, 2)
        for qp in qps:
            arb.add_queue(qp)
        arb.remove_queue(qps[0])
        assert arb.queue_count == 1
        qps[1].submit(mkcmd())
        assert arb.select()[0].qid == 2

    def test_fairness_under_asymmetric_load(self):
        """A queue with many requests cannot starve a queue with few:
        service alternates (the Figure 11 mechanism)."""
        sim = Simulator()
        arb = RoundRobinArbiter()
        hog, light = self._queues(sim, 2)
        arb.add_queue(hog)
        arb.add_queue(light)
        for i in range(10):
            hog.submit(mkcmd(addr=i))
        light.submit(mkcmd(addr=999))
        light.submit(mkcmd(addr=998))
        order = [arb.select()[0].qid for _ in range(4)]
        assert order == [1, 2, 1, 2]


class TestWeightedArbiter:
    def test_weight_ratio(self):
        sim = Simulator()
        arb = WeightedArbiter()
        a = QueuePair(sim, qid=1, pasid=0)
        b = QueuePair(sim, qid=2, pasid=0)
        arb.add_queue(a, weight=3)
        arb.add_queue(b, weight=1)
        for i in range(12):
            a.submit(mkcmd(addr=i))
            b.submit(mkcmd(addr=100 + i))
        served = {1: 0, 2: 0}
        for _ in range(8):
            qp, _ = arb.select()
            served[qp.qid] += 1
        assert served[1] == 3 * served[2]

    def test_bad_weight(self):
        arb = WeightedArbiter()
        sim = Simulator()
        with pytest.raises(ValueError):
            arb.add_queue(QueuePair(sim, 1, 0), weight=0)


class TestMediaBackend:
    def test_lazy_zero_reads(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        assert b.read_blocks(100, 2) == bytes(1024)
        assert b.materialized_blocks == 0

    def test_write_then_read(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        data = bytes([5]) * 1024
        b.write_blocks(10, 2, data)
        assert b.read_blocks(10, 2) == data
        assert b.materialized_blocks == 2

    def test_zero_write_dematerializes(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        b.write_blocks(5, 1, bytes([1]) * 512)
        b.write_blocks(5, 1, bytes(512))
        assert b.materialized_blocks == 0

    def test_zero_blocks(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        b.write_blocks(5, 1, bytes([1]) * 512)
        b.zero_blocks(5, 1)
        assert b.read_blocks(5, 1) == bytes(512)

    def test_capture_disabled(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20, capture_data=False)
        b.write_blocks(0, 1, bytes([9]) * 512)
        assert b.read_blocks(0, 1) is None
        assert b.materialized_blocks == 0

    def test_range_checks(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        with pytest.raises(ValueError):
            b.read_blocks(10**9, 1)
        with pytest.raises(ValueError):
            b.write_blocks(-1, 1, bytes(512))

    def test_payload_length_validated(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        with pytest.raises(ValueError):
            b.write_blocks(0, 2, bytes(512))

    def test_timing_monotone_in_size(self):
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        assert b.transfer_ns(4096) < b.transfer_ns(131072)
        assert b.link_ns(4096) <= b.transfer_ns(4096)

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=63),
        st.binary(min_size=512, max_size=512)), max_size=30))
    def test_backend_behaves_like_dict(self, writes):
        """Property: backend reads always reflect the last write."""
        b = MediaBackend(DEFAULT_PARAMS, 1 << 20)
        model = {}
        for lba, data in writes:
            b.write_blocks(lba, 1, data)
            model[lba] = data
        for lba, data in model.items():
            assert b.read_blocks(lba, 1) == data
