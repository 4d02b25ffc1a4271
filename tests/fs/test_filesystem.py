"""Unit tests for the ext4-like filesystem facade."""

import pytest

from repro.fs.ext4.directory import FileExists, FileNotFound
from repro.fs.ext4.filesystem import Ext4Filesystem
from repro.hw.params import DEFAULT_PARAMS
from repro.kernel.blockio import extent_runs

CAP = 256 << 20


def mkfs():
    return Ext4Filesystem.mkfs(CAP, devid=1, params=DEFAULT_PARAMS)


def drive(gen):
    """Drain a zero-cost generator (NullVolume)."""
    for _ in gen:
        raise AssertionError("NullVolume should not yield events")


class TestNamespace:
    def test_create_lookup(self):
        fs = mkfs()
        inode = fs.create("/a", mode=0o640, uid=7, gid=8)
        assert fs.lookup("/a") is inode
        assert inode.attrs.mode == 0o640
        assert inode.attrs.uid == 7

    def test_nested_dirs(self):
        fs = mkfs()
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        f = fs.create("/d/e/file")
        assert fs.lookup("/d/e/file") is f
        assert fs.tree.listdir("/d") == ["e"]

    def test_duplicate_create_rejected(self):
        fs = mkfs()
        fs.create("/a")
        with pytest.raises(FileExists):
            fs.create("/a")

    def test_lookup_missing(self):
        fs = mkfs()
        with pytest.raises(FileNotFound):
            fs.lookup("/nope")

    def test_unlink_removes(self):
        fs = mkfs()
        fs.create("/a")
        fs.unlink("/a")
        assert not fs.exists("/a")

    def test_unlink_frees_blocks_deferred(self):
        fs = mkfs()
        inode = fs.create("/a")
        drive(fs.allocate_blocks(inode, 0, 10))
        allocated = fs.allocator.allocated
        fs.unlink("/a")
        assert fs.allocator.allocated == allocated - 10
        assert fs.allocator.deferred_blocks == 10

    def test_relative_path_rejected(self):
        fs = mkfs()
        with pytest.raises(Exception):
            fs.create("a")


class TestAllocation:
    def test_allocate_maps_blocks(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 8))
        assert inode.mapped_blocks == 8
        assert fs.bmap(inode, 0) is not None
        assert fs.bmap(inode, 7) is not None
        assert fs.bmap(inode, 8) is None

    def test_allocations_grow_contiguously(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 4))
        drive(fs.allocate_blocks(inode, 4, 4))
        # One merged extent: tail-growth uses the goal block.
        assert len(inode.extents) == 1

    def test_map_range(self):
        # The kernel's direct-I/O mapper: one command per extent run,
        # sector-addressed, starting mid-block when the range does.
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 4))
        lba = fs.bmap(inode, 0)[0] * 8
        assert extent_runs(inode, 0, 4 * 4096) == [(lba, 4 * 4096)]
        assert extent_runs(inode, 1024, 4096) == [(lba + 2, 4096)]

    def test_map_range_marks_holes(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 2))
        drive(fs.allocate_blocks(inode, 3, 1))
        first = fs.bmap(inode, 0)[0] * 8
        last = fs.bmap(inode, 3)[0] * 8
        assert extent_runs(inode, 0, 5 * 4096) == [
            (first, 2 * 4096), (None, 4096), (last, 4096), (None, 4096)]

    def test_fallocate_sets_size(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.fallocate(inode, 0, 1 << 20))
        assert inode.size == 1 << 20
        assert inode.mapped_blocks == 256

    def test_fallocate_idempotent_over_mapped(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.fallocate(inode, 0, 8 * 4096))
        before = fs.allocator.allocated
        drive(fs.fallocate(inode, 0, 8 * 4096))
        assert fs.allocator.allocated == before

    def test_truncate_shrinks(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.fallocate(inode, 0, 16 * 4096))
        drive(fs.truncate(inode, 4 * 4096))
        assert inode.size == 4 * 4096
        assert inode.mapped_blocks == 4
        assert fs.allocator.deferred_blocks == 12


class TestFsck:
    def test_clean_fs_passes(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 8))
        fs.fsck()

    def test_detects_shared_blocks(self):
        fs = mkfs()
        a = fs.create("/a")
        b = fs.create("/b")
        drive(fs.allocate_blocks(a, 0, 4))
        # Corrupt: graft a's blocks into b.
        from repro.fs.ext4.extents import Extent
        phys = a.extents.physical_runs()[0][0]
        b.extents.insert(Extent(0, phys, 2))
        with pytest.raises(AssertionError, match="overlap|allocator"):
            fs.fsck()

    def test_sparse_size_is_legal(self):
        fs = mkfs()
        inode = fs.create("/f")
        inode.attrs.size = 4096  # hole-backed size: fine
        fs.fsck()

    def test_detects_accounting_mismatch(self):
        fs = mkfs()
        inode = fs.create("/f")
        drive(fs.allocate_blocks(inode, 0, 4))
        fs.allocator.allocated += 1
        with pytest.raises(AssertionError):
            fs.fsck()


class TestTimestamps:
    def test_deferred_timestamp_update(self):
        fs = mkfs()
        clock = [1000]
        fs.now_fn = lambda: clock[0]
        inode = fs.create("/f")
        clock[0] = 5000
        fs.update_timestamps(inode, accessed=True, modified=True)
        assert inode.attrs.atime_ns == 5000
        assert inode.attrs.mtime_ns == 5000
