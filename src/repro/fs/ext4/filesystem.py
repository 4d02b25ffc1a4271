"""The ext4-like filesystem facade.

Responsibilities split exactly as in the paper's design (Section 3.2):
the *kernel* filesystem owns all metadata — namespace, extent maps,
allocation, journaling — while file *data* moves either through the
kernel block layer or directly from userspace via BypassD.  This class
therefore exposes:

- namespace operations (create/mkdir/unlink/lookup),
- block mapping (the inode's extent map, ``bmap``; the kernel turns
  byte ranges into device commands over it in
  :func:`repro.kernel.blockio.extent_runs`),
- allocating operations (append/fallocate/truncate) that journal
  metadata and zero newly allocated blocks before exposing them
  (the confidentiality rule of Section 5.3),
- sync points (``fsync``) that commit the journal and drain the
  allocator's deferred-reuse pool (the revocation race rule of
  Section 3.6),
- crash/recovery/fsck used by the consistency test-suite.

Methods that touch the device (journal commits, metadata reads,
zeroing) are generators driven inside a simulation process; pure
metadata lookups are plain calls.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Tuple

from ...hw.params import HardwareParams
from .allocator import BlockAllocator, NoSpaceError
from .directory import DirectoryTree, FileExists, FileNotFound, split_path
from .extents import Extent, ExtentStatusCache, ExtentTree
from .inode import FileType, Inode
from .journal import Journal, replay_into
from .superblock import FS_BLOCK_SIZE, Superblock

__all__ = ["Ext4Filesystem", "NullVolume", "FsError"]


class FsError(Exception):
    pass


class NullVolume:
    """A zero-latency volume for pure metadata unit tests."""

    block_size = FS_BLOCK_SIZE

    def read_blocks(self, block: int, count: int):
        return iter(())

    def write_blocks(self, block: int, count: int, data=None):
        return iter(())

    def zero_blocks(self, block: int, count: int):
        return iter(())

    def flush(self):
        return iter(())


class Ext4Filesystem:
    def __init__(self, superblock: Superblock, devid: int,
                 params: HardwareParams, volume=None):
        self.sb = superblock
        self.devid = devid
        self.params = params
        self.volume = volume if volume is not None else NullVolume()
        self.journal = Journal(superblock.journal_blocks)
        self.allocator = BlockAllocator(superblock.first_data_block,
                                        superblock.data_blocks)
        self._ino = itertools.count(2)  # 1 is the root
        self.inodes: Dict[int, Inode] = {}
        root = Inode(1, FileType.DIRECTORY, 0o755, uid=0, gid=0)
        self.inodes[1] = root
        self.tree = DirectoryTree(root, self.inodes)
        self.es_cache = ExtentStatusCache()
        self.now_fn = lambda: 0  # wired to sim clock at mount
        # Called with (inode, [(logical, phys, count)...]) whenever new
        # blocks are mapped; BypassD uses it to keep file tables fresh.
        self.extent_listener = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def mkfs(cls, capacity_bytes: int, devid: int,
             params: HardwareParams, volume=None) -> "Ext4Filesystem":
        total_blocks = capacity_bytes // FS_BLOCK_SIZE
        sb = Superblock(
            total_blocks=total_blocks,
            journal_blocks=max(64, min(2048, total_blocks // 32)),
            inode_count=max(1024, min(1 << 20, total_blocks // 4)),
        )
        return cls(sb, devid, params, volume=volume)

    def mount(self, volume, now_fn) -> None:
        self.volume = volume
        self.now_fn = now_fn
        self.sb.mounted = True
        self.sb.mount_count += 1

    # -- namespace -------------------------------------------------------------

    def create(self, path: str, mode: int = 0o644, uid: int = 0,
               gid: int = 0) -> Inode:
        parent, name = self.tree.resolve_parent(path)
        if not parent.is_dir:
            raise FsError(f"parent of {path!r} is not a directory")
        assert parent.children is not None
        if name in parent.children:
            raise FileExists(path)
        inode = Inode(next(self._ino), FileType.REGULAR, mode, uid, gid,
                      now_ns=self.now_fn())
        self.inodes[inode.ino] = inode
        self.tree.link(parent, name, inode)
        self.es_cache.mark_cached(inode.ino)  # fresh files have no extents
        self.journal.log("create", parent=parent.ino, name=name,
                         ino=inode.ino, mode=mode, uid=uid, gid=gid,
                         ftype="regular")
        return inode

    def mkdir(self, path: str, mode: int = 0o755, uid: int = 0,
              gid: int = 0) -> Inode:
        parent, name = self.tree.resolve_parent(path)
        inode = Inode(next(self._ino), FileType.DIRECTORY, mode, uid, gid,
                      now_ns=self.now_fn())
        self.inodes[inode.ino] = inode
        self.tree.link(parent, name, inode)
        self.journal.log("create", parent=parent.ino, name=name,
                         ino=inode.ino, mode=mode, uid=uid, gid=gid,
                         ftype="directory")
        return inode

    def lookup(self, path: str) -> Inode:
        return self.tree.resolve(path)

    def exists(self, path: str) -> bool:
        return self.tree.exists(path)

    def unlink(self, path: str) -> None:
        parent, name = self.tree.resolve_parent(path)
        inode = self.tree.unlink(parent, name)
        self.journal.log("unlink", parent=parent.ino, name=name)
        if not inode.is_dir and inode.attrs.nlink == 0:
            for phys, count in inode.extents.truncate(0):
                self.allocator.free(phys, count, deferred=True)
            inode.size = 0
            self.es_cache.evict(inode.ino)
            del self.inodes[inode.ino]
        elif inode.is_dir:
            del self.inodes[inode.ino]

    # -- block mapping ------------------------------------------------------

    def bmap(self, inode: Inode, file_block: int) -> Optional[Tuple[int, int]]:
        return inode.extents.lookup(file_block)

    def load_extents(self, inode: Inode) -> Generator:
        """Ensure the inode's extent map is memory-resident.

        A miss reads mapping metadata from the device — the difference
        between the paper's warm and cold fmap (Table 5).
        """
        if self.es_cache.is_cached(inode.ino):
            return
        # One metadata block read per ~340 on-disk extent entries,
        # minimum one (the inode's own extent block).
        nblocks = max(1, (len(inode.extents) + 339) // 340)
        meta_block = self.sb.inode_table_start + (inode.ino % 64)
        for i in range(nblocks):
            yield from self.volume.read_blocks(meta_block + i, 1)
        self.es_cache.mark_cached(inode.ino)

    # -- allocation ---------------------------------------------------------

    def allocate_blocks(self, inode: Inode, first_file_block: int,
                        count: int, zero: bool = True) -> Generator:
        """Map ``count`` new blocks from ``first_file_block``; journals
        the extension and zeroes the blocks before they become visible.
        """
        if count <= 0:
            raise ValueError("allocation count must be positive")
        goal = -1
        tail = inode.extents.lookup(inode.extents.last_logical - 1) \
            if len(inode.extents) else None
        if tail is not None:
            goal = tail[0] + tail[1]
        try:
            got = self.allocator.alloc(count, goal=goal)
        except NoSpaceError:
            raise
        logical = first_file_block
        new_extents = []
        for phys, length in got:
            ext = Extent(logical, phys, length)
            inode.extents.insert(ext)
            new_extents.append((logical, phys, length))
            logical += length
        self.journal.log("extend", ino=inode.ino, extents=new_extents)
        if self.extent_listener is not None:
            self.extent_listener(inode, new_extents)
        if zero:
            for _, phys, length in new_extents:
                yield from self.volume.zero_blocks(phys, length)
        inode.attrs.ctime_ns = self.now_fn()

    def fallocate(self, inode: Inode, offset: int, length: int) -> Generator:
        """Pre-allocate blocks covering [offset, offset+length)."""
        bs = self.sb.block_size
        first = offset // bs
        last = (offset + length - 1) // bs
        block = first
        while block <= last:
            mapping = inode.extents.lookup(block)
            if mapping is not None:
                block += mapping[1]
                continue
            # The unmapped run ends at the next mapped block (or last).
            nxt = inode.extents.next_mapped(block)
            run_end = last + 1 if nxt is None else min(nxt, last + 1)
            yield from self.allocate_blocks(inode, block, run_end - block)
            block = run_end
        if offset + length > inode.size:
            inode.size = offset + length
            self.journal.log("size", ino=inode.ino, size=inode.size)

    def truncate(self, inode: Inode, new_size: int) -> Generator:
        bs = self.sb.block_size
        keep_blocks = (new_size + bs - 1) // bs
        freed = inode.extents.truncate(keep_blocks)
        for phys, count in freed:
            self.allocator.free(phys, count, deferred=True)
        inode.size = new_size
        self.journal.log("truncate", ino=inode.ino,
                         blocks=keep_blocks, size=new_size)
        inode.attrs.ctime_ns = self.now_fn()
        return
        yield  # pragma: no cover - keeps this a generator

    def set_size(self, inode: Inode, size: int) -> None:
        inode.size = size
        self.journal.log("size", ino=inode.ino, size=size)

    def update_timestamps(self, inode: Inode, accessed: bool,
                          modified: bool) -> None:
        """Deferred timestamp update (close/fsync time, Section 4.4)."""
        now = self.now_fn()
        if accessed:
            inode.attrs.atime_ns = now
        if modified:
            inode.attrs.mtime_ns = now
            self.journal.log("times", ino=inode.ino, mtime=now)

    # -- sync points ---------------------------------------------------------

    def fsync(self, inode: Optional[Inode] = None) -> Generator:
        """Commit metadata and make deferred block frees reusable."""
        txn = self.journal.commit()
        if txn is not None:
            start = self.sb.journal_start
            yield from self.volume.write_blocks(start, txn.block_estimate)
            yield from self.volume.flush()
        self.allocator.drain_deferred()

    # -- integrity ------------------------------------------------------------

    def fsck(self) -> None:
        """Raise AssertionError on any metadata inconsistency."""
        self.allocator.check_invariants()
        reachable = set()
        for _path, inode in self.tree.walk():
            reachable.add(inode.ino)
            inode.extents.check_invariants()
            # Note: size may legitimately exceed the mapped blocks —
            # sparse files (ftruncate up, writes past holes) are legal.
            for phys, count in inode.extents.physical_runs():
                for b in (phys, phys + count - 1):
                    if not (self.sb.first_data_block <= b
                            < self.sb.total_blocks):
                        raise AssertionError(
                            f"inode {inode.ino}: block {b} out of range"
                        )
        # Cross-inode overlap: collect all runs and sort.
        runs: List[Tuple[int, int, int]] = []
        for ino, inode in self.inodes.items():
            if inode.is_dir:
                continue
            for phys, count in inode.extents.physical_runs():
                runs.append((phys, count, ino))
        runs.sort()
        for (a_start, a_len, a_ino), (b_start, b_len, b_ino) in zip(
                runs, runs[1:]):
            if b_start < a_start + a_len:
                raise AssertionError(
                    f"block overlap: inode {a_ino} and {b_ino} share "
                    f"block {b_start}"
                )
        mapped = sum(count for _, count, _ in runs)
        if mapped != self.allocator.allocated:
            raise AssertionError(
                f"allocator claims {self.allocator.allocated} blocks, "
                f"inodes map {mapped}"
            )
        for ino in self.inodes:
            if ino not in reachable:
                raise AssertionError(f"orphan inode {ino}")

    # -- crash / recovery ---------------------------------------------------

    def crash_image(self) -> List:
        """What survives a crash: the committed journal records."""
        self.journal.drop_running()
        return self.journal.durable_records()

    @classmethod
    def recover(cls, records: List, capacity_bytes: int, devid: int,
                params: HardwareParams,
                crash_after_records: Optional[int] = None
                ) -> "Ext4Filesystem":
        """Rebuild a filesystem by replaying a journal image.

        The replay targets a *fresh* mkfs image, so an interruption
        (``crash_after_records``, a second power failure mid recovery)
        discards only the half-built instance — the journal image stays
        intact and recovery can be retried from scratch.
        """
        fs = cls.mkfs(capacity_bytes, devid, params)
        max_ino = replay_into(fs, records,
                              crash_after_records=crash_after_records)
        fs._ino = itertools.count(max_ino + 1)
        return fs
