"""Filesystem geometry and the superblock.

The layout mirrors a small ext4: a superblock, a journal area, an inode
table region, then data blocks.  Filesystem blocks are 4 KB and map
1:1 onto device pages (the Optane P5800X's native 4 KB block), so a
file's extent tree directly yields the device page numbers that
BypassD packs into File Table Entries.
"""

from __future__ import annotations

__all__ = ["Superblock", "FS_BLOCK_SIZE"]

FS_BLOCK_SIZE = 4096


class Superblock:
    """Geometry and counters for one mounted filesystem."""

    def __init__(self, total_blocks: int, journal_blocks: int = 2048,
                 inode_count: int = 1 << 20,
                 block_size: int = FS_BLOCK_SIZE) -> None:
        self.total_blocks = total_blocks
        self.journal_blocks = journal_blocks
        self.inode_count = inode_count
        self.block_size = block_size
        self.mounted = False
        self.mount_count = 0
        if self.total_blocks <= self.first_data_block:
            raise ValueError(
                f"filesystem too small: {self.total_blocks} blocks, "
                f"needs more than {self.first_data_block}"
            )

    @property
    def journal_start(self) -> int:
        return 64  # superblock + group descriptors

    @property
    def inode_table_start(self) -> int:
        return self.journal_start + self.journal_blocks

    @property
    def inode_table_blocks(self) -> int:
        # 256-byte inodes, 16 per block.
        return (self.inode_count + 15) // 16

    @property
    def first_data_block(self) -> int:
        return self.inode_table_start + self.inode_table_blocks

    @property
    def data_blocks(self) -> int:
        return self.total_blocks - self.first_data_block

    def capacity_bytes(self) -> int:
        return self.data_blocks * self.block_size
