"""Inodes: file metadata plus BypassD's per-inode state.

BypassD keeps the pre-populated, shared file-table subtree in the
file's cached VFS inode (Section 4.1): its lifetime equals the inode's
cache residency, and the inode also tracks which processes hold fmap()
attachments and which hold kernel-interface opens — the state the
revocation rules of Section 4.5.2 are decided on.
"""

from __future__ import annotations

import enum
import stat as stat_module
from typing import Dict, Optional, Set

from .extents import ExtentTree

__all__ = ["FileType", "Inode", "InodeAttrs"]


class FileType(enum.Enum):
    REGULAR = "regular"
    DIRECTORY = "directory"


class InodeAttrs:
    """The stat()-visible attribute block."""

    def __init__(self, mode: int, uid: int, gid: int, size: int = 0,
                 atime_ns: int = 0, mtime_ns: int = 0, ctime_ns: int = 0,
                 nlink: int = 1) -> None:
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.size = size
        self.atime_ns = atime_ns
        self.mtime_ns = mtime_ns
        self.ctime_ns = ctime_ns
        self.nlink = nlink


class Inode:
    """One file or directory."""

    def __init__(self, ino: int, ftype: FileType, mode: int,
                 uid: int, gid: int, now_ns: int = 0):
        self.ino = ino
        self.ftype = ftype
        self.attrs = InodeAttrs(mode=mode, uid=uid, gid=gid,
                                atime_ns=now_ns, mtime_ns=now_ns,
                                ctime_ns=now_ns)
        self.extents = ExtentTree()
        # Directory payload (children handled by directory.py).
        self.children: Optional[Dict[str, int]] = (
            {} if ftype is FileType.DIRECTORY else None
        )
        # -- BypassD state ---------------------------------------------------
        # Cached, pre-populated file-table subtree (core.filetable builds it).
        self.file_table = None
        # PASIDs with live fmap() attachments, with their attach VBAs.
        self.fmap_attachments: Dict[int, int] = {}
        # Kernel-interface opens (buffered or direct through the kernel).
        self.kernel_openers: int = 0
        # Set when the kernel has decided this inode may not be accessed
        # through the BypassD interface (Section 4.5.2).
        self.bypass_revoked: bool = False
        # Metadata writers seen while shared (multi-process metadata
        # changes also force revocation).
        self.metadata_writers: Set[int] = set()

    # -- convenience -------------------------------------------------------

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def size(self) -> int:
        return self.attrs.size

    @size.setter
    def size(self, value: int) -> None:
        if value < 0:
            raise ValueError("negative file size")
        self.attrs.size = value

    @property
    def mapped_blocks(self) -> int:
        return self.extents.block_count

    def may_read(self, uid: int, gids: Set[int]) -> bool:
        return self._check(uid, gids, 4)

    def may_write(self, uid: int, gids: Set[int]) -> bool:
        return self._check(uid, gids, 2)

    def _check(self, uid: int, gids: Set[int], want: int) -> bool:
        mode = self.attrs.mode
        if uid == 0:
            return True
        if uid == self.attrs.uid:
            bits = (mode >> 6) & 7
        elif self.attrs.gid in gids:
            bits = (mode >> 3) & 7
        else:
            bits = mode & 7
        return bool(bits & want)

    def mode_string(self) -> str:
        kind = "d" if self.is_dir else "-"
        return kind + stat_module.filemode(self.attrs.mode)[1:]

    def __repr__(self) -> str:
        return (f"<Inode {self.ino} {self.ftype.value} size={self.size} "
                f"mode={self.attrs.mode:o}>")
