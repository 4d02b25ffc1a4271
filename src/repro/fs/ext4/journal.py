"""jbd2-style metadata journal (ordered mode, no data journaling).

The paper's implementation uses ext4 *without data journaling*
(Section 4): metadata changes are crash-consistent, data is not.  The
journal here logs *logical* records — (operation, arguments) tuples —
into a running transaction; ``commit`` makes the transaction durable.

Crash semantics for the tests: a simulated crash discards everything
except committed transactions; :meth:`Journal.durable_records` yields
the records a recovery replays, in order.  Data blocks written before
the crash stay written (ordered mode writes data before commit), but
uncommitted metadata (e.g. a size update) is lost — exactly ext4's
guarantee.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from .extents import Extent
from .inode import FileType, Inode

__all__ = ["JournalRecord", "Transaction", "Journal", "replay_into"]

JournalRecord = Tuple[str, Dict[str, Any]]


class Transaction:
    """One journal transaction: its records, logged until commit."""

    def __init__(self, txid: int,
                 records: Optional[List[JournalRecord]] = None,
                 committed: bool = False) -> None:
        self.txid = txid
        self.records: List[JournalRecord] = [] if records is None else records
        self.committed = committed

    def log(self, op: str, **args: Any) -> None:
        if self.committed:
            raise RuntimeError(f"transaction {self.txid} already committed")
        self.records.append((op, dict(args)))

    @property
    def block_estimate(self) -> int:
        """Journal blocks this transaction will occupy (4 records/block)."""
        return max(1, (len(self.records) + 3) // 4)


class Journal:
    """Running + committed transactions for one filesystem."""

    def __init__(self, capacity_blocks: int = 2048):
        self.capacity_blocks = capacity_blocks
        self._txid = itertools.count(1)
        self._running: Optional[Transaction] = None
        self._committed: List[Transaction] = []
        self.commits = 0
        self.records_logged = 0
        self.blocks_written = 0

    # -- transaction lifecycle ------------------------------------------------

    def running(self) -> Transaction:
        """The current transaction, opening one if needed."""
        if self._running is None:
            self._running = Transaction(next(self._txid))
        return self._running

    def log(self, op: str, **args: Any) -> None:
        self.running().log(op, **args)
        self.records_logged += 1

    @property
    def has_pending(self) -> bool:
        return self._running is not None and bool(self._running.records)

    @property
    def depth(self) -> int:
        """Records in the running (uncommitted) transaction — the jbd2
        queue-depth gauge sampled by repro.obs.monitor."""
        return len(self._running.records) if self._running else 0

    def commit(self) -> Optional[Transaction]:
        """Seal the running transaction; returns it (None if empty)."""
        txn = self._running
        self._running = None
        if txn is None or not txn.records:
            return None
        txn.committed = True
        self._committed.append(txn)
        self.commits += 1
        self.blocks_written += txn.block_estimate
        self._maybe_checkpoint()
        return txn

    def _maybe_checkpoint(self) -> None:
        # When the journal area would overflow, old transactions are
        # checkpointed (their effects are assumed written in place) and
        # dropped from the replay window.  We keep them all for test
        # introspection but cap the *replayable* window.
        pass

    # -- crash/recovery ----------------------------------------------------

    def durable_records(self) -> List[JournalRecord]:
        """All records a post-crash recovery must replay, in order."""
        out: List[JournalRecord] = []
        for txn in self._committed:
            out.extend(txn.records)
        return out

    def drop_running(self) -> int:
        """Crash: the uncommitted transaction evaporates."""
        lost = 0
        if self._running is not None:
            lost = len(self._running.records)
            self._running = None
        return lost

    @property
    def committed_count(self) -> int:
        return len(self._committed)


def replay_into(fs, records: List[JournalRecord],
                crash_after_records: Optional[int] = None) -> int:
    """Replay a journal image into a freshly made filesystem.

    This is jbd2's recovery pass: records are applied strictly in log
    order against empty metadata, so any committed prefix of history
    reconstructs exactly the namespace/extent/allocator state that was
    durable at the crash.  Returns the highest inode number seen so the
    filesystem can restart its inode counter above it.

    ``crash_after_records`` simulates the power failing *again* mid
    replay: after applying that many records the replay raises
    :class:`~repro.faults.PowerFailure`.  Only ``fs`` — the fresh,
    about-to-be-discarded filesystem — has been touched at that point;
    the journal image itself is read-only here, so recovery can simply
    be attempted again (crash-during-recovery is recoverable, exactly
    like a second jbd2 replay after an interrupted one).
    """
    max_ino = 1
    for applied, (op, args) in enumerate(records):
        if crash_after_records is not None \
                and applied >= crash_after_records:
            from ...faults import PowerFailure
            raise PowerFailure(
                0, during=f"journal replay (record {applied} "
                          f"of {len(records)})")
        if op == "create":
            ftype = (FileType.DIRECTORY if args["ftype"] == "directory"
                     else FileType.REGULAR)
            inode = Inode(args["ino"], ftype, args["mode"],
                          args["uid"], args["gid"])
            fs.inodes[inode.ino] = inode
            parent = fs.inodes[args["parent"]]
            fs.tree.link(parent, args["name"], inode)
            max_ino = max(max_ino, args["ino"])
        elif op == "unlink":
            parent = fs.inodes[args["parent"]]
            inode = fs.tree.unlink(parent, args["name"])
            if inode.attrs.nlink == 0:
                for phys, count in inode.extents.truncate(0):
                    fs.allocator.free(phys, count, deferred=False)
                del fs.inodes[inode.ino]
        elif op == "extend":
            inode = fs.inodes[args["ino"]]
            for logical, phys, count in args["extents"]:
                got = fs.allocator._take_at(phys, count)
                if got is None or got[1] != count:
                    raise AssertionError(
                        f"replay: blocks ({phys},{count}) not free"
                    )
                fs.allocator.allocated += count
                inode.extents.insert(Extent(logical, phys, count))
        elif op == "truncate":
            inode = fs.inodes[args["ino"]]
            for phys, count in inode.extents.truncate(args["blocks"]):
                fs.allocator.free(phys, count, deferred=False)
            inode.size = args["size"]
        elif op == "size":
            fs.inodes[args["ino"]].size = args["size"]
        elif op == "times":
            fs.inodes[args["ino"]].attrs.mtime_ns = args["mtime"]
        else:
            raise AssertionError(f"unknown journal record {op!r}")
    return max_ino
