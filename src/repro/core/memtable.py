"""MemTables: the in-memory tier of the LSM tree.

"A database consists of four types of MemTables (local MemTable,
immutable local MemTable, remote MemTable, and immutable remote
MemTable)" (paper §2.3).  The paper builds each as a red-black tree;
what the design relies on is point access plus sorted order at flush,
migration and scan, so a MemTable here is a dict indexed by key whose
sorted view is built once per write generation (``to_records``).
Entries carry a tombstone flag, and remote-MemTable entries
additionally carry the owner rank number (§2.4).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.analysis.runtime import annotate_write
from repro.sstable.format import Record, slices


class Entry(NamedTuple):
    """One MemTable entry (a tuple: cheap to make, immutable)."""

    value: bytes
    tombstone: bool = False
    #: owner rank (only meaningful in remote MemTables)
    owner: int = -1


def window(recs: List[Record], start: Optional[bytes] = None,
           end: Optional[bytes] = None) -> Iterator[List[Record]]:
    """``[start, end)`` of a sorted record list as sorted runs
    (:func:`~repro.sstable.format.slices`)."""
    lo = 0 if start is None else bisect_left(recs, (start,))
    hi = len(recs) if end is None else bisect_left(recs, (end,), lo)
    return slices(recs, lo, hi)


class MemTable:
    """A size-bounded write buffer with a sorted view.

    ``put`` replaces any existing entry with the same key ("PapyrusKV
    deletes the old one before it inserts the new one").  When
    ``size_bytes`` reaches ``capacity`` the owner runtime freezes the
    table and rotates in a fresh one.
    """

    __slots__ = ("capacity", "_entries", "_bytes", "_frozen", "_snapshot",
                 "_race_tag")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[bytes, Entry] = {}
        self._bytes = 0
        self._frozen = False
        self._snapshot: Optional[List[Record]] = None

    # ------------------------------------------------------------ properties
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    @property
    def full(self) -> bool:
        return self._bytes >= self.capacity

    # -------------------------------------------------------------- mutation
    def put(self, key: bytes, value: bytes, tombstone: bool = False,
            owner: int = -1) -> None:
        """Insert or replace; a tombstone is a put with an empty value."""
        annotate_write(self, "memtable")
        if self._frozen:
            raise RuntimeError("cannot write a frozen (immutable) MemTable")
        if tombstone:
            value = b""
        old = self._entries.get(key)
        if old is not None:
            self._bytes -= len(key) + len(old.value)
        self._entries[key] = Entry(value, tombstone, owner)
        self._bytes += len(key) + len(value)
        self._snapshot = None

    def freeze(self) -> "MemTable":
        """Mark immutable (local MemTable -> immutable local MemTable)."""
        annotate_write(self, "memtable")
        self._frozen = True
        return self

    # --------------------------------------------------------------- lookups
    def get(self, key: bytes) -> Optional[Entry]:
        """The entry for ``key`` (tombstones included), or None.

        One dict lookup, atomic under the interpreter lock: a reader
        needs no lock against the one writer at a time (writes are
        ordered by ``db.state`` and annotated; reads are not)."""
        return self._entries.get(key)

    # -------------------------------------------------------------- iteration
    def to_records(self) -> List[Record]:
        """Sorted records, tombstones included: the one snapshot list a
        flush encodes and scans read, built on the first call after a
        write and shared, unmutated, until the next.  Call it under the
        lock that orders writes, unless the table is frozen or
        :attr:`records` is already set."""
        if self._snapshot is None:
            annotate_write(self, "memtable")
            entries = self._entries
            # sorting the keys alone and looking each entry up is
            # cheaper at flush size than sorting the (key, entry) items
            keys = sorted(entries)
            self._snapshot = [
                Record(k, e.value, e.tombstone)
                for k, e in zip(keys, map(entries.__getitem__, keys))
            ]
        return self._snapshot

    @property
    def records(self) -> Optional[List[Record]]:
        """The snapshot list :meth:`to_records` built since the last
        write, or None: one attribute read, safe without any lock."""
        return self._snapshot

    def runs(self, start: Optional[bytes] = None,
             end: Optional[bytes] = None) -> Iterator[List[Record]]:
        """``[start, end)`` of the snapshot of *this call* as sorted runs
        (:func:`window`)."""
        return window(self.to_records(), start, end)

    def by_owner(self) -> dict:
        """Group entries per owner rank, each group in ascending key
        order (migration batching, §2.4)."""
        entries = self._entries
        groups: dict = {}
        for key in sorted(entries):
            entry = entries[key]
            groups.setdefault(entry.owner, []).append(
                (key, entry.value, entry.tombstone)
            )
        return groups
