"""MemTables: the in-memory tier of the LSM tree.

"A database consists of four types of MemTables (local MemTable,
immutable local MemTable, remote MemTable, and immutable remote
MemTable)" (paper §2.3).  The paper builds each as a red-black tree;
what the design relies on is point access plus sorted order at flush,
migration and scan, so a MemTable here is a dict indexed by key whose
sorted view is built once per write generation (``to_records``).
Entries carry a tombstone flag.

The remote MemTable holds what a relaxed put staged for other ranks
(§2.4).  It is never flushed or scanned, only migrated, so it is not a
sorted table: it keeps one buffer per owner rank, filled when the put
routes the pair, and a migration hands each buffer over as the pairs of
one message (:class:`RemoteMemTable`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.analysis.runtime import annotate_write
from repro.core.messages import Pair
from repro.sstable.format import Record, slices


class Entry(NamedTuple):
    """One MemTable entry (a tuple: cheap to make, immutable)."""

    value: bytes
    tombstone: bool = False


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
    def put(self, key: bytes, value: bytes, tombstone: bool = False) -> None:
        """Insert or replace; a tombstone is a put with an empty value."""
        annotate_write(self, "memtable")
        if self._frozen:
            raise RuntimeError("cannot write a frozen (immutable) MemTable")
        if tombstone:
            value = b""
        old = self._entries.get(key)
        if old is not None:
            self._bytes -= len(key) + len(old.value)
        self._entries[key] = Entry(value, tombstone)
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


class RemoteMemTable:
    """The remote MemTable: one buffer per owner rank, each mapping key
    -> the wire pair ``(key, value, tombstone)`` (§2.3-2.4).

    ``put`` replaces a key's pair in its owner's buffer; the capacity
    bounds the bytes over all owners, counted as in :class:`MemTable`.
    A migration takes the table whole (the runtime rotates in a fresh
    one) and sends each of :attr:`buffers` as it is: its pairs are in
    put order, each key once with its last pair.
    """

    __slots__ = ("capacity", "buffers", "_bytes", "_race_tag")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: owner rank -> {key: pair}
        self.buffers: Dict[int, Dict[bytes, Pair]] = {}
        self._bytes = 0

    def __len__(self) -> int:
        return sum(map(len, self.buffers.values()))

    @property
    def size_bytes(self) -> int:
        return self._bytes

    @property
    def full(self) -> bool:
        return self._bytes >= self.capacity

    def put(self, groups: Dict[int, Dict[bytes, Pair]]) -> None:
        """Stage ``{owner: {key: pair}}``; a tombstone's value is empty."""
        annotate_write(self, "memtable")
        buffers, size = self.buffers, self._bytes
        for owner, pairs in groups.items():
            buf = buffers.get(owner)
            if buf is None:
                buf = buffers[owner] = {}
            for key, pair in pairs.items():
                old = buf.get(key)
                if old is not None:
                    size -= len(key) + len(old[1])
                buf[key] = pair
                size += len(key) + len(pair[1])
        self._bytes = size

    def get(self, owner: int, key: bytes) -> Optional[Pair]:
        """The pair staged for ``key`` in ``owner``'s buffer, or None."""
        buf = self.buffers.get(owner)
        return None if buf is None else buf.get(key)
