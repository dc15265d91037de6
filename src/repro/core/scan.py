"""Range scans over a rank's shard (extension beyond the paper's API).

PapyrusKV's Table 1 has no iterator, but an LSM store gets one almost
for free: MemTables iterate in key order and SSTables are key-sorted,
so a scan is a k-way merge with newest-tier-wins semantics.  The scan
covers the *local shard* — the keys this rank owns — which is the
natural unit in an SPMD program (for the global form see
:meth:`repro.core.db.Database.scan_global`).

The merge is **streamed**: :class:`ScanIterator` holds one lazy cursor
per tier, each already cut to the window (it seeks to ``start`` and
stops at ``end``), and pulls straight from
:func:`repro.sstable.compaction.merge_newest` over them, so a one-key
window costs a handful of block reads, not a shard materialization.
SSTable selection is gated the same way as the get path — quarantine →
footer key fences → SSIndex bracketing — and the block is the unit of
the read: a cursor fetches each 64KB block once, through the shared
block cache at low priority, and slices every record out of it.

Snapshot consistency: the iterator pins its SSID horizon at open
(:meth:`Database._pin_scan_tables`), so a flush or compaction that
retires a pinned table defers the file unlink until the scan closes.
The live MemTable is copied in-range under the state lock, seeking to
the window's start; frozen (flushing) ones are walked lazily in place.

Tombstones shadow older tiers and are skipped in the output — unless
the caller asks for them (re-replication must propagate deletes).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import CorruptionError
from repro.sstable.compaction import Triple, merge_newest


def _window_overlaps(mn: Optional[bytes], mx: Optional[bytes],
                     start: Optional[bytes], end: Optional[bytes]) -> bool:
    """Whether a table covering ``[mn, mx]`` may intersect ``[start, end)``.

    Unknown fences (None) overlap everything — the conservative answer
    quarantine entries need.
    """
    if mn is None or mx is None:
        return True
    if start is not None and mx < start:
        return False
    if end is not None and mn >= end:
        return False
    return True


def _memtable_cursor(mt, start: Optional[bytes],
                     end: Optional[bytes]) -> Iterator[Triple]:
    """Lazy in-range walk of a MemTable, seeking to ``start``."""
    for key, entry in mt.items(start):
        if end is not None and key >= end:
            return
        yield key, entry.value, entry.tombstone


def _sstable_cursor(db, reader, start: Optional[bytes],
                    end: Optional[bytes],
                    keys_only: bool) -> Iterator[Triple]:
    """Lazy in-range records of one SSTable.

    ``reader.find_ge`` brackets the first in-range entry and
    ``reader.scan_from`` streams from there one 64KB SSData block at a
    time through the block cache at low priority; left here are the
    window's end, the per-block counter, and the rank's clock, which
    moves only when a block was fetched.  ``keys_only`` skips the
    value bytes entirely (:func:`count_live`).
    """
    clock, sink = db.clock, db.cache_counts
    lo, t = reader.find_ge(start, clock.now, sink)
    clock.advance_to(t)
    for key, value, tombstone, fetched, t in reader.scan_from(
            lo, lambda: clock.now, keys_only, sink):
        if fetched:
            db.stats.scan_blocks_read += fetched
            clock.advance_to(t)
        if end is not None and key >= end:
            return
        yield key, value, tombstone


class ScanIterator:
    """A lazy, snapshot-pinned merged scan of one rank's shard.

    Yields sorted live ``(key, value)`` pairs with ``start <= key <
    end``.  Construction (under the state lock) snapshots the in-range
    live MemTable entries, takes references to the frozen flushing
    tiers, and pins the current SSID set, so a flush or compaction
    retiring mid-iteration cannot invalidate the scan — retired files'
    unlinks are deferred until :meth:`close`.

    The iterator closes itself on exhaustion; use ``with`` (or call
    :meth:`close`) when abandoning one early, or the pinned tables'
    disk space is held until the iterator is garbage collected.

    ``keys_only=True`` yields ``(key, b"")`` without reading any value
    bytes — the streamed-count path.  ``tombstones=True`` keeps deletes
    and yields ``(key, value, tombstone)`` triples instead (the
    re-replication walk).  A scan window overlapping a quarantined
    table's poisoned range raises
    :class:`~repro.errors.CorruptionError` at open, mirroring the get
    path's refusal to silently serve older versions.
    """

    def __init__(self, db, start: Optional[bytes] = None,
                 end: Optional[bytes] = None,
                 include_replicas: bool = False,
                 keys_only: bool = False,
                 tombstones: bool = False) -> None:
        self._db = db
        self._closed = False
        self._width = 3 if tombstones else 2
        self._pinned: List[int] = []
        db.stats.scans += 1
        with db._lock:
            db._retire_flushed(db.clock.now)
            for q in db._quarantined:
                if _window_overlaps(q.min_key, q.max_key, start, end):
                    raise CorruptionError(
                        f"scan window overlaps quarantined sstable "
                        f"{q.ssid}: {q.reason}"
                    )
            live = list(_memtable_cursor(db.local_mt, start, end))
            frozen = [imm for imm, _end_t in reversed(db.flushing)]
            ssids = sorted(db.ssids, reverse=True)  # newest first
            db._pin_scan_tables(ssids)
            self._pinned = list(ssids)
            # reader handles are grabbed inside the lock: compaction
            # (which also runs under db.state) cannot have invalidated
            # them yet, and the pin keeps their files on disk after
            readers = [db._reader(s) for s in ssids]

        # fence gate: prune tables whose [min,max] cannot intersect the
        # window (empty tables have fences (b"", b"") and always prune)
        selected = []
        t = db.clock.now
        for reader in readers:
            (mn, mx), t = reader.key_range(t)
            if not mx or not _window_overlaps(mn, mx, start, end):
                db.stats.scan_tables_pruned += 1
                continue
            selected.append(reader)
        db.clock.advance_to(t)

        tiers: List[Iterable[Triple]] = [live]
        for imm in frozen:
            tiers.append(_memtable_cursor(imm, start, end))
        for reader in selected:
            tiers.append(_sstable_cursor(db, reader, start, end, keys_only))
        merged = merge_newest(tiers, tombstones)
        if db.membership is not None and not include_replicas:
            merged = (
                kv for kv in merged if db._is_acting_primary(kv[0])
            )
        self._gen: Iterator[Triple] = merged

    def __iter__(self) -> "ScanIterator":
        return self

    def __next__(self) -> Tuple:
        if self._closed:
            raise StopIteration
        try:
            return next(self._gen)[:self._width]
        except BaseException:
            # exhausted or failed: either way the snapshot is released
            self.close()
            raise

    def close(self) -> None:
        """Release the pins (idempotent); deferred unlinks run now."""
        if self._closed:
            return
        self._closed = True
        pinned, self._pinned = self._pinned, []
        self._gen.close()
        if pinned:
            self._db._unpin_scan_tables(pinned)

    def __enter__(self) -> "ScanIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def count_live(db) -> int:
    """Number of live keys in this rank's shard.

    Streams a keys-only scan — tombstone resolution without copying a
    single value byte or materializing the merge.
    """
    with ScanIterator(db, keys_only=True) as it:
        return sum(1 for _ in it)
