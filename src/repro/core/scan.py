"""Range scans over a rank's shard (extension beyond the paper's API).

PapyrusKV's Table 1 has no iterator, but an LSM store gets one almost
for free: MemTables iterate in key order and SSTables are key-sorted,
so a scan is a k-way merge with newest-tier-wins semantics.  The scan
covers the *local shard* — the keys this rank owns — which is the
natural unit in an SPMD program (for the global form see
:meth:`repro.core.db.Database.scan_global`).

The merge is **streamed a run at a time**: every tier is a lazy
sequence of sorted runs cut to the window, which
:func:`repro.sstable.compaction.merge_newest` pulls only as it uses
them up, so a one-key window costs a handful of block reads.  A
MemTable tier slices the table's snapshot list; an SSTable
tier (:meth:`SSTableReader.runs`), selected like the get path —
quarantine → footer key fences → SSIndex bracketing — slices each
decoded 64KB block, fetched once through the shared block cache at low
priority.

Snapshot consistency: the iterator opens on the database's published
read view and pins its tables (:meth:`Database._pin_view`), so a flush
or compaction that retires a pinned table defers the file unlink until
the scan closes.  The MemTables' snapshot lists are the views' own; only
a live MemTable written since its last snapshot needs the state lock to
build one.  A write after that builds a new list and leaves the scan's
alone.

Tombstones shadow older tiers and are skipped in the output — unless
the caller asks for them (re-replication must propagate deletes).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.memtable import window
from repro.errors import CorruptionError
from repro.sstable.compaction import merge_newest
from repro.sstable.format import Triple

_KEY = itemgetter(0)
_PAIR = itemgetter(0, 1)


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


def _pinned(runs: Iterator[List[Triple]], db,
            ssids: List[int]) -> Iterator[List[Triple]]:
    """``runs`` holding the scan's pins: primed at open (one ``next``),
    so the pins go — and the unlinks they deferred run — however the
    stream ends: exhausted, failed, closed, or dropped unfinished.  The
    run out last is emptied then, so a ``chain`` part-way through it
    stops too."""
    run: List[Triple] = []
    try:
        yield run
        for run in runs:
            yield run
    finally:
        run.clear()
        if ssids:
            db._unpin_scan_tables(ssids)


class ScanIterator:
    """A lazy, snapshot-pinned merged scan of one rank's shard.

    Yields sorted live ``(key, value)`` pairs with ``start <= key <
    end``.  Construction takes the published read view with its tables
    pinned — so a flush or compaction retiring mid-iteration cannot
    invalidate the scan: retired files' unlinks are deferred until
    :meth:`close` — and the view's MemTable snapshots and readers.

    ``iter()`` is a C ``chain`` over the merged runs (``next(it)`` steps
    it too).  The iterator closes itself on exhaustion and on an error;
    use ``with`` (or call :meth:`close`) when abandoning one early, or
    the pinned tables' disk space is held until the last reference to
    the iterator or its ``iter()`` is dropped.

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
        db.stats.scans += 1
        view, ssids = db._pin_view(db.clock.now)
        for q in view.quarantined:
            if _window_overlaps(q.min_key, q.max_key, start, end):
                db._unpin_scan_tables(ssids)
                raise CorruptionError(
                    f"scan window overlaps quarantined sstable "
                    f"{q.ssid}: {q.reason}"
                )
        live = view.live.records
        if live is None:  # written since its last snapshot
            with db._lock:
                live = view.live.to_records()
        # newest first: the live MemTable, the flushing ones, the tables
        tiers: List[Iterable[List[Triple]]] = [
            window(live, start, end),
            *(imm.runs(start, end) for imm in view.flushing)]

        # fence gate: prune tables whose [min,max] cannot intersect the
        # window (empty tables have fences (b"", b"") and always prune)
        t = db.clock.now
        for _ssid, reader in view.tables:
            if reader is None:
                continue
            (mn, mx), t = reader.key_range(t)
            if not mx or not _window_overlaps(mn, mx, start, end):
                db.stats.scan_tables_pruned += 1
                continue
            tiers.append(reader.runs(start, end, db.clock, db.stats,
                                     keys_only, db.cache_counts))
        db.clock.advance_to(t)

        merged = merge_newest(tiers, tombstones)
        if db.repl is not None and not include_replicas:
            group, me = db.repl.group, db.rank
            merged = ([kv for kv in run if group(kv[0], False)[0] == me]
                      for run in merged)
        self._runs = _pinned(merged, db, ssids)
        next(self._runs)
        items: Iterator = chain.from_iterable(self._runs)
        if keys_only:
            items = zip(map(_KEY, items), repeat(b""))
        elif not tombstones:
            items = map(_PAIR, items)
        self._items = items

    def __iter__(self) -> Iterator[Tuple]:
        return self._items

    def __next__(self) -> Tuple:
        return next(self._items)

    def close(self) -> None:
        """Release the pins (idempotent); deferred unlinks run now and
        ``next(it)`` or an ``iter(it)`` taken before yields no more."""
        self._runs.close()

    def __enter__(self) -> "ScanIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
