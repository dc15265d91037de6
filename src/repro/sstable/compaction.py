"""SSTable compaction: merge a run of tables, newest-SSID wins.

"PapyrusKV merges the data in a set of SSTables ... whenever the SSID of
a new SSTable is multiples of the predefined number" (paper §2.5).  The
merge is a sequential read of each input (the tables are key-sorted),
keeps the record from the highest SSID for duplicate keys; the caller
deletes the inputs once its outputs are durable.  That merge is
:func:`merge_newest`, which lives here, below ``core/``, because the
range scan and the re-replication walk run the same one over lazy
cursors.

:func:`read_and_merge` + :func:`partition_records` split the merged
stream into contiguous key-range partitions that the database schedules
as independent, rate-limited jobs, each producing one fresh-SSID table
with disjoint footer fences.  Minor (delta-only) merges keep old data in
place, so a run of flushes rewrites each byte once instead of rewriting
the whole rank shard every trigger.

Tombstones survive a *partial* compaction (they may still shadow live
records in tables older than the compacted run); a *full* compaction of
every table in a rank's set may drop them.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.nvm.posixfs import PosixStore
from repro.sstable.block_cache import BlockCache, CacheCounters
from repro.sstable.format import Record
from repro.sstable.reader import SSTableReader

#: one tier item, indexed ``(key, value, tombstone)`` — a plain triple
#: or a :class:`~repro.sstable.format.Record`
Triple = Tuple[bytes, bytes, bool]


def merge_newest(
    tiers: Iterable[Iterable[Triple]], tombstones: bool = False
) -> Iterator[Triple]:
    """The one newest-wins merge: sorted ``(key, value, tombstone)``
    runs in, each key's newest version out; ``tiers[0]`` is newest.

    Flush-order compaction, the range scan and re-replication all merge
    through here.  A tombstone always shadows the older tiers' versions
    of its key; ``tombstones`` says whether it is itself yielded (a
    partial compaction and a re-replication push must keep deletes, a
    scan and a full compaction drop them).  Items are passed through
    as given, never rebuilt.  Each tier may be a list or any lazy sorted
    iterable — the merge holds one item per tier and pulls a tier's
    next only after its current one is emitted, so a window scan over
    lazy cursors reads O(window) records, not O(shard), and a tier that
    fails mid-stream has had everything before the failure delivered.
    """
    iters = [iter(run) for run in tiers]
    heap: List[Tuple[bytes, int, Triple]] = []
    for ti, it in enumerate(iters):
        item = next(it, None)
        if item is not None:
            heap.append((item[0], ti, item))
    heapq.heapify(heap)
    last_key: Optional[bytes] = None
    while heap:
        key, ti, item = heap[0]
        if key != last_key:  # else: an older tier's version of the key
            last_key = key
            if tombstones or not item[2]:
                yield item
        nxt = next(iters[ti], None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt[0], ti, nxt))


def read_and_merge(
    store: PosixStore,
    directory: str,
    ssids: List[int],
    t: float,
    drop_tombstones: bool = False,
    block_cache: Optional[BlockCache] = None,
    sink: Optional[CacheCounters] = None,
) -> Tuple[List[Record], List[SSTableReader], float]:
    """Stream every input table once and k-way merge the runs.

    Returns ``(merged_records, readers, virtual_completion_time)``; the
    readers are handed back so the caller can delete the inputs once
    its outputs are durable.  ``read_all`` fills the device's block
    cache at the cold end only (counted to ``sink``): compaction's
    streaming reads use free budget but never evict the point-get
    working set, and the caller is expected to invalidate the input
    tables afterwards.
    """
    readers = [
        SSTableReader(store, directory, s, block_cache=block_cache)
        for s in sorted(ssids)
    ]
    runs: List[List[Record]] = []
    for rd in readers:  # oldest → newest
        recs, t = rd.read_all(t, sink)
        runs.append(recs)
    merged = list(merge_newest(reversed(runs), not drop_tombstones))
    return merged, readers, t


def partition_records(
    records: List[Record], nparts: int
) -> List[List[Record]]:
    """Split sorted ``records`` into ≤ ``nparts`` contiguous key ranges.

    Slices are balanced by record count; empty slices are never
    produced, so every partition's output table has meaningful footer
    fences and the ranges are pairwise disjoint (fence pruning stays
    decisive on the read path).
    """
    if nparts <= 1 or len(records) <= 1:
        return [records] if records else []
    nparts = min(nparts, len(records))
    base, extra = divmod(len(records), nparts)
    parts: List[List[Record]] = []
    lo = 0
    for p in range(nparts):
        hi = lo + base + (1 if p < extra else 0)
        parts.append(records[lo:hi])
        lo = hi
    return parts
