"""SSTable compaction: merge a run of tables, newest-SSID wins.

"PapyrusKV merges the data in a set of SSTables ... whenever the SSID of
a new SSTable is multiples of the predefined number" (paper §2.5).  The
merge is a sequential read of each input (the tables are key-sorted),
keeps the record from the highest SSID for duplicate keys; the caller
deletes the inputs once its outputs are durable.

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
from typing import List, Optional, Tuple

from repro.nvm.posixfs import PosixStore
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record
from repro.sstable.reader import SSTableReader


def merge_records(
    runs: List[List[Record]], drop_tombstones: bool = False
) -> List[Record]:
    """K-way merge; ``runs`` ordered oldest→newest, each sorted by key.

    For duplicate keys the record from the newest run wins.
    """
    heap: List[Tuple[bytes, int, int]] = []  # (key, -run_idx, pos)
    for ri, run in enumerate(runs):
        if run:
            heapq.heappush(heap, (run[0].key, -ri, 0))
    out: List[Record] = []
    last_key: Optional[bytes] = None
    while heap:
        key, neg_ri, pos = heapq.heappop(heap)
        ri = -neg_ri
        rec = runs[ri][pos]
        if key != last_key:
            last_key = key
            if not (drop_tombstones and rec.tombstone):
                out.append(rec)
        if pos + 1 < len(runs[ri]):
            heapq.heappush(heap, (runs[ri][pos + 1].key, neg_ri, pos + 1))
    return out


def read_and_merge(
    store: PosixStore,
    directory: str,
    ssids: List[int],
    t: float,
    drop_tombstones: bool = False,
    block_cache: Optional[BlockCache] = None,
) -> Tuple[List[Record], List[SSTableReader], float]:
    """Stream every input table once and k-way merge the runs.

    Returns ``(merged_records, readers, virtual_completion_time)``; the
    readers are handed back so the caller can delete the inputs once
    its outputs are durable.  A shared block cache is attached at *low*
    priority: compaction's streaming reads fill free budget but never
    evict the point-get working set, and the caller is expected to
    invalidate the input tables afterwards.
    """
    readers = [
        SSTableReader(store, directory, s,
                      block_cache=block_cache, cache_priority="low")
        for s in sorted(ssids)
    ]
    runs: List[List[Record]] = []
    for rd in readers:  # oldest → newest
        recs, t = rd.read_all(t)
        runs.append(recs)
    merged = merge_records(runs, drop_tombstones=drop_tombstones)
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
