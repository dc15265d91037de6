"""SSTable compaction: merge a run of tables, newest-SSID wins.

"PapyrusKV merges the data in a set of SSTables ... whenever the SSID of
a new SSTable is multiples of the predefined number" (paper §2.5).  The
merge is a sequential read of each input (the tables are key-sorted),
keeps the record from the highest SSID for duplicate keys; the caller
deletes the inputs once its outputs are durable.  That merge is
:func:`merge_newest`, which lives here, below ``core/``, because the
range scan and the re-replication walk run the same one over lazy
tiers of runs.

:func:`read_and_merge` is the read half of a round: the database
encodes its merged list into one fresh-SSID table, lands it with one
device commit and retires the inputs, all as one rate-limited job on
its compaction worker.  Minor (delta-only) merges keep old data in
place, so a run of flushes rewrites each byte once instead of rewriting
the whole rank shard every trigger.

Tombstones survive a *partial* compaction (they may still shadow live
records in tables older than the compacted run); a *full* compaction of
every table in a rank's set may drop them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.nvm.posixfs import PosixStore
from repro.sstable.format import Record, Triple
from repro.sstable.reader import SSTableReader


def merge_newest(
    tiers: Iterable[Iterable[List[Triple]]], tombstones: bool = False
) -> Iterator[List[Triple]]:
    """The one newest-wins merge: tiers of sorted runs of ``(key, value,
    tombstone)`` in (``tiers[0]`` newest), sorted runs of each key's
    newest version out.

    Compaction, the range scan and re-replication all merge here.  A
    tombstone shadows the older tiers' versions of its key;
    ``tombstones`` says whether it is itself yielded (a partial
    compaction and a re-replication push keep deletes).  Items pass
    through as given.  The heap steps record by record; its entries
    carry their run, so a step is one ``heapreplace``.  Output is
    yielded before a tier's next run is pulled, and that only once its
    last is used up: a window scan reads O(window) records, and a
    failing tier has had all before delivered.
    """
    srcs = [iter(tier) for tier in tiers]
    runs = (next(filter(None, src), None) for src in srcs)
    # (head key, tier, its run, the head's index): ties go newest
    heap = [(run[0][0], ti, run, 0) for ti, run in enumerate(runs) if run]
    heapify(heap)
    out: List[Triple] = []
    emit, replace = out.append, heapreplace  # locals: once a record
    last: Optional[bytes] = None
    while heap:
        key, ti, run, i = heap[0]
        if key != last:  # else: an older tier's version of the key
            last = key
            item = run[i]
            if tombstones or not item[2]:
                emit(item)
        i += 1
        try:
            replace(heap, (run[i][0], ti, run, i))
            continue
        except IndexError:  # the run is used up
            pass
        if out:
            yield out
            out = []
            emit = out.append
        run = next(filter(None, srcs[ti]), None)
        if run is None:
            heappop(heap)
        else:
            heapreplace(heap, (run[0][0], ti, run, 0))
    if out:
        yield out


def read_and_merge(
    store: PosixStore,
    directory: str,
    ssids: List[int],
    t: float,
    drop_tombstones: bool = False,
) -> Tuple[List[Record], List[SSTableReader], float]:
    """Stream every input table once and k-way merge the runs.

    Returns ``(merged_records, readers, virtual_completion_time)``; the
    readers are handed back so the caller can delete the inputs once
    its outputs are durable.  Nothing goes through the device's block
    cache: the caller retires the inputs in the same call, so a block
    cached here would only be invalidated again.
    """
    readers = [SSTableReader(store, directory, s) for s in sorted(ssids)]
    tiers: List[List[List[Record]]] = []
    for rd in readers:  # oldest → newest; a table is one run
        recs, t = rd.read_all(t)
        tiers.append([recs])
    merged = merge_newest(reversed(tiers), not drop_tombstones)
    return list(chain.from_iterable(merged)), readers, t
