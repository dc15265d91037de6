"""The read cache of one storage device: SSData blocks and table readers.

FOCUS-style hierarchical caching (arXiv:2505.24221): the dominant
read-amplification lever for LSM gets is keeping hot metadata and data
blocks resident in one hierarchy.  The ranks of a node share its kernel
page cache, so :class:`~repro.nvm.storage.Machine` gives each store it
hands out **one** :class:`BlockCache` and every database on the store
reads through it: 64KB-aligned SSData blocks keyed ``(directory, ssid,
block)`` and each table's *file-built* reader (its parsed index and
bloom) keyed ``(directory, ssid)`` — a block or sidecar is read off the
device once, for owner and storage-group peers alike.

Design points:

* **Charged bytes, not entries.**  Capacity is a byte budget over the
  cached blocks, each a decoded :class:`~repro.sstable.reader.Block`
  charged about the memory it holds: the sum of
  ``block_cache_capacity`` over the databases open on the device
  (:meth:`BlockCache.attach` at open, :meth:`BlockCache.detach`,
  which trims to the remainder, at close).
* **Verified-once fill.**  Blocks enter the cache only through the
  reader's fill path, which checks the footer CRC-32 and decodes
  *before* insert — a cache hit never needs re-verification or
  decoding, and a corrupt block can never be cached.
* **Low-priority inserts.**  Scans stream every block of their window;
  inserting those at the hot end would evict the point-get working set
  (the Co-KV observation, arXiv:1807.04151).  A low-priority insert
  lands at the *cold* end of the LRU order: it fills free budget but is
  the first thing evicted — when the cache is full it effectively
  evicts itself instead of a hot block, so a streaming reader holds the
  block it is working through.
* **Precise invalidation, by the owner.**  A per-table index lets
  flush/compaction/quarantine and checkpoint-restore repair drop
  exactly the affected table (or a whole rank directory) — reader and
  blocks, for every rank on the device, in one call.  Each bumps
  :attr:`BlockCache.generation`, so a rank holding readers it resolved
  earlier (a storage-group peer's view) knows to resolve them again.
* **Thread safety.**  One tracked lock (``sstable.block_cache`` in the
  canonical lock order) guards all state, for every rank's main and
  handler threads; nothing is acquired while holding it.  Accesses are
  annotated for the race detector.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.runtime import annotate_write, make_lock
from repro.nvm.posixfs import PosixStore
from repro.sstable.reader import Block, SSTableReader

#: key of one cached span: (directory, ssid, block index)
BlockKey = Tuple[str, int, int]


class CacheCounters:
    """Traffic counts: the device's (a :class:`BlockCache` is one) or a
    database's share — what ``attach`` returns and it passes as ``sink``."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self.low_priority_inserts = 0
        self.invalidations = 0


#: where the share of a caller that names no counters goes
_NOBODY = CacheCounters()


class BlockCache(CacheCounters):
    """Size-bounded LRU over verified, decoded SSData blocks, plus the
    file-built readers of the tables they belong to."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        """A fixed budget, or — ``None`` — a device's cache, sized by
        the databases that :meth:`attach`."""
        super().__init__()
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes or 0
        #: leaf lock; nothing else is ever acquired while holding it
        self._blocks_lock = make_lock("sstable.block_cache")
        self._data: "OrderedDict[BlockKey, Block]" = OrderedDict()
        #: (directory, ssid) -> set of cached block indexes
        self._by_table: Dict[Tuple[str, int], Set[int]] = {}
        self._bytes = 0
        #: (directory, ssid) -> the table's one file-built reader
        self._readers: Dict[Tuple[str, int], SSTableReader] = {}
        #: rank directory of each open database -> its contribution
        self._attached: Dict[str, int] = {}
        #: bumped by every table invalidation: a reader resolved under
        #: an older generation may have been rebuilt since
        self.generation = 0

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._data)

    def get(self, directory: str, ssid: int, blk: int, promote: bool = True,
            sink: Optional[CacheCounters] = None) -> Optional[Block]:
        """Return the cached block or None; counts a hit or miss.

        ``promote=False`` (streaming calls: scan cursors, the
        sequential get) leaves the entry's recency untouched so streams
        do not fake heat onto blocks no point get asked for.
        """
        key, sink = (directory, ssid, blk), sink or _NOBODY
        with self._blocks_lock:
            annotate_write(self, "block_cache")  # recency + counters
            data = self._data.get(key)
            if data is None:
                self.misses += 1
                sink.misses += 1
                return None
            if promote:
                self._data.move_to_end(key)
            self.hits += 1
            sink.hits += 1
            return data

    def reader(self, store: PosixStore, directory: str,
               ssid: int) -> SSTableReader:
        """The table's one file-built reader on this device: its index
        and bloom are loaded and checked once, for every rank."""
        return self.readers(store, directory, [ssid])[0]

    def readers(self, store: PosixStore, directory: str,
                ssids: List[int]) -> List[SSTableReader]:
        """:meth:`reader` of each of ``ssids``, under one acquisition of
        the lock (a scan opening over every table of a rank)."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            for ssid in ssids:
                if (directory, ssid) not in self._readers:
                    self._readers[directory, ssid] = SSTableReader(
                        store, directory, ssid, block_cache=self)
            return [self._readers[directory, ssid] for ssid in ssids]

    # --------------------------------------------------------------- mutation
    def put(self, directory: str, ssid: int, blk: int, data: Block,
            low_priority: bool = False,
            sink: Optional[CacheCounters] = None) -> None:
        """Insert one verified block, charged ``len(data)`` bytes.

        Normal inserts land at the hot (MRU) end.  Low-priority inserts
        land at the cold (LRU) end: over budget they evict *themselves*
        first, so a streaming fill can never displace the hot set.
        """
        if len(data) > self.capacity_bytes:
            return  # a single oversized block cannot be cached
        key, sink = (directory, ssid, blk), sink or _NOBODY
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            old = self._data.get(key)
            self._data[key] = data
            self._bytes += len(data) - len(old or b"")
            if old is None:
                self._by_table.setdefault((directory, ssid), set()).add(blk)
            if low_priority:
                self.low_priority_inserts += 1
                sink.low_priority_inserts += 1
                if old is None:
                    self._data.move_to_end(key, last=False)
                # a streaming re-fill must not demote a block the
                # foreground heated up: refreshed in place, it keeps
                # its recency
            else:
                self.inserts += 1
                sink.inserts += 1
                self._data.move_to_end(key)
            self._evict_to_budget(sink)

    def _evict_to_budget(self, sink: CacheCounters) -> None:
        """Drop LRU-first down to the budget (caller holds the lock)."""
        while self._bytes > self.capacity_bytes and self._data:
            (d, s, b), blob = self._data.popitem(last=False)
            self._bytes -= len(blob)
            self.evictions += 1
            sink.evictions += 1
            blks = self._by_table[(d, s)]
            blks.discard(b)
            if not blks:
                del self._by_table[(d, s)]

    def attach(self, directory: str, capacity_bytes: int) -> CacheCounters:
        """The database on ``directory`` opens: its capacity joins the
        budget and nothing cached under the directory by an earlier life
        (a crashed job) survives.  Returns the counters of its share."""
        self.invalidate_dir(directory)
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            self._attached[directory] = capacity_bytes
            self.capacity_bytes = sum(self._attached.values())
            self._evict_to_budget(_NOBODY)
        return CacheCounters()

    def detach(self, directory: str) -> None:
        """It closed or was destroyed: its share of the budget and what
        is cached under the directory go; the rest trims to fit."""
        self.attach(directory, 0)

    def invalidate_table(self, directory: str, ssid: int,
                         sink: Optional[CacheCounters] = None) -> int:
        """Drop one table's reader and every cached block of it;
        returns blocks dropped."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            return self._drop_table(directory, ssid, sink or _NOBODY)

    def invalidate_dir(self, directory: str,
                       sink: Optional[CacheCounters] = None) -> int:
        """Drop every reader and cached block under one rank directory."""
        sink = sink or _NOBODY
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            tables = {k for k in (*self._by_table, *self._readers)
                      if k[0] == directory}
            return sum(self._drop_table(d, s, sink) for d, s in tables)

    def _drop_table(self, directory: str, ssid: int,
                    sink: CacheCounters) -> int:
        """Remove one table's reader and blocks (caller holds the lock)."""
        self.generation += 1
        self._readers.pop((directory, ssid), None)
        blks = self._by_table.pop((directory, ssid), ())
        for b in blks:
            self._bytes -= len(self._data.pop((directory, ssid, b)))
        self.invalidations += len(blks)
        sink.invalidations += len(blks)
        return len(blks)

    def clear(self, readers: bool = False) -> None:
        """Evict every block — and, when the files themselves are gone
        (a device trim), every reader."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            self.invalidations += len(self._data)
            self._data.clear()
            self._by_table.clear()
            self._bytes = 0
            if readers:
                self.generation += 1
                self._readers.clear()

    # ---------------------------------------------------------------- metrics
    def cached_blocks(self, directory: str, ssid: int) -> int:
        """How many blocks of one table are resident (tests/diagnostics)."""
        with self._blocks_lock:
            return len(self._by_table.get((directory, ssid), ()))

    def counters(self, of: Optional[CacheCounters] = None) -> Dict[str, int]:
        """Snapshot for ``repro.metrics``: the device's occupancy and
        budget, the traffic counts of ``of`` (default: the device's)."""
        counts = self if of is None else of
        with self._blocks_lock:
            return {
                "entries": len(self._data),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                # the six CacheCounters fields, by name
                **{name: getattr(counts, name) for name in vars(_NOBODY)},
            }
