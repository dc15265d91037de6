"""Shared SSData block cache for the read path.

FOCUS-style hierarchical caching (arXiv:2505.24221): the dominant
read-amplification lever for LSM gets is keeping hot metadata and data
blocks resident, so every :class:`~repro.sstable.reader.SSTableReader`
of one database — own tables and storage-group peers' tables alike —
shares a single :class:`BlockCache` over 64KB-aligned SSData block
spans.

Design points:

* **Charged bytes, not entries.**  Capacity is a byte budget over the
  cached block payloads, like the MemTable-style accounting of
  :class:`repro.util.lru.LRUCache`.
* **Verified-once fill.**  Blocks enter the cache only through the
  reader's fill path, which checks the footer CRC-32 *before* insert —
  a cache hit never needs re-verification, and a corrupt block can
  never be cached.
* **Low-priority inserts.**  Compaction and whole-table scans stream
  every block of their inputs; inserting those at the hot end would
  evict the point-get working set (the Co-KV observation,
  arXiv:1807.04151).  A low-priority insert lands at the *cold* end of
  the LRU order: it fills free budget but is the first thing evicted —
  when the cache is full it effectively evicts itself instead of a hot
  block, so a streaming reader holds the block it is working through.
* **Precise invalidation.**  Entries are keyed ``(directory, ssid,
  block)`` with a per-table index, so flush/compaction/quarantine and
  checkpoint-restore repair can drop exactly the affected table (or a
  whole rank directory) without flushing unrelated working sets.
* **Thread safety.**  One tracked lock (``sstable.block_cache`` in the
  canonical lock order) guards all state; the main rank thread and the
  message handler both read through the cache.  Accesses are annotated
  for the race detector.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from repro.analysis.runtime import annotate_write, make_lock

#: key of one cached span: (directory, ssid, block index)
BlockKey = Tuple[str, int, int]


class BlockCache:
    """Size-bounded LRU over verified SSData block spans."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: leaf lock; nothing else is ever acquired while holding it
        self._blocks_lock = make_lock("sstable.block_cache")
        self._data: "OrderedDict[BlockKey, bytes]" = OrderedDict()
        #: (directory, ssid) -> set of cached block indexes
        self._by_table: Dict[Tuple[str, int], Set[int]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self.low_priority_inserts = 0
        self.invalidations = 0

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._data)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def get(self, directory: str, ssid: int, blk: int,
            promote: bool = True) -> Optional[bytes]:
        """Return the cached block or None; counts a hit or miss.

        ``promote=False`` (streaming calls: scan cursors, the
        sequential get) leaves the entry's recency untouched so streams
        do not fake heat onto blocks no point get asked for.
        """
        key = (directory, ssid, blk)
        with self._blocks_lock:
            annotate_write(self, "block_cache")  # recency + counters
            data = self._data.get(key)
            if data is None:
                self.misses += 1
                return None
            if promote:
                self._data.move_to_end(key)
            self.hits += 1
            return data

    # --------------------------------------------------------------- mutation
    def put(self, directory: str, ssid: int, blk: int, data: bytes,
            low_priority: bool = False) -> None:
        """Insert one verified block.

        Normal inserts land at the hot (MRU) end.  Low-priority inserts
        land at the cold (LRU) end: over budget they evict *themselves*
        first, so a streaming fill can never displace the hot set.
        """
        if len(data) > self.capacity_bytes:
            return  # a single oversized block cannot be cached
        key = (directory, ssid, blk)
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            old = self._data.get(key)
            if old is not None:
                # refresh in place: a streaming re-fill must not demote
                # a block the foreground heated up, so the entry keeps
                # its recency unless the insert itself is hot
                self._bytes += len(data) - len(old)
                self._data[key] = data
                if low_priority:
                    self.low_priority_inserts += 1
                else:
                    self.inserts += 1
                    self._data.move_to_end(key)
            else:
                self._data[key] = data
                self._bytes += len(data)
                self._by_table.setdefault((directory, ssid), set()).add(blk)
                if low_priority:
                    self.low_priority_inserts += 1
                    self._data.move_to_end(key, last=False)
                else:
                    self.inserts += 1
            while self._bytes > self.capacity_bytes and self._data:
                (d, s, b), blob = self._data.popitem(last=False)
                self._bytes -= len(blob)
                self.evictions += 1
                blks = self._by_table.get((d, s))
                if blks is not None:
                    blks.discard(b)
                    if not blks:
                        del self._by_table[(d, s)]

    def invalidate_table(self, directory: str, ssid: int) -> int:
        """Drop every cached block of one table; returns blocks dropped."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            return self._drop_table(directory, ssid)

    def invalidate_dir(self, directory: str) -> int:
        """Drop every cached block under one rank directory."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            dropped = 0
            for d, s in [k for k in self._by_table if k[0] == directory]:
                dropped += self._drop_table(d, s)
            return dropped

    def _drop_table(self, directory: str, ssid: int) -> int:
        """Remove one table's blocks (caller holds the lock)."""
        blks = self._by_table.pop((directory, ssid), None)
        if not blks:
            return 0
        for b in blks:
            blob = self._data.pop((directory, ssid, b), None)
            if blob is not None:
                self._bytes -= len(blob)
        self.invalidations += len(blks)
        return len(blks)

    def clear(self) -> None:
        """Evict everything (whole-database teardown)."""
        with self._blocks_lock:
            annotate_write(self, "block_cache")
            self.invalidations += len(self._data)
            self._data.clear()
            self._by_table.clear()
            self._bytes = 0

    # ---------------------------------------------------------------- metrics
    def cached_blocks(self, directory: str, ssid: int) -> int:
        """How many blocks of one table are resident (tests/diagnostics)."""
        with self._blocks_lock:
            return len(self._by_table.get((directory, ssid), ()))

    def counters(self) -> Dict[str, int]:
        """Counter snapshot for ``repro.metrics``."""
        with self._blocks_lock:
            return {
                "entries": len(self._data),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "inserts": self.inserts,
                "low_priority_inserts": self.low_priority_inserts,
                "invalidations": self.invalidations,
            }
