"""Cost-budgeted LRU cache.

"The cache is a kind of MemTable, and it is managed in a LRU fashion"
(paper §2.3).  The local cache holds pairs fetched from SSTables; the
remote cache holds pairs fetched from remote ranks.  Capacity is a byte
budget (sum of key+value lengths), matching MemTable-style accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.analysis.runtime import annotate_write


class LRUCache:
    """LRU map from ``bytes`` keys to ``bytes`` values with a byte
    budget: an entry costs ``len(key) + len(value)``, and LRU entries
    are evicted until the total fits.  Callers provide their own
    locking; the race annotations here only flag unlocked cross-thread
    use."""

    __slots__ = ("capacity", "_data", "size_bytes", "hits", "misses",
                 "evictions", "_race_tag")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._data: "OrderedDict[bytes, bytes]" = OrderedDict()
        #: summed cost of all cached entries
        self.size_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the cached value and mark it most-recently-used."""
        annotate_write(self, "lru")  # recency + counters mutate
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: bytes, value: bytes) -> None:
        """Insert/refresh a pair, evicting LRU pairs to fit the budget."""
        annotate_write(self, "lru")
        cost = len(key) + len(value)
        if cost > self.capacity:
            self.invalidate(key)  # oversized entries cannot be cached
            return
        old = self._data.pop(key, None)
        if old is not None:
            self.size_bytes -= len(key) + len(old)
        self._data[key] = value
        self.size_bytes += cost
        while self.size_bytes > self.capacity and self._data:
            k, v = self._data.popitem(last=False)
            self.size_bytes -= len(k) + len(v)
            self.evictions += 1

    def invalidate(self, key: bytes) -> bool:
        """Drop a (possibly stale) entry. Returns True if it was present."""
        annotate_write(self, "lru")
        old = self._data.pop(key, None)
        if old is None:
            return False
        self.size_bytes -= len(key) + len(old)
        return True

    def clear(self) -> None:
        """Evict everything."""
        annotate_write(self, "lru")
        self._data.clear()
        self.size_bytes = 0
