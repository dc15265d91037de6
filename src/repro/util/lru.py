"""Cost-budgeted LRU cache.

"The cache is a kind of MemTable, and it is managed in a LRU fashion"
(paper §2.3).  The local cache holds pairs fetched from SSTables; the
remote cache holds pairs fetched from remote ranks.  Capacity is a byte
budget (sum of key+value lengths), matching MemTable-style accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, List, Optional, Tuple

from repro.analysis.runtime import annotate_read, annotate_write


class ObjectLRU:
    """Cost-budgeted LRU map from hashable keys to arbitrary values.

    The one LRU implementation, under the byte-keyed pair caches of
    :class:`LRUCache`.  Each ``put``
    carries an explicit ``cost`` (bytes, or 1 for a pure entry-count
    bound); LRU entries are evicted until the total cost fits the
    budget.  Callers provide their own locking; the race annotations
    here only flag unlocked cross-thread use.
    """

    __slots__ = ("capacity", "_data", "_costs", "_cost", "hits", "misses",
                 "evictions", "_race_tag")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._costs: dict = {}
        self._cost = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getitem__(self, key: Hashable) -> Any:
        """Mapping-style access without touching recency or statistics
        (``dict(cache)`` snapshots the contents)."""
        annotate_read(self, "lru")
        return self._data[key]

    @property
    def cost(self) -> int:
        """Summed cost of all cached entries."""
        return self._cost

    def get(self, key: Hashable) -> Optional[Any]:
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

    def put(self, key: Hashable, value: Any, cost: int = 1) -> None:
        """Insert/refresh an entry, evicting LRU entries to fit the budget."""
        annotate_write(self, "lru")
        if cost > self.capacity:
            self.invalidate(key)  # oversized entries cannot be cached
            return
        if self._data.pop(key, None) is not None:
            self._cost -= self._costs.pop(key)
        self._data[key] = value
        self._costs[key] = cost
        self._cost += cost
        while self._cost > self.capacity and self._data:
            k, _ = self._data.popitem(last=False)
            self._cost -= self._costs.pop(k)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop a (possibly stale) entry. Returns True if it was present."""
        annotate_write(self, "lru")
        if self._data.pop(key, None) is None:
            return False
        self._cost -= self._costs.pop(key)
        return True

    def invalidate_where(self, pred: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``pred``; returns the count."""
        annotate_write(self, "lru")
        doomed = [k for k in self._data if pred(k)]
        for k in doomed:
            del self._data[k]
            self._cost -= self._costs.pop(k)
        return len(doomed)

    def clear(self) -> None:
        """Evict everything."""
        annotate_write(self, "lru")
        self._data.clear()
        self._costs.clear()
        self._cost = 0

    def keys(self) -> List[Hashable]:
        """Snapshot of cached keys, LRU first."""
        annotate_read(self, "lru")
        return list(self._data.keys())

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Snapshot of (key, value) pairs, LRU first."""
        annotate_read(self, "lru")
        return iter(list(self._data.items()))


class LRUCache(ObjectLRU):
    """LRU map from ``bytes`` keys to ``bytes`` values with a byte
    budget: an entry costs ``len(key) + len(value)``."""

    __slots__ = ()

    def put(self, key: bytes, value: bytes) -> None:  # type: ignore[override]
        """Insert/refresh a pair, evicting LRU pairs to fit the budget."""
        ObjectLRU.put(self, key, value, len(key) + len(value))

    @property
    def capacity_bytes(self) -> int:
        return self.capacity

    @property
    def size_bytes(self) -> int:
        return self._cost
