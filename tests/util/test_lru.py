"""LRU cache tests: byte budget, recency, invalidation, statistics."""

from __future__ import annotations

import pytest

from repro.util.lru import LRUCache


class TestBasics:
    def test_put_get(self):
        c = LRUCache(1024)
        c.put(b"k", b"v")
        assert c.get(b"k") == b"v"
        assert len(c) == 1
        assert b"k" in c

    def test_miss_returns_none(self):
        c = LRUCache(1024)
        assert c.get(b"missing") is None
        assert c.misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_size_accounting(self):
        c = LRUCache(1024)
        c.put(b"abc", b"12345")
        assert c.size_bytes == 8
        c.put(b"abc", b"1")  # replace shrinks
        assert c.size_bytes == 4


class TestEviction:
    def test_lru_order(self):
        c = LRUCache(30)
        c.put(b"a", b"0123456789")  # 11 bytes
        c.put(b"b", b"0123456789")  # 22
        c.get(b"a")  # a is now MRU
        c.put(b"c", b"0123456789")  # 33 > 30: evict LRU = b
        assert c.get(b"b") is None
        assert c.get(b"a") is not None
        assert c.get(b"c") is not None
        assert c.evictions == 1

    def test_oversized_entry_not_cached(self):
        c = LRUCache(10)
        c.put(b"k", b"x" * 100)
        assert c.get(b"k") is None
        assert c.size_bytes == 0

    def test_oversized_put_drops_stale_copy(self):
        c = LRUCache(20)
        c.put(b"k", b"small")
        c.put(b"k", b"x" * 100)  # too big: the old entry must vanish too
        assert c.get(b"k") is None

    def test_budget_never_exceeded(self):
        c = LRUCache(100)
        for i in range(50):
            c.put(f"key-{i:03d}".encode(), b"v" * 10)
            assert c.size_bytes <= 100


class TestInvalidation:
    def test_invalidate_present(self):
        c = LRUCache(1024)
        c.put(b"k", b"v")
        assert c.invalidate(b"k") is True
        assert c.get(b"k") is None
        assert c.size_bytes == 0

    def test_invalidate_absent(self):
        c = LRUCache(1024)
        assert c.invalidate(b"k") is False

    def test_clear(self):
        c = LRUCache(1024)
        for i in range(5):
            c.put(str(i).encode(), b"v")
        c.clear()
        assert len(c) == 0
        assert c.size_bytes == 0

    def test_items_snapshot(self):
        c = LRUCache(1024)
        c.put(b"a", b"1")
        c.put(b"b", b"2")
        assert dict(c.items()) == {b"a": b"1", b"b": b"2"}

    def test_hit_statistics(self):
        c = LRUCache(1024)
        c.put(b"k", b"v")
        c.get(b"k")
        c.get(b"k")
        c.get(b"nope")
        assert c.hits == 2
        assert c.misses == 1


class TestObjectLRU:
    """Cost-budgeted LRU over arbitrary keys/values (peer caches)."""

    def _cache(self, capacity=100):
        from repro.util.lru import ObjectLRU

        return ObjectLRU(capacity)

    def test_put_get_arbitrary_objects(self):
        c = self._cache()
        handle = object()
        c.put(("dir", 1), handle, cost=10)
        assert c.get(("dir", 1)) is handle
        assert ("dir", 1) in c
        assert c.cost == 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            self._cache(-1)

    def test_cost_budget_evicts_lru(self):
        c = self._cache(100)
        c.put("a", 1, cost=40)
        c.put("b", 2, cost=40)
        c.get("a")  # a is MRU
        c.put("c", 3, cost=40)  # 120 > 100: evict LRU = b
        assert c.get("b") is None
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.evictions == 1
        assert c.cost == 80

    def test_replace_adjusts_cost(self):
        c = self._cache(100)
        c.put("k", 1, cost=60)
        c.put("k", 2, cost=10)
        assert c.cost == 10
        assert c.get("k") == 2

    def test_oversized_entry_not_cached_and_drops_stale(self):
        c = self._cache(10)
        c.put("k", 1, cost=5)
        c.put("k", 2, cost=50)  # oversized refresh evicts the stale copy
        assert c.get("k") is None
        assert c.cost == 0

    def test_invalidate_where_prefix(self):
        c = self._cache(100)
        c.put(("r0", 1), "x")
        c.put(("r0", 2), "y")
        c.put(("r1", 1), "z")
        assert c.invalidate_where(lambda k: k[0] == "r0") == 2
        assert c.get(("r1", 1)) == "z"
        assert len(c) == 1

    def test_entry_count_bound_with_unit_costs(self):
        c = self._cache(3)
        for i in range(5):
            c.put(i, i)
        assert len(c) == 3
        assert c.evictions == 2

    def test_peek_and_clear(self):
        c = self._cache(100)
        c.put("k", "v", cost=5)
        c.clear()
        assert len(c) == 0 and c.cost == 0

    def test_keys_lru_first(self):
        c = self._cache(100)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")
        assert c.keys() == ["b", "a"]

    def test_dict_snapshot(self):
        c = self._cache(100)
        c.put("a", 1)
        c.put("b", 2)
        assert dict(c) == {"a": 1, "b": 2}
        assert c["a"] == 1  # no recency/stat side effects
        assert c.hits == 0 and c.misses == 0
        with pytest.raises(KeyError):
            c["missing"]
