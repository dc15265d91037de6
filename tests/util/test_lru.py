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

    def test_hit_statistics(self):
        c = LRUCache(1024)
        c.put(b"k", b"v")
        c.get(b"k")
        c.get(b"k")
        c.get(b"nope")
        assert c.hits == 2
        assert c.misses == 1
