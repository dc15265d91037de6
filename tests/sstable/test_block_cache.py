"""The shared SSData block cache: LRU accounting and verified-once fills.

Unit tests of :class:`repro.sstable.block_cache.BlockCache` itself plus
the reader integration that makes it safe: blocks enter the cache only
through a CRC-checked fill, so a cache hit never re-reads (or re-trusts)
the device.
"""

from __future__ import annotations

import pytest

from repro.errors import CorruptionError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record
from repro.sstable.reader import SSTableReader
from tests.conftest import flip_byte, write_table


@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))


RECORDS = [Record(f"key{i:04d}".encode(), f"val{i:04d}".encode() * 40)
           for i in range(300)]


class TestAccounting:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockCache(0)
        with pytest.raises(ValueError):
            BlockCache(-1)

    def test_put_get_roundtrip_and_counters(self):
        c = BlockCache(1024)
        assert c.get("d", 1, 0) is None
        assert c.misses == 1
        c.put("d", 1, 0, b"x" * 10)
        assert c.get("d", 1, 0) == b"x" * 10
        assert (c.hits, c.inserts) == (1, 1)
        assert len(c) == 1 and c.size_bytes == 10

    def test_replacement_recharges_bytes(self):
        c = BlockCache(1024)
        c.put("d", 1, 0, b"x" * 100)
        c.put("d", 1, 0, b"y" * 30)
        assert c.size_bytes == 30 and len(c) == 1
        assert c.get("d", 1, 0) == b"y" * 30

    def test_byte_budget_evicts_lru_first(self):
        c = BlockCache(100)
        c.put("d", 1, 0, b"a" * 40)
        c.put("d", 1, 1, b"b" * 40)
        c.put("d", 1, 2, b"c" * 40)  # over budget: block 0 goes
        assert c.evictions == 1
        assert c.get("d", 1, 0) is None
        assert c.get("d", 1, 1) is not None
        assert c.size_bytes <= 100

    def test_get_promotes_against_eviction(self):
        c = BlockCache(100)
        c.put("d", 1, 0, b"a" * 40)
        c.put("d", 1, 1, b"b" * 40)
        c.get("d", 1, 0)             # block 0 is now hottest
        c.put("d", 1, 2, b"c" * 40)  # block 1, not 0, is evicted
        assert c.get("d", 1, 0) is not None
        assert c.get("d", 1, 1) is None

    def test_unpromoted_get_leaves_recency(self):
        c = BlockCache(100)
        c.put("d", 1, 0, b"a" * 40)
        c.put("d", 1, 1, b"b" * 40)
        c.get("d", 1, 0, promote=False)  # still coldest
        c.put("d", 1, 2, b"c" * 40)
        assert c.get("d", 1, 0) is None

    def test_low_priority_insert_self_evicts(self):
        """A streaming fill over budget must not displace the hot set."""
        c = BlockCache(100)
        c.put("d", 1, 0, b"a" * 40)
        c.put("d", 1, 1, b"b" * 40)
        c.put("d", 9, 0, b"s" * 40, low_priority=True)  # cold end
        assert c.low_priority_inserts == 1
        # the low-priority block evicted itself, not a hot block
        assert c.get("d", 9, 0) is None
        assert c.get("d", 1, 0) is not None
        assert c.get("d", 1, 1) is not None

    def test_low_priority_fills_free_budget(self):
        c = BlockCache(1024)
        c.put("d", 9, 0, b"s" * 40, low_priority=True)
        assert c.get("d", 9, 0) == b"s" * 40

    def test_oversized_block_refused(self):
        c = BlockCache(16)
        c.put("d", 1, 0, b"x" * 17)
        assert len(c) == 0 and c.size_bytes == 0
        assert c.get("d", 1, 0) is None


class TestInvalidation:
    def _fill(self):
        c = BlockCache(1 << 20)
        for blk in range(3):
            c.put("r0", 1, blk, b"a" * 10)
        c.put("r0", 2, 0, b"b" * 10)
        c.put("r1", 1, 0, b"c" * 10)
        return c

    def test_invalidate_table_is_precise(self):
        c = self._fill()
        assert c.invalidate_table("r0", 1) == 3
        assert c.invalidations == 3
        assert c.cached_blocks("r0", 1) == 0
        # unrelated tables untouched
        assert c.get("r0", 2, 0) is not None
        assert c.get("r1", 1, 0) is not None
        assert c.size_bytes == 20

    def test_invalidate_missing_table_is_noop(self):
        c = self._fill()
        assert c.invalidate_table("r0", 99) == 0
        assert c.size_bytes == 50

    def test_invalidate_dir_drops_whole_rank(self):
        c = self._fill()
        assert c.invalidate_dir("r0") == 4
        assert c.get("r0", 1, 0) is None
        assert c.get("r1", 1, 0) is not None

    def test_clear(self):
        c = self._fill()
        c.clear()
        assert len(c) == 0 and c.size_bytes == 0
        assert c.invalidations == 5

    def test_counters_snapshot(self):
        c = self._fill()
        c.get("r0", 1, 0)
        c.get("r9", 9, 9)
        snap = c.counters()
        assert snap["entries"] == 5 and snap["bytes"] == 50
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["inserts"] == 5
        assert snap["capacity_bytes"] == 1 << 20


class TestReaderIntegration:
    def test_probe_fills_and_second_reader_hits(self, store):
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(1 << 20)
        rd1 = SSTableReader(store, "t", 1, block_cache=cache)
        rec, _ = rd1.get(b"key0123", 0.0)
        assert rec.value == b"val0123" * 40
        assert cache.inserts > 0 and cache.misses > 0
        # a brand-new reader of the same table reads through the cache
        hits0 = cache.hits
        rd2 = SSTableReader(store, "t", 1, block_cache=cache)
        rec, _ = rd2.get(b"key0123", 0.0)
        assert rec.value == b"val0123" * 40
        assert cache.hits > hits0

    def test_verified_once_cache_survives_later_damage(self, store):
        """The cache holds bytes verified at fill; damaging the file
        afterwards must not reach cached reads — while an uncached
        reader of the same file sees the corruption immediately."""
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(1 << 20)
        warm = SSTableReader(store, "t", 1, block_cache=cache)
        rec, _ = warm.get(b"key0042", 0.0)  # fills + verifies the blocks
        flip_byte(store, "t/0000000001.ssd", offset=50)
        again, _ = SSTableReader(store, "t", 1, block_cache=cache).get(
            b"key0042", 0.0
        )
        assert again.value == rec.value == b"val0042" * 40
        with pytest.raises(CorruptionError):
            SSTableReader(store, "t", 1).get(b"key0042", 0.0)

    def test_fill_time_corruption_raises_and_never_caches(self, store):
        write_table(store, "t", 1, RECORDS)
        flip_byte(store, "t/0000000001.ssd", offset=50)
        cache = BlockCache(1 << 20)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        with pytest.raises(CorruptionError):
            for r in RECORDS:
                rd.get(r.key, 0.0)
        assert cache.cached_blocks("t", 1) == 0

    def test_read_all_inserts_low_priority(self, store):
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(1 << 20)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        records, _ = rd.read_all(0.0)
        assert records == RECORDS
        assert cache.low_priority_inserts > 0 and cache.inserts == 0
        assert cache.cached_blocks("t", 1) == cache.low_priority_inserts

    def test_cache_consistent_across_all_keys(self, store):
        """Every key read through a tiny (thrashing) cache still
        returns exactly what an uncached reader returns."""
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(64 * 1024)  # one block: constant thrash
        cached = SSTableReader(store, "t", 1, block_cache=cache)
        plain = SSTableReader(store, "t", 1)
        for r in RECORDS:
            a, _ = cached.get(r.key, 0.0)
            b, _ = plain.get(r.key, 0.0)
            assert a == b
        assert cache.evictions > 0  # the budget actually bit
