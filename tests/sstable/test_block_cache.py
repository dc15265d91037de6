"""The device's read cache: LRU accounting, verified-once fills, and
what makes one cache serve every rank on the device.

Unit tests of :class:`repro.sstable.block_cache.BlockCache` itself plus
the reader integration that makes it safe: blocks enter the cache only
through a CRC-checked fill, so a cache hit never re-reads (or re-trusts)
the device.  ``TestDeviceCache`` covers the per-device half: the budget
the open databases make up, the one file-built reader per table, the
per-database counters, and concurrent cold starts.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.errors import CorruptionError
from repro.nvm.posixfs import PosixStore
from repro.simtime.clock import VirtualClock
from repro.simtime.resources import TimedResource
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record
from repro.sstable.reader import Block, SSTableReader
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

    def test_read_all_checks_every_block_and_fills_nothing(self, store):
        """Compaction retires what it reads in the same call: caching
        it would only cost a decode and an invalidation."""
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(1 << 20)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        records, _ = rd.read_all(0.0)
        assert records == RECORDS
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        footer, _ = rd.footer(0.0)
        last = len(footer.block_crcs) - 1
        assert last > 0
        flip_byte(store, "t/0000000001.ssd",
                  offset=last * footer.block_size + 5)
        with pytest.raises(CorruptionError, match=f"block {last}"):
            rd.read_all(0.0)

    def test_a_rotted_block_raises_mid_scan_and_is_never_cached(self, store):
        """A scan delivers every record before the bad block, then
        CorruptionError — twice, since nothing of the block, decoded or
        raw, was cached — while the good blocks sit decoded."""
        bs, bad = 4096, 5
        write_table(store, "t", 1, RECORDS, block_size=bs)
        flip_byte(store, "t/0000000001.ssd", offset=bad * bs + 7)
        cache = BlockCache(1 << 20)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        index, _ = rd.load_index(0.0)
        clean = [r for r, e in zip(RECORDS, index)
                 if e.offset + e.record_len <= bad * bs]
        for _ in range(2):
            got = []
            with pytest.raises(CorruptionError, match=f"block {bad}"):
                for run in rd.runs(None, None, VirtualClock(),
                                   stats=SimpleNamespace(scan_blocks_read=0)):
                    got.extend(run)
            assert got == clean
            assert cache.get("t", 1, bad, promote=False) is None
            assert len(cache) == cache.cached_blocks("t", 1) == bad
            assert all(isinstance(cache.get("t", 1, b, promote=False), Block)
                       for b in range(bad))

    def test_a_decoded_block_is_charged_what_it_holds(self, store):
        """Decoded, 41-byte records hold about four times their bytes;
        the charge follows, so the budget bounds memory."""
        write_table(store, "t", 1, [Record(b"k%015d" % i, b"v" * 16)
                                    for i in range(3000)])
        cache = BlockCache(1 << 22)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        for _ in rd.runs(None, None, VirtualClock(),
                         stats=SimpleNamespace(scan_blocks_read=0)):
            pass
        held = 0
        for blk in range(len(cache)):
            block = cache.get("t", 1, blk, promote=False)
            held += len(block.head) + len(block.tail) + sum(
                sys.getsizeof(r) + sys.getsizeof(r[0]) + sys.getsizeof(r[1])
                + 8 for r in block.recs)
        assert len(cache) == 2
        assert cache.size_bytes > 3 * store.size("t/0000000001.ssd")
        assert abs(cache.size_bytes - held) < 0.01 * held

    def test_cache_consistent_across_all_keys(self, store):
        """Every key read through a tiny (thrashing) cache still
        returns exactly what an uncached reader returns."""
        write_table(store, "t", 1, RECORDS)
        cache = BlockCache(100 * 1024)  # one decoded block: constant thrash
        cached = SSTableReader(store, "t", 1, block_cache=cache)
        plain = SSTableReader(store, "t", 1)
        for r in RECORDS:
            a, _ = cached.get(r.key, 0.0)
            b, _ = plain.get(r.key, 0.0)
            assert a == b
        assert cache.evictions > 0  # the budget actually bit


def _sidecar_and_block_reads(store, monkeypatch):
    """Log ``(path, offset)`` of every device read the store serves."""
    log = []
    read = PosixStore.read

    def logging_read(self, relpath, t, offset=0, length=None):
        log.append((relpath, offset))
        return read(self, relpath, t, offset, length)

    monkeypatch.setattr(PosixStore, "read", logging_read)
    return log


class TestDeviceCache:
    """One cache per storage device: a budget the open databases make
    up, one file-built reader per table, per-database counters."""

    def test_budget_is_the_sum_of_attached_capacities(self):
        c = BlockCache()  # a device's cache: no budget of its own
        assert c.capacity_bytes == 0
        c.put("r0", 1, 0, b"x" * 10)
        assert len(c) == 0  # nobody attached: nothing can be cached
        c.attach("r0", 100)
        c.attach("r1", 60)
        assert c.capacity_bytes == 160
        c.attach("r0", 100)  # a re-open replaces, never double-counts
        assert c.capacity_bytes == 160
        c.detach("r1")
        c.detach("r1")  # idempotent
        assert c.capacity_bytes == 100

    def test_detach_drops_its_directory_and_spares_the_survivor(self):
        c = BlockCache()
        c.attach("r0", 100)
        c.attach("r1", 100)
        for blk in range(4):
            c.put("r0", 1, blk, b"a" * 40)
        c.put("r1", 1, 0, b"b" * 40)  # 200 bytes: the budget is full
        c.get("r0", 1, 0)  # hotter than r1's block: LRU alone would keep it
        c.detach("r0")
        assert c.capacity_bytes == 100
        assert c.cached_blocks("r0", 1) == 0
        assert c.get("r1", 1, 0) == b"b" * 40  # working set still readable
        assert c.size_bytes == 40

    def test_detach_trims_the_rest_to_the_remaining_budget(self):
        c = BlockCache()
        c.attach("r0", 100)
        c.attach("r1", 100)
        for blk in range(4):
            c.put("r1", 1, blk, b"b" * 40)  # r1 borrowed r0's share
        evicted = c.evictions
        c.detach("r0")
        assert c.size_bytes <= c.capacity_bytes == 100
        assert c.evictions == evicted + 2  # coldest first
        assert [c.get("r1", 1, blk) is not None for blk in range(4)] == [
            False, False, True, True]

    def test_one_reader_per_table_loads_each_sidecar_once(self, store,
                                                          monkeypatch):
        write_table(store, "t", 1, RECORDS)
        write_table(store, "t", 2, RECORDS)
        log = _sidecar_and_block_reads(store, monkeypatch)
        c = BlockCache(1 << 20)
        rd = c.reader(store, "t", 1)
        assert c.reader(store, "t", 1) is rd and rd._cache is c
        assert c.reader(store, "t", 2) is not rd
        for _ in range(3):  # three "ranks" asking for keys of one block
            rec, _ = c.reader(store, "t", 1).get(b"key0007", 0.0)
            assert rec.value == b"val0007" * 40
        assert sorted(log) == [("t/0000000001.bf", 0), ("t/0000000001.ssd", 0),
                               ("t/0000000001.ssi", 0)]

    def test_invalidation_drops_the_reader_with_the_blocks(self, store):
        for ssid in (1, 2):
            write_table(store, "r0", ssid, RECORDS)
        write_table(store, "r1", 1, RECORDS)
        c = BlockCache(1 << 20)
        readers = {k: c.reader(store, *k)
                   for k in (("r0", 1), ("r0", 2), ("r1", 1))}
        for rd in readers.values():
            rd.get(b"key0100", 0.0)
        assert c.invalidate_table("r0", 1) == 1
        assert c.reader(store, "r0", 1) is not readers["r0", 1]
        assert c.reader(store, "r0", 2) is readers["r0", 2]
        assert c.invalidate_dir("r0") == 1  # table 2's block; 1's is gone
        assert c.reader(store, "r0", 2) is not readers["r0", 2]
        assert c.cached_blocks("r0", 2) == 0
        # another rank's directory is untouched
        assert c.reader(store, "r1", 1) is readers["r1", 1]
        assert c.cached_blocks("r1", 1) == 1

    def test_attach_forgets_an_earlier_life_of_the_directory(self, store):
        """The cache outlives a database: what a crashed job left under
        a rank directory must not be served to the job that reopens it."""
        write_table(store, "r0", 1, RECORDS)
        c = BlockCache()
        c.attach("r0", 1 << 20)
        rd = c.reader(store, "r0", 1)
        rd.get(b"key0001", 0.0)
        assert c.cached_blocks("r0", 1) == 1
        c.attach("r0", 1 << 20)  # reopened without a clean close
        assert c.cached_blocks("r0", 1) == 0
        assert c.reader(store, "r0", 1) is not rd

    def test_clear_keeps_readers_unless_the_device_was_trimmed(self, store):
        write_table(store, "t", 1, RECORDS)
        c = BlockCache(1 << 20)
        rd = c.reader(store, "t", 1)
        rd.get(b"key0001", 0.0)
        c.clear()
        assert len(c) == 0 and c.reader(store, "t", 1) is rd
        c.clear(readers=True)
        assert c.reader(store, "t", 1) is not rd

    def test_sinks_split_the_devices_counters(self):
        c = BlockCache()
        a, b = c.attach("r0", 50), c.attach("r1", 50)
        assert c.get("r0", 1, 0, sink=a) is None
        c.put("r0", 1, 0, b"x" * 40, sink=a)
        assert c.get("r0", 1, 0, sink=b) == b"x" * 40
        assert c.get("r0", 1, 9) is None  # nobody's: the device's only
        c.put("r1", 1, 0, b"y" * 40, sink=b)
        c.put("r1", 1, 1, b"z" * 40, low_priority=True, sink=b)  # evicts itself
        assert c.invalidate_table("r0", 1, sink=b) == 1
        assert vars(a) == dict(hits=0, misses=1, evictions=0, inserts=1,
                               low_priority_inserts=0, invalidations=0)
        assert vars(b) == dict(hits=1, misses=0, evictions=1, inserts=1,
                               low_priority_inserts=1, invalidations=1)
        assert (c.hits, c.misses, c.evictions, c.invalidations) == (1, 2, 1, 1)
        snap = c.counters(a)
        assert (snap["entries"], snap["bytes"], snap["capacity_bytes"]) == (
            1, 40, 100)  # the device's
        assert (snap["hits"], snap["misses"]) == (0, 1)  # a's own
        assert c.counters()["misses"] == 2

    def test_concurrent_first_touch_reads_everything_once(self, store,
                                                          monkeypatch):
        """Many threads cold-starting on one table: each sidecar and
        each block still comes off the device once."""
        write_table(store, "t", 1, RECORDS)
        log = _sidecar_and_block_reads(store, monkeypatch)
        c = BlockCache(1 << 22)
        go = threading.Barrier(8, timeout=60.0)
        wrong = []

        def rank(i):
            sink = c.attach(f"r{i}", 1 << 19)
            go.wait()
            for r in RECORDS[i::8]:
                rec, _ = c.reader(store, "t", 1).get(r.key, 0.0, sink=sink)
                if rec != r:
                    wrong.append(r.key)

        threads = [threading.Thread(target=rank, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand over mid-lookup, all the time
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong
        assert len(log) == len(set(log))
        assert {p for p, _ in log} == {
            "t/0000000001.bf", "t/0000000001.ssd", "t/0000000001.ssi"}
        assert c.misses == sum(p.endswith(".ssd") for p, _ in log)
