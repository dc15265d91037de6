"""Range-scan tests: merged LSM iteration across all tiers."""

from __future__ import annotations

import gc
import os
import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Options, Papyrus, SSTABLE, WRONLY, RDWR, ProtectionError, spmd_run,
)
from repro.errors import CorruptionError
from repro.sstable.format import DATA_BLOCK_SIZE
from tests.conftest import flip_byte, merge_scan, small_options


def _in_range(key, start, end):
    return (start is None or key >= start) and (end is None or key < end)


def reference_scan(db, start=None, end=None, include_replicas=False):
    """The seed-era scan: ``read_all`` every table, materialize every tier.

    The oracle the property tests compare the streamed path against
    (it lived in ``repro.core.scan`` until PR 14).  No pruning, no
    pinning, full materialization.
    """
    with db._lock:
        db._retire_flushed(db.clock.now)
        tiers: list = []
        mts = [db.local_mt] + [f.imm for f in reversed(db.flushing)]
        for mt in mts:  # newest first
            tiers.append([
                (r.key, r.value, r.tombstone) for r in mt.to_records()
                if _in_range(r.key, start, end)
            ])
        ssids = list(db.ssids)
    t = db.clock.now
    for ssid in reversed(ssids):  # newest first
        reader = db._reader(ssid)
        records, t = reader.read_all(t)
        tiers.append([
            (r.key, r.value, r.tombstone) for r in records
            if _in_range(r.key, start, end)
        ])
    db.clock.advance_to(t)
    pairs = list(merge_scan(tiers, start, end))
    if db.repl is not None and not include_replicas:
        pairs = [(k, v) for k, v in pairs
                 if db.repl.group(k, check=False)[0] == db.rank]
    return pairs


class TestMergeScan:
    def test_single_tier(self):
        tiers = [[(b"a", b"1", False), (b"b", b"2", False)]]
        assert list(merge_scan(tiers)) == [(b"a", b"1"), (b"b", b"2")]

    def test_newest_tier_wins(self):
        tiers = [
            [(b"k", b"new", False)],   # newest
            [(b"k", b"old", False)],
        ]
        assert list(merge_scan(tiers)) == [(b"k", b"new")]

    def test_tombstone_shadows(self):
        tiers = [
            [(b"k", b"", True)],
            [(b"k", b"old", False)],
        ]
        assert list(merge_scan(tiers)) == []

    def test_range_bounds_half_open(self):
        tiers = [[(bytes([c]), b"v", False) for c in b"abcde"]]
        assert [k for k, _ in merge_scan(tiers, b"b", b"d")] == [b"b", b"c"]

    def test_empty_tiers(self):
        assert list(merge_scan([])) == []
        assert list(merge_scan([[], []])) == []


class TestScanLocal:
    def test_spans_memtable_and_sstables(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                # first generation: flushed to SSTables
                for i in range(40):
                    db.put(f"a{i:03d}".encode(), b"gen1")
                db.barrier(SSTABLE)
                # second generation: still in the MemTable
                for i in range(40, 60):
                    db.put(f"a{i:03d}".encode(), b"gen2")
                pairs = db.scan_local()
                keys = [k for k, _ in pairs]
                assert keys == sorted(keys)
                # this rank's shard only: every key it owns, no others
                for k, v in pairs:
                    assert db.owner_of(k) == ctx.world_rank
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_overwrite_returns_newest(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                db.put(b"k", b"old")
                db.barrier(SSTABLE)
                db.put(b"k", b"new")
                if db.owner_of(b"k") == ctx.world_rank:
                    # the overwrite may still be staged remotely; fence
                    pass
                db.barrier()
                pairs = dict(db.scan_collect())
                assert pairs[b"k"] == b"new"
                db.close()

        spmd_run(2, app)

    def test_deleted_keys_absent(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                for i in range(30):
                    db.put(f"k{i:02d}".encode(), b"v")
                db.barrier(SSTABLE)
                for i in range(0, 30, 2):
                    db.delete(f"k{i:02d}".encode())
                db.barrier()
                keys = [k for k, _ in db.scan_collect()]
                assert keys == [f"k{i:02d}".encode() for i in range(1, 30, 2)]
                db.close()

        spmd_run(2, app)

    def test_range_query(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                for i in range(50):
                    db.put(f"{i:03d}".encode(), str(i).encode())
                db.barrier()
                pairs = db.scan_collect(b"010", b"020")
                assert [k for k, _ in pairs] == [
                    f"{i:03d}".encode() for i in range(10, 20)
                ]
                db.close()

        spmd_run(3, app)

    def test_wronly_rejects_scan(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                db.protect(WRONLY)
                with pytest.raises(ProtectionError):
                    db.scan_local()
                db.protect(RDWR)
                db.close()

        spmd_run(1, app)

    def test_count_local_sums_to_total(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scan", small_options())
                for i in range(70):
                    db.put(f"x{i:02d}".encode(), b"v")
                db.barrier(SSTABLE)
                counts = ctx.comm.allgather(db.count_local())
                assert sum(counts) == 70
                db.close()

        spmd_run(3, app)


class TestStreamedScan:
    """The lazy iterator: snapshot pinning, pruning, counters."""

    def test_matches_reference_across_tiers(self):
        """Streamed scan == the seed-era materializing oracle with
        overwrites and deletes spread across SSTables, the flushing
        queue, and the live MemTable."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("stream", small_options())
                for i in range(60):
                    db.put(f"m{i:03d}".encode(), b"gen1")
                db.barrier(SSTABLE)
                for i in range(0, 60, 3):
                    db.put(f"m{i:03d}".encode(), b"gen2")
                for i in range(1, 60, 5):
                    db.delete(f"m{i:03d}".encode())
                db.barrier(SSTABLE)
                for i in range(60, 75):
                    db.put(f"m{i:03d}".encode(), b"mem")
                db.barrier()
                for window in [(None, None), (b"m010", b"m050"),
                               (b"m070", None), (None, b"m005")]:
                    got = db.scan_local(*window)
                    assert got == reference_scan(db, *window)
                db.close()

        spmd_run(2, app)

    def test_snapshot_survives_flush_and_compaction(self):
        """Writes, flushes, and compactions landing mid-iteration do not
        disturb an open scan: it yields exactly its open-time snapshot,
        and the retired tables' files are unlinked only after close."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pin", small_options(compaction_interval=2))
                for i in range(80):
                    db.put(f"p{i:03d}".encode(), b"old")
                db.barrier(SSTABLE)
                before = reference_scan(db)
                it = db.scan()
                got = list(islice(it, 5))  # partially consumed
                # churn hard enough to flush and compact several times,
                # retiring the tables the open scan has pinned.  Only
                # locally-owned keys: remote puts would migrate into the
                # peer's MemTable at a nondeterministic moment relative
                # to its own snapshot open.
                mine = [
                    f"p{i:03d}".encode() for i in range(80)
                    if db.owner_of(f"p{i:03d}".encode()) == ctx.world_rank
                ]
                for round_ in range(4):
                    for key in mine:
                        db.put(key, f"new{round_}".encode())
                    db.flush()
                assert db.stats.compactions >= 1
                got += list(it)  # iterator finishes over the snapshot
                assert got == before
                assert not db._scan_pins  # exhaustion auto-closed it
                assert not db._deferred_unlinks
                # a fresh scan sees the post-churn world
                fresh = dict(db.scan_local())
                assert sorted(fresh.items()) == reference_scan(db)
                for key in mine:
                    assert fresh[key] == b"new3"
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_abandoned_iterator_releases_pins(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("abandon", small_options())
                for i in range(40):
                    db.put(f"a{i:02d}".encode(), b"v")
                db.barrier(SSTABLE)
                with db.scan() as it:
                    next(it)
                    assert db._scan_pins  # held while open
                assert not db._scan_pins  # context exit released them
                db.close()

        spmd_run(1, app)

    def test_close_stops_an_iter_taken_before(self):
        """``close()`` ends the stream however it is driven: an
        ``iter(it)`` part-way through a run yields nothing more."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("closeiter", small_options())
                for i in range(40):
                    db.put(f"c{i:02d}".encode(), b"v")
                db.barrier(SSTABLE)
                it = db.scan()
                stream = iter(it)
                assert next(stream) == (b"c00", b"v")
                it.close()
                assert not db._scan_pins
                assert list(stream) == [] and list(it) == []
                db.close()

        spmd_run(1, app)

    def test_a_scan_reads_the_memtable_of_its_open(self):
        """A write after a scan opens is invisible to it; scans opened
        between two writes share one snapshot list, and a write starts
        the next."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("snap", small_options())
                old = [(f"s{i:02d}".encode(), b"old") for i in range(20)]
                for key, value in old:
                    db.put(key, value)
                snap = db.local_mt.to_records()
                first, second = db.scan(), db.scan()
                assert db.local_mt.to_records() is snap
                db.put(b"s05", b"new")
                db.put(b"s99", b"new")
                assert db.local_mt.to_records() is not snap
                assert list(first) == list(second) == old
                now = dict(db.scan_local())
                assert (now[b"s05"], now[b"s99"], len(now)) == (
                    b"new", b"new", 21)
                db.close()

        spmd_run(1, app)

    def test_a_failed_scan_releases_pins_and_runs_deferred_unlinks(self):
        """Without ``with``: the tables a compaction retired under an
        open scan are unlinked once a rotted block stops the scan."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("rotpin", Options())
                for prefix in "ab":
                    for i in range(100):
                        db.put(f"{prefix}{i:03d}".encode(), b"v" * 1024)
                    db.barrier(SSTABLE)
                assert db.ssids == [1, 2]
                it = db.scan()
                got = [next(it)]
                with db._lock:  # retires both pinned inputs
                    db._schedule_compaction(db.clock.now)
                retired = [p for s in (1, 2) for p in db._deferred_unlinks[s]]
                flip_byte(db.store, retired[3], offset=DATA_BLOCK_SIZE + 9)
                with pytest.raises(CorruptionError, match="block 1"):
                    for pair in it:
                        got.append(pair)
                assert got[:101] == [(f"a{i:03d}".encode(), b"v" * 1024)
                                     for i in range(100)] + [(b"b000", b"v" * 1024)]
                assert not db._scan_pins and not db._deferred_unlinks
                assert not any(db.store.exists(p) for p in retired)
                db._closed = True  # skip collective close bookkeeping

        spmd_run(1, app)

    def test_a_dropped_iterator_releases_pins_at_once(self):
        """Nothing refers back to an open iterator: dropping the last
        reference releases its pins, no cyclic collection needed."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("drop", small_options())
                for i in range(40):
                    db.put(f"d{i:02d}".encode(), b"v")
                db.barrier(SSTABLE)
                it = iter(db.scan())
                next(it)
                assert db._scan_pins
                gc.disable()
                try:
                    del it
                    assert not db._scan_pins
                finally:
                    gc.enable()
                db.close()

        spmd_run(1, app)

    def test_keys_only_skips_values(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("keysonly", small_options())
                for i in range(50):
                    db.put(f"k{i:02d}".encode(), b"payload" * 8)
                db.barrier(SSTABLE)
                with db.scan(keys_only=True) as it:
                    pairs = list(it)
                assert all(v == b"" for _, v in pairs)
                assert [k for k, _ in pairs] == [
                    k for k, _ in db.scan_local()
                ]
                db.close()

        spmd_run(1, app)

    def test_fence_pruning_and_counters(self):
        """Prefix-phased loading gives disjoint per-table fences; a
        narrow window must prune the other tables and count it."""

        def app(ctx):
            with Papyrus(ctx) as env:
                # no compaction: it would merge the phases' tables into one
                db = env.open("prune", small_options(compaction_interval=0))
                for prefix in b"abcd":
                    for i in range(30):
                        db.put(bytes([prefix]) + f"{i:03d}".encode(), b"v")
                    db.barrier(SSTABLE)
                pairs = db.scan_local(b"c", b"d")
                assert len(pairs) == 30
                s = db.stats
                assert s.scans >= 1
                assert s.scan_tables_pruned > 0
                assert s.scan_blocks_read > 0
                m = db.metrics()
                for key in ("scans", "scan_tables_pruned",
                            "scan_blocks_read", "scan_chunks_shipped",
                            "scan_peak_buffered"):
                    assert key in m
                from repro.metrics import format_report

                assert "scan path:" in format_report(m)
                db.barrier()
                db.close()

        spmd_run(1, app)


#: drives which block is damaged and which bit flips (CI fault matrix)
FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


def _load_one_table(db, n=400, vlen=1024):
    """``n`` records in one flushed table (default MemTable is bigger)."""
    keys = [f"user{i:06d}".encode() for i in range(n)]
    for i, key in enumerate(keys):
        db.put(key, bytes([97 + i % 26]) * vlen)
    db.barrier(SSTABLE)
    assert len(db.ssids) == 1
    return keys


def _ssdata(db):
    name = next(f for f in db.store.listdir(db.rank_dir)
                if f.endswith(".ssd"))
    return f"{db.rank_dir}/{name}"


class TestBlockUnit:
    """The block is the unit of a scan: counts, not stopwatches."""

    def test_full_cache_reads_each_block_once(self):
        """A low-priority fill over budget evicts itself, so a cursor
        that went back to the cache per record re-read 64KB per record
        (1,752 reads / 115 MB for this 1 MB shard).  Holding the block
        makes it one read per block, cache full or not."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("full", Options(block_cache_capacity=128 * 1024))
                _load_one_table(db, n=1000)
                nbytes = db.store.size(_ssdata(db))
                blocks = -(-nbytes // DATA_BLOCK_SIZE)
                assert blocks * DATA_BLOCK_SIZE > db.block_cache.capacity_bytes
                dev = db.store.read_device
                ops, moved = dev.ops, dev.bytes_moved
                assert sum(1 for _ in db.scan()) == 1000
                assert dev.ops - ops <= blocks + len(db.ssids)  # + index loads
                assert dev.bytes_moved - moved <= 1.5 * nbytes
                # and the scan still displaced nothing: every fill was cold
                assert db.block_cache.inserts == 0
                db.close()

        spmd_run(1, app)

    def test_window_costs_blocks_not_records(self):
        """100 records of one table: block-cache lookups are bounded by
        the blocks touched plus the seek, not by the records; a
        cache-resident window is free in virtual time and a cold one
        costs exactly one block read per block it touched."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("count", Options())
                keys = _load_one_table(db)
                cache, dev = db.block_cache, db.store.read_device
                start, end = keys[150], keys[250]

                def window():
                    lookups = cache.hits + cache.misses
                    touched, t0 = db.stats.scan_blocks_read, db.clock.now
                    assert len(db.scan_local(start, end)) == 100
                    return (cache.hits + cache.misses - lookups,
                            db.stats.scan_blocks_read - touched,
                            db.clock.now - t0)

                db.scan_local()  # warm: index loaded, every block resident
                index, _ = db._reader(db.ssids[0]).load_index(0.0)
                last = index[250]  # the record that ends the window
                span = range(index[150].key_offset // DATA_BLOCK_SIZE,
                             (last.offset + last.record_len - 1)
                             // DATA_BLOCK_SIZE + 1)
                ops = dev.ops
                lookups, touched, dt = window()
                assert touched == len(span) >= 2
                assert lookups <= touched + 2
                assert (dt, dev.ops - ops) == (0.0, 0)

                cache.clear()
                lookups, touched, dt = window()
                assert lookups <= touched + 2
                # find_ge is cold too, but since format 4 it bisects the
                # footer's block keys in memory and fetches the window's
                # first block only — the "+ 1" this pinned (a probe in a
                # block the window never touches) and the log2(n) lookups
                # of a search over SSData are gone; the cursor then finds
                # that block resident and reads the rest.
                reads = dev.ops - ops
                assert reads == touched
                assert dt == pytest.approx(
                    reads * dev.service_time(DATA_BLOCK_SIZE), rel=1e-9)
                db.close()

        spmd_run(1, app)

    def test_corruption_mid_scan_stops_at_the_bad_block(self):
        """Every record of the blocks before the damaged one is yielded,
        then CorruptionError — and not one byte of the bad block."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("rot", Options())
                keys = _load_one_table(db)
                path = _ssdata(db)
                with open(db.store.path(path), "rb") as f:
                    blob = bytearray(f.read())
                rng = random.Random(FAULT_SEED)
                nblocks = -(-len(blob) // DATA_BLOCK_SIZE)
                bad = rng.randrange(1, nblocks)
                lo = bad * DATA_BLOCK_SIZE
                bit = rng.randrange(8 * (min(len(blob), lo + DATA_BLOCK_SIZE) - lo))
                blob[lo + bit // 8] ^= 1 << (bit % 8)
                with open(db.store.path(path), "wb") as f:
                    f.write(bytes(blob))
                db.block_cache.clear()
                index, _ = db._reader(db.ssids[0]).load_index(0.0)
                clean = [e for e in index if e.offset + e.record_len <= lo]
                got = []
                with pytest.raises(CorruptionError, match=f"block {bad}"):
                    for pair in db.scan():
                        got.append(pair)
                assert [k for k, _ in got] == keys[:len(clean)]
                assert all(v == bytes([97 + i % 26]) * 1024
                           for i, (_, v) in enumerate(got))
                db._closed = True  # skip collective close bookkeeping

        spmd_run(1, app)


class TestScanGlobal:
    """The collective windowed streaming merge."""

    def test_streams_sorted_and_chunked(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("glob", small_options())
                for i in range(90):
                    db.put(f"g{i:03d}".encode(), str(i).encode())
                db.barrier(SSTABLE)
                got = list(db.scan_global(chunk=8))
                assert got == [
                    (f"g{i:03d}".encode(), str(i).encode())
                    for i in range(90)
                ]
                assert db.stats.scan_chunks_shipped > 1
                db.close()

        spmd_run(3, app)

    def test_limit_is_a_prefix_and_ships_less(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("lim", small_options())
                for i in range(120):
                    db.put(f"l{i:03d}".encode(), b"v")
                db.barrier(SSTABLE)
                full = db.scan_collect(chunk=8)
                full_chunks = db.stats.scan_chunks_shipped
                limited = list(db.scan_global(limit=10, chunk=8))
                assert limited == full[:10]
                top_chunks = db.stats.scan_chunks_shipped - full_chunks
                # a top-10 needs about one chunk per rank, not the drain
                assert 0 < top_chunks < full_chunks
                db.close()

        spmd_run(3, app)

    def test_peak_buffer_bounded_by_window(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("peak", small_options())
                for i in range(100):
                    db.put(f"b{ctx.world_rank}:{i:03d}".encode(), b"v")
                db.barrier(SSTABLE)
                chunk = 8
                n = len(list(db.scan_global(chunk=chunk)))
                counts = ctx.comm.allgather(n)
                assert all(c == 100 * ctx.nranks for c in counts)
                # O(nranks x chunk), never the full result
                assert (db.stats.scan_peak_buffered
                        <= ctx.nranks * chunk + chunk)
                db.close()

        spmd_run(4, app)

    def test_zero_limit_and_bad_chunk(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("edge", small_options())
                db.put(b"k", b"v")
                db.barrier()
                assert list(db.scan_global(limit=0)) == []
                from repro.errors import InvalidOptionError

                with pytest.raises(InvalidOptionError):
                    db.scan_global(chunk=0)
                db.close()

        spmd_run(1, app)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(
    st.integers(min_value=0, max_value=40).map(lambda i: f"{i:02d}".encode()),
    st.one_of(st.none(), st.binary(min_size=1, max_size=12)),
    max_size=30,
))
def test_scan_collect_matches_dict_model(final_state):
    """Apply puts/deletes, barrier, scan: the result is exactly the
    live subset of the model, globally sorted."""

    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("prop", small_options())
            items = sorted(final_state.items())
            for i, (key, value) in enumerate(items):
                if i % ctx.nranks != ctx.world_rank:
                    continue
                db.put(key, b"seed")
                if value is None:
                    db.delete(key)
                else:
                    db.put(key, value)
            db.barrier(SSTABLE)
            got = db.scan_collect()
            want = sorted(
                (k, v) for k, v in final_state.items() if v is not None
            )
            assert got == want
            db.close()

    spmd_run(2, app, timeout=120)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=60).map(
            lambda i: f"{i:02d}".encode()
        ),
        st.one_of(st.none(), st.binary(min_size=1, max_size=12)),
        max_size=40,
    ),
    st.tuples(
        st.one_of(st.none(), st.integers(0, 60).map(
            lambda i: f"{i:02d}".encode())),
        st.one_of(st.none(), st.integers(0, 60).map(
            lambda i: f"{i:02d}".encode())),
    ),
)
def test_streamed_scan_matches_oracle_under_churn(final_state, window):
    """The streamed iterator equals the seed-era materializing oracle on
    any window, and an iterator opened *before* a storm of overwrites,
    flushes, and compactions still yields its open-time snapshot."""
    start, end = window
    if start is not None and end is not None and start > end:
        start, end = end, start

    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("churnprop",
                          small_options(compaction_interval=2))
            items = sorted(final_state.items())
            for i, (key, value) in enumerate(items):
                if i % ctx.nranks != ctx.world_rank:
                    continue
                db.put(key, b"seed")
                if i % 3 == 0:
                    db.flush()  # spread the state across tiers
                if value is None:
                    db.delete(key)
                else:
                    db.put(key, value)
            db.barrier(SSTABLE)
            want = reference_scan(db, start, end)
            it = db.scan(start, end)
            head = list(islice(it, 3))
            # mid-iteration churn: overwrites + flush + compaction.
            # Locally-owned keys only — remote puts would migrate into
            # the peer's MemTable at a nondeterministic moment relative
            # to its own snapshot open.
            for key, _value in items:
                if db.owner_of(key) == ctx.world_rank:
                    db.put(key, b"churn")
            db.flush()
            assert head + list(it) == want  # the pinned snapshot
            assert db.scan_local(start, end) == reference_scan(
                db, start, end)  # the fresh view agrees too
            db.barrier()
            db.close()

    spmd_run(2, app, timeout=120)


def test_replica_scan_filtering_matches_oracle():
    """Under replication the streamed scan and the oracle agree for
    both the primary-filtered and the physical (include_replicas)
    views, and the primary views partition the keyspace."""

    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("replscan", small_options(
                replicas=2, write_quorum=1, remote_timeout=0.2))
            for i in range(30):
                db.put(f"r{ctx.world_rank}-{i:02d}".encode(), b"v")
            db.fence()
            db.barrier(SSTABLE)
            primary = db.scan_local()
            physical = db.scan_local(include_replicas=True)
            assert primary == reference_scan(db)
            assert physical == reference_scan(db, include_replicas=True)
            assert len(physical) >= len(primary)
            totals = ctx.comm.allgather(len(primary))
            assert sum(totals) == 30 * ctx.nranks
            helds = ctx.comm.allgather(len(physical))
            assert sum(helds) == 30 * ctx.nranks * 2
            db.close()

    spmd_run(4, app, timeout=240)
