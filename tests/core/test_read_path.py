"""The overhauled read path: fence pruning, block-cache invalidation,
cached peer readers, and the counters that make them observable.

Per-table gate order on a get: quarantine poison-range check, footer
``[min_key, max_key]`` fences, bloom filter, index search, block cache,
SSData.  These tests pin the order down where it matters most — pruning
must never mask a poisoned range, and an invalidated table must never
serve stale cached blocks.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro import Options, Papyrus
from repro.analysis import runtime as rt
from repro.config import MB, SSTABLE, options_from_env
from repro.core import handler
from repro.core import messages as msg
from repro.core.handler import _serve_get
from repro.errors import CorruptionError, InvalidOptionError
from repro.faults import FaultPlan
from repro.metrics import database_metrics, format_report
from repro.mpi.launcher import spmd_run
from repro.nvm.posixfs import PosixStore
from repro.simtime.clock import VirtualClock
from repro.simtime.profiles import SUMMITDEV
from repro.simtime.resources import TimedResource
from repro.sstable.format import Record, sstable_filenames
from repro.sstable.reader import SSTableReader
from tests.conftest import flip_byte, small_options, write_table

FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


def run1(fn, **kw):
    return spmd_run(1, fn, **kw)[0]


def _opts(**kw):
    """One table per flush phase; gets always reach the SSTable path."""
    base = dict(
        memtable_capacity=1 * MB,
        cache_local_enabled=False,
        compaction_interval=0,
    )
    base.update(kw)
    return Options(**base)


def _load_phases(db, prefixes, n=30, vlen=64):
    """One flushed SSTable per prefix: fences are disjoint by design."""
    for p in prefixes:
        for i in range(n):
            db.put(f"{p}{i:03d}".encode(), p.encode() * vlen)
        db.barrier(SSTABLE)


class TestFencePruning:
    def test_prunes_tables_whose_fences_exclude_the_key(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "amz")
                # newest-first walk: key in the *oldest* table passes
                # through both newer tables' fences
                d0 = db.stats.fence_skips
                assert db.get(b"a015") == b"a" * 64
                assert db.stats.fence_skips - d0 == 2
                assert db.stats.bloom_skips == 0  # fences decided alone
                db.close()

        run1(app)

    def test_absent_keys_outside_every_fence(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "amz")
                for probe in (b"0below", b"q-between", b"zz-above"):
                    d0 = db.stats.fence_skips
                    assert db.get_or_none(probe) is None
                    assert db.stats.fence_skips - d0 == 3
                db.close()

        run1(app)

    def test_keys_equal_to_fences_are_not_pruned(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "amz")
                # exact min and max of the middle table
                for probe in (b"m000", b"m029"):
                    d0 = db.stats.fence_skips
                    assert db.get(probe) == b"m" * 64
                    assert db.stats.fence_skips - d0 == 1  # newer 'z' only
                db.close()

        run1(app)

    def test_absent_key_inside_fences_falls_to_bloom(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "amz")
                d0 = db.stats.fence_skips
                assert db.get_or_none(b"m0150") is None  # within [m000,m029]
                # 'z' and 'a' pruned; 'm' passed its fence to the bloom
                assert db.stats.fence_skips - d0 == 2
                db.close()

        run1(app)

    def test_pruning_never_masks_a_poisoned_range(self):
        """Gate order: the quarantine check runs before the fences.  A
        key in a quarantined table's poison range must raise even though
        every healthy table's fences would have pruned the walk."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "amz")
                victim = db.ssids[1]  # the 'm' table
                flip_byte(db.store, f"{db.rank_dir}/{victim:010d}.ssd",
                           offset=500)
                report = db.verify(repair=False)
                assert victim in report["quarantined"]
                with pytest.raises(CorruptionError):
                    db.get(b"m015")
                # keys outside the poisoned range still work / still miss
                assert db.get(b"a015") == b"a" * 64
                assert db.get(b"z015") == b"z" * 64
                assert db.get_or_none(b"0below") is None
                db.close()

        run1(app)


class TestReaderFences:
    """key_range() corner cases straight at the reader."""

    @pytest.fixture()
    def store(self, tmp_path):
        return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))

    def test_v2_fences_match_key_extremes(self, store):
        recs = [Record(f"k{i:02d}".encode(), b"v") for i in range(10)]
        write_table(store, "t", 1, recs)
        fences, _ = SSTableReader(store, "t", 1).key_range(0.0)
        assert fences == (b"k00", b"k09")

    def test_empty_v2_table_prunes_everything(self, store):
        write_table(store, "t", 1, [])
        fences, _ = SSTableReader(store, "t", 1).key_range(0.0)
        assert fences == (b"", b"")  # `not max_key` prunes any valid key


class TestCacheInvalidation:
    def test_compaction_drops_cached_blocks(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts(compaction_interval=2))
                _load_phases(db, "a")
                first = db.ssids[0]
                assert db.get(b"a003") == b"a" * 64  # warm the cache
                assert db.block_cache.cached_blocks(db.rank_dir, first) > 0
                _load_phases(db, "b")  # ssid 2 triggers compaction
                assert db.stats.compactions == 1
                assert db.block_cache.cached_blocks(db.rank_dir, first) == 0
                assert db.block_cache.counters()["invalidations"] > 0
                # reads come back right through the merged table
                assert db.get(b"a003") == b"a" * 64
                assert db.get(b"b003") == b"b" * 64
                db.close()

        run1(app)

    @pytest.mark.parametrize("flushed", [False, True],
                             ids=["still-in-memtable", "flushed"])
    def test_racing_write_is_not_shadowed_by_a_stale_cache_fill(
            self, flushed):
        """A get walks the SSTables outside db.state; a write to the
        same key landing meanwhile (the handler applying a migration)
        evicts the local-cache entry *before* the get fills it.  The
        fill must not resurrect the old value — once the new version
        leaves the MemTable the cache would serve it forever."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts(cache_local_enabled=True))
                db.put(b"k", b"old")
                db.barrier(SSTABLE)
                walk = db._search_own_sstables

                def racing_walk(ssids, key, t):
                    found = walk(ssids, key, t)
                    db._search_own_sstables = walk
                    db._local_insert([(b"k", b"new", False)], ctx.clock)
                    if flushed:
                        db.flush()
                    return found

                db._search_own_sstables = racing_walk
                assert db.get(b"k") == b"old"  # raced: either is legal
                db.flush()
                res = db.get_ex(b"k")
                assert (res.value, res.tier) == (b"new", "sstable")
                assert db.get_ex(b"k").tier == "local_cache"  # now cached
                db.close()

        run1(app)

    def test_quarantine_drops_cached_blocks(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "am")
                victim = db.ssids[0]
                assert db.get(b"a003") == b"a" * 64
                assert db.block_cache.cached_blocks(db.rank_dir, victim) > 0
                flip_byte(db.store, f"{db.rank_dir}/{victim:010d}.ssd",
                           offset=500)
                report = db.verify(repair=False)
                assert victim in report["quarantined"]
                assert db.block_cache.cached_blocks(db.rank_dir, victim) == 0
                assert db.get(b"m003") == b"m" * 64
                db.close()

        run1(app)

    def test_checkpoint_restore_never_serves_stale_blocks(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "a")
                db.checkpoint("cp").wait(ctx.clock)
                victim = db.ssids[0]
                assert db.get(b"a003") == b"a" * 64  # warm the cache
                flip_byte(db.store, f"{db.rank_dir}/{victim:010d}.ssd",
                           offset=500)
                report = db.verify()  # ladder ends at the checkpoint rung
                assert victim in report["rebuilt"]
                assert db.get(b"a003") == b"a" * 64
                assert db.get(b"a029") == b"a" * 64
                db.close()

        run1(app)


class _CountingLock:
    """Counts ``with`` acquisitions of the ``db.state`` lock it wraps."""

    def __init__(self, inner):
        self.inner, self.acquisitions = inner, 0

    def __enter__(self):
        self.acquisitions += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestHandlerEqualsRankMain:
    """§2.4: the owner's handler runs the get procedure on a remote
    rank's behalf — the *same* two phases ``get_bulk`` runs, not a copy.
    One rank; ``_serve_get`` is called directly with the rank as its own
    requester, so there is no schedule to race."""

    #: one key of every kind the tier walk distinguishes
    KEYS = [
        b"a000",  # live in the MemTable
        b"a001",  # MemTable tombstone over an SSTable version
        b"a002",  # SSTable, already in the local cache
        b"a003", b"m004",  # SSTable only
        b"m005",  # SSTable tombstone over an older SSTable version
        b"q404",  # absent
    ]

    @staticmethod
    def _build(env, name):
        db = env.open(name, _opts(cache_local_enabled=True))
        _load_phases(db, "am")
        db.delete(b"m005")
        db.barrier(SSTABLE)
        db.put(b"a000", b"fresh")
        db.delete(b"a001")
        assert db.get(b"a002") == b"a" * 64
        assert b"a002" in db.local_cache._data  # recency untouched
        return db

    @staticmethod
    def _serve(db, keys, requester_group, force_data=False):
        m = msg.GetMsg(list(keys), requester_group, seq=990_001,
                       force_data=force_data)
        _serve_get(db, m, db.rank, VirtualClock(start=db.clock.now),
                   db.ctx.system.cpu)
        return db.rsp_comm.recv(source=db.rank, tag=m.seq)

    def test_same_answers_and_same_cache_fills(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                main, served = self._build(env, "a"), self._build(env, "b")
                values = main.get_bulk(self.KEYS)
                reply = self._serve(served, self.KEYS, requester_group=-1)
                assert reply.owner_dir is None and reply.newest_ssid == 0
                by_key = dict(zip(self.KEYS, reply.results))
                assert [
                    value if status == msg.FOUND and not tomb else None
                    for status, value, tomb in reply.results
                ] == values
                # a delete is FOUND-with-tombstone in either tier
                assert by_key[b"a001"] == (msg.FOUND, b"", True)
                assert by_key[b"m005"] == (msg.FOUND, b"", True)
                assert by_key[b"q404"] == (msg.NOT_FOUND, None, False)
                # the same entries, in the same recency order
                assert list(served.local_cache._data.items()) == list(
                    main.local_cache._data.items())
                assert set(main.local_cache._data) == {
                    b"a002", b"a003", b"m004"}
                assert (served.local_cache.hits, served.local_cache.misses
                        ) == (main.local_cache.hits, main.local_cache.misses)
                main.close()
                served.close()

        run1(app)

    def test_same_group_requester_reads_the_sstables_itself(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = self._build(env, "a")
                reply = self._serve(db, self.KEYS, db.group)
                assert reply.owner_dir == db.rank_dir
                assert reply.newest_ssid == db.ssids[-1]
                statuses = {key: res[0]
                            for key, res in zip(self.KEYS, reply.results)}
                # exactly the keys that missed memory and the cache
                assert {k for k, s in statuses.items()
                        if s == msg.NOT_IN_MEMORY} == {
                    b"a003", b"m004", b"m005", b"q404"}
                assert all(statuses[k] == msg.FOUND
                           for k in (b"a000", b"a001", b"a002"))
                assert len(db.local_cache) == 1  # nothing was looked up
                # forced value bytes: the owner finishes the get itself
                forced = self._serve(db, self.KEYS, db.group, force_data=True)
                assert forced.owner_dir is None
                assert all(res[0] != msg.NOT_IN_MEMORY
                           for res in forced.results)
                db.close()

        run1(app)

    def test_quarantined_range_answers_degraded(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = self._build(env, "a")
                db._quarantine_table(db.ssids[1], "test: damaged", db.clock.now)  # 'm'
                for group in (-1, db.group):  # no shortcut past a hole
                    reply = self._serve(db, self.KEYS, group)
                    assert reply.owner_dir is None
                    statuses = {key: res[0]
                                for key, res in zip(self.KEYS, reply.results)}
                    assert {k for k, s in statuses.items()
                            if s == msg.DEGRADED} == {b"m004"}
                    # a newer table answered before the walk met the hole
                    assert statuses[b"m005"] == msg.FOUND
                    assert statuses[b"a003"] == msg.FOUND
                    assert statuses[b"q404"] == msg.NOT_FOUND
                db.close()

        run1(app)

    def test_memory_phase_takes_no_db_state(self):
        """The handler's memory phase reads the published view: 64 keys
        found in the MemTable cost no ``db.state`` acquisition."""
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                keys = [f"k{i:02d}".encode() for i in range(64)]
                for key in keys:
                    db.put(key, b"v")
                db._lock = counting = _CountingLock(db._lock)
                try:
                    reply = self._serve(db, keys, requester_group=-1)
                finally:
                    db._lock = counting.inner
                assert [res[0] for res in reply.results] == [msg.FOUND] * 64
                assert counting.acquisitions == 0
                db.close()

        run1(app)


class TestRepairLadderPeerCopy:
    """Rung 3 of the recovery ladder: a storage-group peer re-reads the
    owner's own files through *its* read path and ships them back
    (``FetchTableMsg`` → ``_serve_fetch_table``).  It heals a fault in
    the owner's read path, which is all it can heal: the peer reads the
    same bytes."""

    def test_peer_copy_heals_a_fault_in_the_owners_read_path(self):
        # which of the owner's three tables goes bad is drawn from the
        # seed; verify reads each table's SSData once, in order, so the
        # victim's read is the (victim+1)-th. Three failures:
        # verification, rung 1's re-read and rung 2's read of the SSData
        # it would re-derive the sidecars from; the peer's read and the
        # re-verify after the install succeed. No checkpoint exists, so
        # rung 4 cannot.
        victim = random.Random(FAULT_SEED).randrange(3)
        plan = FaultPlan(seed=FAULT_SEED).io_error(
            ".ssd", op="read", rank=0, nth=victim + 1, count=3)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts(group_size=2))
                assert db.shares_storage_with(1 - ctx.world_rank)
                model = {}
                for phase in "amz":
                    if ctx.world_rank == 0:
                        for i in range(200):
                            key = f"{phase}{i:03d}".encode()
                            if db.owner_of(key) == 0:
                                model[key] = key * 4
                                db.put(key, model[key])
                    db.barrier(SSTABLE)
                report = None
                if ctx.world_rank == 0:
                    assert len(db.ssids) == 3
                    report = db.verify()
                    assert db._last_checkpoint_path is None
                    assert all(db.get(k) == v for k, v in model.items())
                db.barrier()  # rank 1's handler serves the fetch till here
                db.close()
                return report, db.ssids

        (report, ssids), _ = spmd_run(2, app, faults=plan)
        assert report == {"ok": [s for i, s in enumerate(ssids)
                                 if i != victim],
                          "rebuilt": [ssids[victim]], "quarantined": []}
        assert len(plan.fired) == 3, plan.fired


class TestPeerReaderCache:
    def test_peer_readers_are_cached_and_hit_the_block_cache(self):
        """Storage-group gets reuse the device's one reader per
        (directory, ssid) — the owner's own — and read SSData through
        the device's block cache."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(cache_local_enabled=False))
                for i in range(60):
                    db.put(f"k-{ctx.world_rank}-{i:03d}".encode(), b"V" * 64)
                db.barrier(SSTABLE)
                other = 1 - ctx.world_rank
                peer_keys = [
                    f"k-{other}-{i:03d}".encode() for i in range(0, 60, 7)
                    if db.owner_of(f"k-{other}-{i:03d}".encode()) == other
                ]
                tiers = {db.get_ex(k).tier for k in peer_keys}
                peer_dir = f"{db.dbdir}/rank{other}"
                readers1 = {k: rd for k, rd in
                            dict(db.block_cache._readers).items()
                            if k[0] == peer_dir}
                hits0 = db.metrics()["block_cache"]["hits"]
                for k in peer_keys:
                    assert db.get(k) == b"V" * 64
                readers2 = dict(db.block_cache._readers)
                hits1 = db.metrics()["block_cache"]["hits"]
                db.barrier()  # the peer reads my readers until here
                db.close()
                return {
                    "tiers": tiers,
                    "cached": len(readers1),
                    "reused": all(
                        readers2.get(k) is rd for k, rd in readers1.items()
                    ),
                    "hit_delta": hits1 - hits0,
                }

        res = spmd_run(2, app, system=SUMMITDEV)
        assert any("shared_sstable" in r["tiers"] for r in res)
        winner = next(r for r in res if "shared_sstable" in r["tiers"])
        assert winner["cached"] > 0
        assert winner["reused"]
        assert winner["hit_delta"] > 0


class TestCountersSurface:
    def test_metrics_expose_read_path_counters(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", _opts())
                _load_phases(db, "am")
                db.get(b"a003")
                db.get(b"a003")
                m = database_metrics(db)
                report = format_report(m)
                db.close()
                return m, report

        m, report = run1(app)
        assert m["fence_skips"] > 0
        assert "bloom_skips" in m
        assert m["block_cache"]["hits"] > 0
        assert m["block_cache"]["bytes"] <= m["block_cache"]["capacity_bytes"]
        assert "block cache:" in report and "read path:" in report

    def test_block_cache_env_is_a_byte_budget(self):
        opt = options_from_env({"PAPYRUSKV_BLOCK_CACHE": "65536"})
        assert opt.block_cache_capacity == 65536
        with pytest.raises(InvalidOptionError):
            options_from_env({"PAPYRUSKV_BLOCK_CACHE": "0"})


class TestPublishedView:
    """Gets, the handler's get service and scan opens read the view the
    writers publish under ``db.state``, and take that lock almost never
    themselves."""

    def test_a_get_takes_db_state_at_most_every_fifth_time(
            self, lock_spy, monkeypatch):
        """2 ranks, an ``ycsb_a``-shaped drive (50 % gets, 50 % updates
        of Zipfian keys of both ranks, tables flushing meanwhile):
        counted on the getting thread and on the handler serving it, a
        get takes ``db.state`` at most 0.2 times — to retire a finished
        flush or to fill the local cache."""
        scope = threading.local()
        lock_spy.active = lambda: getattr(scope, "in_get", False)
        serve_get = handler._serve_get

        def counted_serve_get(*args):
            scope.in_get = True
            try:
                serve_get(*args)
            finally:
                scope.in_get = False

        monkeypatch.setattr(handler, "_serve_get", counted_serve_get)
        nkeys, nops = 400, 1500
        weights = [1 / (i + 1) ** 0.99 for i in range(nkeys)]
        gets = [0, 0]

        def app(ctx):
            me = ctx.world_rank
            rng = random.Random(FAULT_SEED * 10 + me)
            with Papyrus(ctx) as env:
                db = env.open("ycsb-a", Options(memtable_capacity=32 * 1024))
                for i in range(nkeys):
                    db.put(f"user{me}:{i}".encode(), b"v" * 200)
                db.barrier(SSTABLE)
                for i in rng.choices(range(nkeys), weights, k=nops):
                    key = f"user{rng.randrange(2)}:{i}".encode()
                    if rng.random() < 0.5:
                        scope.in_get = True
                        try:
                            db.get_or_none(key)
                        finally:
                            scope.in_get = False
                        gets[me] += 1
                    else:
                        db.put(f"user{me}:{i}".encode(), b"u" * 200)
                db.barrier()
                assert db.stats.flushes >= 2  # the view changed under us
                db.close()

        spmd_run(2, app)
        per_get = lock_spy.counts["db.state"] / sum(gets)
        assert per_get <= 0.2, (per_get, dict(lock_spy.counts))

    def test_a_put_is_read_back_across_rotates(self):
        """Read-your-writes through the view: every put is visible to
        the next get of the same rank, while the MemTable rotates and
        flushes under both (the other rank's migrations land too)."""

        def app(ctx):
            me = ctx.world_rank
            with Papyrus(ctx) as env:
                db = env.open("ryw", small_options())
                for i in range(300):
                    key = f"r{me}-{i:04d}".encode()
                    value = f"{i}".encode() * 60
                    db.put(key, value)
                    assert db.get(key) == value
                    if i:
                        prev = f"r{me}-{i - 1:04d}".encode()
                        assert db.get(prev) == f"{i - 1}".encode() * 60
                assert db.stats.flushes >= 5
                db.close()

        spmd_run(2, app)

    def test_a_scans_pins_hold_across_a_compaction_install(self):
        """A compaction that installs between a scan's view load and its
        pins makes the scan take the next view; one that installs after
        the pins defers its unlinks to the scan's close.  Either way the
        scan reads a whole snapshot and no file goes early."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pins", _opts())
                model = {}
                for p in "abcd":
                    for i in range(40):
                        key, value = f"{p}{i:03d}".encode(), p.encode() * 8
                        db.put(key, value)
                        model[key] = value
                    db.flush()
                inputs = list(db.ssids)
                pin = db._pin_scan_tables

                def racing_pin(ssids):
                    # the view is loaded, the pins not yet taken
                    db._pin_scan_tables = pin
                    with db._lock:
                        db._schedule_compaction(ctx.clock.now)
                    pin(ssids)

                db._pin_scan_tables = racing_pin
                with db.scan() as it:
                    assert dict(it) == model
                assert db.stats.compactions == 1
                assert not set(inputs) & set(db.ssids)
                # after the pins: the unlinks wait for the close
                for p in "ef":
                    for i in range(40):
                        db.put(f"{p}{i:03d}".encode(), p.encode() * 8)
                        model[f"{p}{i:03d}".encode()] = p.encode() * 8
                    db.flush()
                inputs = list(db._l0)
                it = db.scan()
                db._schedule_compaction(ctx.clock.now)
                assert db.stats.compactions == 2
                assert not set(inputs) & set(db.ssids)
                on_disk = set(db.store.listdir(db.rank_dir))
                assert all(name in on_disk for s in inputs
                           for name in sstable_filenames(s))
                assert dict(it) == model
                it.close()
                on_disk = set(db.store.listdir(db.rank_dir))
                assert not any(name in on_disk for s in inputs
                               for name in sstable_filenames(s))
                db.close()

        run1(app)


class TestRaceCleanliness:
    def test_cached_read_path_is_race_clean(self):
        """Main thread + handler both read through the block cache; the
        dynamic detector must see zero findings on a mixed workload."""
        prev = rt.get_detector()
        det = rt.enable(reset=True)
        try:

            def app(ctx):
                with Papyrus(ctx) as env:
                    db = env.open("d", small_options(
                        cache_local_enabled=False))
                    for i in range(80):
                        db.put(f"rk{ctx.world_rank}{i:03d}".encode(), b"x" * 32)
                    db.barrier(SSTABLE)
                    for i in range(0, 80, 3):
                        for r in range(ctx.nranks):
                            db.get_or_none(f"rk{r}{i:03d}".encode())
                    db.close()

            spmd_run(2, app, system=SUMMITDEV)
            assert det.findings() == [], det.findings()
        finally:
            rt.restore(prev)
