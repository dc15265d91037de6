"""Storage groups (§2.7): shared-SSTable reads, group sizing, fallbacks.

The §2.7 handshake is the one way a rank reads another rank's tables:
``GetMsg`` → ``NOT_IN_MEMORY`` → ``_handshake_view`` → ``_peer_walk``
through the device's readers, with one stale-view ladder (ask → re-ask
after a drop → ``force_data``).
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
from collections import Counter
from itertools import islice

import pytest

from repro import Options, Papyrus, SSTABLE
from repro.analysis import runtime as rt
from repro.core import handler
from repro.core import messages as msg
from repro.core.db import Database
from repro.errors import StorageError
from repro.faults import FaultPlan
from repro.mpi.launcher import spmd_run
from repro.nvm.posixfs import PosixStore
from repro.nvm.storage import Machine
from repro.simtime.profiles import CORI, SUMMITDEV
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import Record, sstable_filenames
from repro.sstable.reader import SSTableReader, list_ssids
from repro.sstable.writer import encode_table
from tests.conftest import small_options

FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


def _fill_and_flush(db, rank, n=80, vlen=64):
    for i in range(n):
        db.put(f"k-{rank}-{i:03d}".encode(), bytes([65 + rank % 26]) * vlen)
    db.barrier(SSTABLE)


class TestSharedReads:
    def test_same_group_reads_shared_sstables(self):
        """Ranks on one node fetch peers' flushed data without value
        transfer over the network."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                _fill_and_flush(db, ctx.world_rank)
                tiers = set()
                for rr in range(ctx.nranks):
                    if rr == ctx.world_rank:
                        continue
                    for i in range(0, 80, 11):
                        key = f"k-{rr}-{i:03d}".encode()
                        owner = db.owner_of(key)
                        if owner == ctx.world_rank:
                            continue
                        res = db.get_ex(key)
                        assert res.value == bytes([65 + rr % 26]) * 64
                        tiers.add(res.tier)
                db.close()
                return tiers

        res = spmd_run(4, app, system=SUMMITDEV)
        assert any("shared_sstable" in t for t in res)

    def test_group_size_one_disables_sharing(self):
        """PAPYRUSKV_GROUP_SIZE=1 (Figure 8 'Default'): values always
        travel over the network."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(group_size=1))
                _fill_and_flush(db, ctx.world_rank)
                tiers = set()
                for rr in range(ctx.nranks):
                    for i in range(0, 80, 11):
                        key = f"k-{rr}-{i:03d}".encode()
                        if db.owner_of(key) != ctx.world_rank:
                            tiers.add(db.get_ex(key).tier)
                db.close()
                return tiers

        res = spmd_run(4, app, system=SUMMITDEV)
        for tiers in res:
            assert "shared_sstable" not in tiers

    def test_cross_node_never_shares_on_local_arch(self):
        """Ranks on different Summitdev nodes cannot read each other's
        NVMe even inside an (over-wide) requested group."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(group_size=40))
                _fill_and_flush(db, ctx.world_rank, n=30)
                tiers = set()
                me = ctx.world_rank
                other_node_rank = (me + 20) % 40
                for i in range(30):
                    key = f"k-{other_node_rank}-{i:03d}".encode()
                    owner = db.owner_of(key)
                    if owner != me and ctx.system.node_of_rank(owner) != ctx.node:
                        tiers.add(db.get_ex(key).tier)
                db.close()
                return tiers

        # 40 ranks = 2 Summitdev nodes
        res = spmd_run(40, app, system=SUMMITDEV, timeout=240)
        for tiers in res:
            assert "shared_sstable" not in tiers

    def test_dedicated_arch_shares_machine_wide(self):
        """On Cori every rank shares the burst buffer (one storage group)."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                _fill_and_flush(db, ctx.world_rank, n=40)
                shared = 0
                for rr in range(ctx.nranks):
                    for i in range(0, 40, 7):
                        key = f"k-{rr}-{i:03d}".encode()
                        if db.owner_of(key) != ctx.world_rank:
                            if db.get_ex(key).tier == "shared_sstable":
                                shared += 1
                db.close()
                return shared

        res = spmd_run(4, app, system=CORI)
        assert sum(res) > 0

    def test_shared_read_correct_after_owner_compaction(self):
        """Group peers retry through compaction races and still get data."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(compaction_interval=2))
                r = ctx.world_rank
                for round_ in range(4):
                    for i in range(60):
                        db.put(f"k-{r}-{i:02d}".encode(),
                               f"round{round_}".encode() * 8)
                    db.barrier(SSTABLE)
                    for rr in range(ctx.nranks):
                        for i in range(0, 60, 13):
                            v = db.get(f"k-{rr}-{i:02d}".encode())
                            assert v == f"round{round_}".encode() * 8
                    # nobody may start the next round's puts while a peer
                    # is still reading this round's values
                    db.barrier()
                db.close()

        spmd_run(3, app, system=SUMMITDEV, timeout=240)


class TestGroupMetadata:
    def test_group_assignment(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(group_size=2))
                g = db.group
                db.close()
                return g

        assert spmd_run(4, app) == [0, 0, 1, 1]

    def test_shares_storage_with(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(group_size=2))
                out = [db.shares_storage_with(r) for r in range(4)]
                db.close()
                return out

        res = spmd_run(4, app, system=SUMMITDEV)
        assert res[0] == [True, True, False, False]
        assert res[3] == [False, False, True, True]

    def test_lustre_repository_shared_by_all(self):
        def app(ctx):
            with Papyrus(ctx, repository="lustre") as env:
                db = env.open("d", small_options())
                assert all(
                    db.shares_storage_with(r) for r in range(ctx.nranks)
                )
                db.close()

        spmd_run(4, app, system=SUMMITDEV)


def _keys_of(db, owner: int, n: int, prefix: str = "k"):
    """The first ``n`` keys (by index) that hash to ``owner``."""
    keys = (f"{prefix}{i:05d}".encode() for i in range(100_000))
    return list(islice((k for k in keys if db.owner_of(k) == owner), n))


def _watch_reads(monkeypatch):
    """Log ``(thread ident, path, offset)`` of every device read."""
    log: list = []
    read = PosixStore.read

    def logging_read(store, relpath, t, offset=0, length=None):
        log.append((threading.get_ident(), relpath, offset))
        return read(store, relpath, t, offset, length)

    monkeypatch.setattr(PosixStore, "read", logging_read)
    return log


def _entries_under(cache, directory: str):
    """``(tables with a reader, tables with blocks)`` under ``directory``."""
    return ({s for d, s in list(cache._readers) if d == directory},
            {s for d, s in list(cache._by_table) if d == directory})


_ONE_NODE = dict(cache_local_enabled=False, compaction_interval=0)


class TestOneCachePerDevice:
    """The SSData block cache and the file-built readers belong to the
    storage device, like the kernel page cache the ranks of a node
    share: a block or sidecar is read off the device once."""

    def test_two_ranks_one_block_one_device_read(self, monkeypatch):
        """The owner and a same-group peer getting keys of one block
        cost one block read and one index + one bloom load together —
        through the same reader and the same cache object."""
        log = _watch_reads(monkeypatch)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("one", small_options(**_ONE_NODE))
                r = ctx.world_rank
                for key in _keys_of(db, r, 8):
                    db.put(key, b"v" * 32)  # 8 small records: one block
                db.barrier(SSTABLE)
                theirs = _keys_of(db, 1, 8)
                (ssid,) = db.ssids
                n0 = len(log)
                db.barrier()
                if r == 1:  # the owner goes first ...
                    assert db.get_ex(theirs[0]).tier == "sstable"
                db.barrier()
                if r == 0:  # ... then the peer, for another key of the block
                    res = db.get_ex(theirs[5])
                    assert (res.value, res.tier) == (b"v" * 32,
                                                     "shared_sstable")
                db.barrier()
                made = sorted(p for _, p, _ in log[n0:])
                reader = db._peer_reader(f"{db.dbdir}/rank1", ssid)
                out = (made, id(reader), id(db.block_cache),
                       db.metrics()["block_cache"])
                db.barrier()
                db.close()
                return out

        (made, rd0, bc0, m0), (_, rd1, bc1, m1) = spmd_run(
            2, app, system=SUMMITDEV)
        d = "db_one/rank1/0000000001"
        assert made == [d + ".bf", d + ".ssd", d + ".ssi"]
        assert rd0 == rd1 and bc0 == bc1
        # each rank counted its own lookup: the owner missed, the peer hit
        assert (m1["misses"], m1["hits"]) == (1, 0)
        assert (m0["misses"], m0["hits"]) == (0, 1)
        # occupancy and budget are the device's: both ranks report them
        assert m0["entries"] == m1["entries"] == 1
        assert m0["capacity_bytes"] == m1["capacity_bytes"] == 2 * (16 << 20)

    def test_ranks_on_different_nodes_share_nothing(self):
        two_nodes = dataclasses.replace(SUMMITDEV, ranks_per_node=1)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("far", small_options(**_ONE_NODE))
                r = ctx.world_rank
                for key in _keys_of(db, r, 8):
                    db.put(key, b"v" * 32)
                db.barrier(SSTABLE)
                for owner in (r, 1 - r):
                    for key in _keys_of(db, owner, 8):
                        assert db.get(key) == b"v" * 32
                db.barrier()
                cache = db.block_cache
                out = (id(cache), cache.capacity_bytes,
                       sorted({d for d, _ in cache._readers}),
                       sorted({d for d, _ in cache._by_table}))
                db.barrier()
                db.close()
                return out

        (c0, cap0, rd0, blk0), (c1, cap1, rd1, blk1) = spmd_run(
            2, app, system=two_nodes)
        assert c0 != c1
        assert cap0 == cap1 == 16 << 20  # its own capacity, nobody else's
        assert rd0 == blk0 == ["db_far/rank0"]
        assert rd1 == blk1 == ["db_far/rank1"]

    @pytest.mark.parametrize("retire", ["compaction", "quarantine"])
    def test_owners_invalidation_reaches_a_peer_that_cached_the_table(
            self, retire):
        """A peer holding the owner's table — reader and blocks — loses
        both when the owner retires it; its next get re-reads and never
        serves the retired bytes."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("inv", small_options(**_ONE_NODE))
                r, cache = ctx.world_rank, db.block_cache
                theirs = _keys_of(db, 1, 8)
                owner_dir = f"{db.dbdir}/rank1"
                if r == 1:
                    for key in theirs:
                        db.put(key, b"old" * 16)
                db.barrier(SSTABLE)
                if r == 0:  # the peer caches table 1 of the owner
                    assert db.get(theirs[0]) == b"old" * 16
                    assert _entries_under(cache, owner_dir) == ({1}, {1})
                db.barrier()
                if r == 1:
                    for key in theirs:
                        db.put(key, b"new" * 16)
                    db.flush()
                    if retire == "compaction":
                        db._schedule_compaction(ctx.clock.now)
                        assert 1 not in db.ssids
                    else:
                        db._quarantine_table(1, "test")
                db.barrier()
                # one call by the owner emptied the device's copy ...
                readers, blocks = _entries_under(cache, owner_dir)
                assert 1 not in readers and 1 not in blocks
                if r == 0:  # ... so the peer's next get goes to the device
                    ops = db.store.read_device.ops
                    if retire == "compaction":
                        res = db.get_ex(theirs[0])
                        assert (res.value, res.tier) == (b"new" * 16,
                                                         "shared_sstable")
                        assert db.store.read_device.ops > ops
                    else:  # newer table answers; the hole is not consulted
                        assert db.get(theirs[0]) == b"new" * 16
                db.barrier()
                db.close()

        spmd_run(2, app, system=SUMMITDEV)

    def test_budget_is_the_open_databases_and_close_trims(self):
        """Budget = sum of ``block_cache_capacity`` over the databases
        open on the device; closing one drops its directory, trims to
        the remainder and leaves the other's working set readable."""
        KB = 1 << 10

        def app(ctx):
            with Papyrus(ctx) as env:
                a = env.open("a", small_options(
                    block_cache_capacity=256 * KB, **_ONE_NODE))
                b = env.open("b", small_options(
                    block_cache_capacity=128 * KB, **_ONE_NODE))
                r, cache = ctx.world_rank, a.block_cache
                assert b.block_cache is cache
                for db in (a, b):
                    for key in _keys_of(db, r, 8):
                        db.put(key, b"w" * 32)
                    db.barrier(SSTABLE)
                    assert db.get(_keys_of(db, r, 8)[0]) == b"w" * 32
                a.barrier()
                both = cache.capacity_bytes
                a.close()  # collective: both ranks' shares of "a" go
                ctx.comm.barrier()  # ... once each is past its close
                ops = b.store.read_device.ops
                assert b.get(_keys_of(b, r, 8)[3]) == b"w" * 32
                out = (both, cache.capacity_bytes,
                       b.store.read_device.ops - ops,
                       _entries_under(cache, a.rank_dir),
                       _entries_under(cache, b.rank_dir))
                b.barrier()
                b.close()
                return out, cache

        results = spmd_run(2, app, system=SUMMITDEV)
        for (both, after, reads, of_a, of_b), cache in results:
            assert both == 2 * (256 + 128) * KB
            assert after == 2 * 128 * KB
            assert reads == 0  # still cached: the block and the reader
            assert of_a == (set(), set()) and of_b == ({1}, {1})
        assert cache.capacity_bytes == 0 and len(cache) == 0

    def test_trim_then_recreate_serves_no_pre_trim_block(self, tmp_path):
        """Same name, same SSIDs, new bytes: nothing cached before the
        trim may answer after it — even if the first job never closed."""
        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def job(value, close):
            def app(ctx):
                env = Papyrus(ctx)
                db = env.open("trim", small_options(**_ONE_NODE))
                for owner in (0, 1):
                    for key in _keys_of(db, owner, 8):
                        if owner == ctx.world_rank:
                            db.put(key, value)
                db.barrier(SSTABLE)
                got = [db.get(k) for o in (0, 1) for k in _keys_of(db, o, 8)]
                db.barrier()
                if close:
                    db.close()
                    env.finalize()
                return got
            return app

        cache = machine.nvm_store(0).read_cache
        assert spmd_run(2, job(b"old" * 16, close=False), system=SUMMITDEV,
                        machine=machine) == [[b"old" * 16] * 16] * 2
        assert len(cache) > 0 and cache._readers  # the job just died
        machine.trim_nvm()
        assert len(cache) == 0 and not cache._readers
        assert spmd_run(2, job(b"new" * 16, close=True), system=SUMMITDEV,
                        machine=machine) == [[b"new" * 16] * 16] * 2
        machine.close()

    def test_destroy_leaves_no_entry_under_the_directory(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gone", small_options(**_ONE_NODE))
                for owner in (0, 1):
                    for key in _keys_of(db, owner, 8):
                        if owner == ctx.world_rank:
                            db.put(key, b"d" * 32)
                db.barrier(SSTABLE)
                for owner in (0, 1):
                    assert db.get(_keys_of(db, owner, 8)[0]) == b"d" * 32
                cache, dirs = db.block_cache, [
                    f"{db.dbdir}/rank{r}" for r in (0, 1)]
                assert all(_entries_under(cache, d) == ({1}, {1})
                           for d in dirs)
                db.barrier()
                db.destroy().wait(ctx.clock)
                ctx.comm.barrier()  # every rank is past its destroy
                assert all(_entries_under(cache, d) == (set(), set())
                           for d in dirs)
                assert cache.capacity_bytes == 0

        spmd_run(2, app, system=SUMMITDEV)

    def test_concurrent_first_touch_loads_each_sidecar_once(self,
                                                            monkeypatch):
        """Rank 3's table, cold, hit at once by its own main thread, its
        handler (serving the other group) and its group peer's main
        thread: one index load, one bloom load, each block once — and
        no race or lock-order finding."""
        log = _watch_reads(monkeypatch)
        prev = rt.get_detector()
        det = rt.enable(reset=True)
        try:
            def app(ctx):
                with Papyrus(ctx) as env:
                    db = env.open("cold", small_options(
                        group_size=2, **_ONE_NODE))
                    theirs = _keys_of(db, 3, 64)
                    if ctx.world_rank == 3:
                        for key in theirs:
                            db.put(key, b"c" * 2048)  # 128 KB: a few blocks
                    db.barrier(SSTABLE)
                    assert db.get_bulk(theirs) == [b"c" * 2048] * 64
                    assert all(db.get(k) == b"c" * 2048 for k in theirs[::7])
                    db.barrier()
                    db.close()

            spmd_run(4, app, system=SUMMITDEV)
            findings = det.findings()
        finally:
            rt.restore(prev)
        assert findings == [], [f.render() for f in findings]
        reads = [(p, off) for _, p, off in log
                 if p.startswith("db_cold/rank3/")]
        assert len(reads) == len(set(reads))  # nothing read twice
        assert {p.rsplit(".", 1)[1] for p, _ in reads} == {"ssi", "bf", "ssd"}

    def test_per_rank_counters_sum_to_the_devices(self, monkeypatch):
        """``db.metrics()`` reports each rank's own lookups: over the
        ranks, hits + misses are the ``BlockCache.get`` calls made and
        misses are the device's SSData reads."""
        log = _watch_reads(monkeypatch)
        calls: list = []
        get = BlockCache.get

        def counting_get(cache, *args, **kw):
            calls.append(1)
            return get(cache, *args, **kw)

        monkeypatch.setattr(BlockCache, "get", counting_get)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("cnt", small_options(
                    block_cache_capacity=128 << 10, **_ONE_NODE))
                r = ctx.world_rank
                for key in _keys_of(db, r, 200):
                    db.put(key, b"n" * 1024)
                db.barrier(SSTABLE)
                rng = random.Random(r)
                keys = _keys_of(db, 0, 200) + _keys_of(db, 1, 200)
                for key in rng.choices(keys, k=300):
                    assert db.get(key) == b"n" * 1024
                assert sum(1 for _ in db.scan()) == 200
                db.barrier()
                m = db.metrics()["block_cache"]
                db.barrier()
                db.close()
                return m

        m0, m1 = spmd_run(2, app, system=SUMMITDEV)
        ssd_reads = sum(p.endswith(".ssd") for _, p, _ in log)
        assert m0["hits"] + m0["misses"] + m1["hits"] + m1["misses"] == len(
            calls)
        assert m0["misses"] + m1["misses"] == ssd_reads
        assert m0["evictions"] + m1["evictions"] > 0  # the budget bit
        assert min(m0["hits"], m1["hits"], m0["misses"], m1["misses"]) > 0

    def test_zero_copy_reopen_verifies_every_key(self, tmp_path):
        """What the runner's ``load`` does: fill, close, reopen the same
        name on the same machine and read every key back — from the
        retained files, through a cache the close left empty."""
        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("again", small_options())
                r, cache = ctx.world_rank, db.block_cache
                mine = _keys_of(db, r, 300)
                for i, key in enumerate(mine):
                    db.put(key, b"%06d" % i * 8)
                db.barrier(SSTABLE)
                assert db.get(mine[0]) == b"000000" * 8
                db.close()
                ctx.comm.barrier()
                assert len(cache) == 0 and not cache._readers
                assert cache.capacity_bytes == 0
                db = env.open("again", small_options())
                assert db.block_cache is cache
                for owner in (r, 1 - r):
                    for i, key in enumerate(_keys_of(db, owner, 300)):
                        assert db.get(key) == b"%06d" % i * 8
                db.barrier()
                db.close()

        spmd_run(2, app, system=SUMMITDEV, machine=machine)
        machine.close()


class TestOneWayIn:
    """Every read of another rank's tables: one ``GetMsg`` per owner, a
    ``NOT_IN_MEMORY`` reply, and a walk through the device's readers."""

    def test_the_ladder_once(self, monkeypatch):
        """A walk that keeps failing goes ask → drop → re-ask → drop →
        ``force_data``, and a drop leaves the device's readers and
        blocks of the owner alone: they are the owner's to drop."""
        planted: dict = {}  # requester thread ident -> owner directory
        events: dict = {}   # requester rank -> what its get did, in order
        key_range, drop = SSTableReader.key_range, Database._drop_peer_cache
        ask = Database._request_get

        def failing_key_range(reader, t):
            if planted.get(threading.get_ident()) == reader.directory:
                raise StorageError("planted: file vanished under the walk")
            return key_range(reader, t)

        def logging_drop(db, owner):
            owner_dir = f"{db.dbdir}/rank{owner}"
            kept = _entries_under(db.block_cache, owner_dir)
            drop(db, owner)
            assert owner not in db._peer_views
            assert _entries_under(db.block_cache, owner_dir) == kept
            events.setdefault(db.rank, []).append("drop")

        def logging_ask(db, groups, force):
            events.setdefault(db.rank, []).append(
                "force_data" if force else "ask")
            return ask(db, groups, force)

        monkeypatch.setattr(SSTableReader, "key_range", failing_key_range)
        monkeypatch.setattr(Database, "_drop_peer_cache", logging_drop)
        monkeypatch.setattr(Database, "_request_get", logging_ask)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("lad", small_options(
                    group_size=2, cache_local_enabled=False))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, 40):
                    db.put(key, b"l" * 64)
                db.barrier(SSTABLE)
                theirs = _keys_of(db, other, 40)
                res = db.get_ex(theirs[0])  # warm every cache
                assert (res.value, res.tier) == (b"l" * 64, "shared_sstable")
                assert all(_entries_under(db.block_cache,
                                          f"{db.dbdir}/rank{other}"))
                events[r] = []
                planted[threading.get_ident()] = f"{db.dbdir}/rank{other}"
                res = db.get_ex(theirs[1])
                del planted[threading.get_ident()]
                assert (res.value, res.tier) == (b"l" * 64, "remote")
                assert events[r] == [
                    "ask", "drop", "ask", "drop", "force_data"]
                assert db.get(theirs[1]) == b"l" * 64  # and it recovers
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_a_warm_view_never_masks_a_newer_tombstone(self):
        """The requester holds a warm view and warm blocks of keys the
        owner has since deleted and flushed into a newer table: the
        reply names that table, so the walk re-lists and finds the
        tombstone instead of the cached older version."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("tomb", small_options(group_size=2))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, 40):
                    db.put(key, b"old" * 8)
                db.barrier(SSTABLE)
                victims = _keys_of(db, other, 5)
                for key in victims:  # warm the view and the blocks
                    res = db.get_ex(key)
                    assert (res.value, res.tier) == (b"old" * 8,
                                                     "shared_sstable")
                warm = db._peer_views[other].ssids
                db.barrier()
                for key in _keys_of(db, r, 40):
                    db.delete(key)
                db.barrier(SSTABLE)
                for key in victims:
                    assert db.get_or_none(key) is None
                assert db._peer_views[other].ssids[-1] > warm[-1]
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_a_peer_walk_after_an_in_place_repair_reads_the_new_table(
            self):
        """The owner rebuilds a table under its own SSID (the scrub
        repair's install): the newest SSID a reply names is unchanged,
        but the device's invalidation generation moved, so the peer's
        view resolves its readers again and reads the rebuilt table
        through them — no walk on the old readers, no stale-view
        ladder."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repair", small_options(
                    group_size=2, cache_local_enabled=False,
                    memtable_capacity=1 << 20, compaction_interval=0))
                r = ctx.world_rank
                theirs = _keys_of(db, 1, 40)
                if r == 1:
                    for key in theirs:
                        db.put(key, b"old" * 20)
                    db.flush()
                db.barrier()
                if r == 0:
                    for key in theirs:
                        res = db.get_ex(key)
                        assert (res.value, res.tier) == (
                            b"old" * 20, "shared_sstable")
                db.barrier()
                if r == 1:
                    (ssid,) = db.ssids
                    blobs = encode_table([Record(key, b"new" * 30, False)
                                          for key in sorted(theirs)])
                    assert db._install_table_blobs(ssid, dict(zip(
                        sstable_filenames(ssid),
                        (blobs["data"], blobs["index"], blobs["bloom"]))))
                db.barrier()
                if r == 0:
                    dropped = []
                    db._drop_peer_cache = dropped.append
                    for key in theirs:
                        res = db.get_ex(key)
                        assert (res.value, res.tier) == (
                            b"new" * 30, "shared_sstable")
                    # read under the re-resolved view at once, not after
                    # a walk on the old readers failed its CRC check
                    assert dropped == []
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_a_purge_drops_the_view_and_keeps_the_devices_copy(self):
        """``_drop_peer_cache`` and ``_forget_dead_rank`` leave no view
        of the owner and keep the device's readers and blocks; the
        owner's own invalidation empties the device's one copy."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("one", small_options(
                    group_size=2, cache_local_enabled=False))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, 40):
                    db.put(key, b"p" * 64)
                db.barrier(SSTABLE)
                other_dir = f"{db.dbdir}/rank{other}"
                theirs = _keys_of(db, other, 40)
                for purge in (
                    lambda: db._drop_peer_cache(other),
                    lambda: db._forget_dead_rank(other),
                ):
                    for key in theirs[:8]:
                        assert db.get_ex(key).tier == "shared_sstable"
                    kept = _entries_under(db.block_cache, other_dir)
                    assert other in db._peer_views and all(kept)
                    purge()
                    assert other not in db._peer_views
                    assert _entries_under(db.block_cache, other_dir) == kept
                db.barrier()  # the peer is done reading my directory
                # my own tables, read the way a same-group peer reads
                # them: a table replaced in place (repair, restore) must
                # not survive under its old bytes for anyone on the device
                ssids = tuple(sorted(db.ssids))
                mine = _keys_of(db, r, 40)
                recs = db._peer_walk(
                    r, db._peer_view(db.rank_dir, ssids), mine)
                assert [rec.value for rec in recs] == [b"p" * 64] * 40
                old = {s: db._reader(s) for s in ssids}
                assert all(db._peer_reader(db.rank_dir, s) is old[s]
                           for s in ssids)
                readers, blocks = _entries_under(db.block_cache, db.rank_dir)
                assert readers == set(ssids) and blocks
                # the owner's view holds a fresh, unloaded reader of a
                # table it invalidated: nothing of the old one survives
                db._invalidate_readers(ssids[0])
                readers, blocks = _entries_under(db.block_cache, db.rank_dir)
                assert ssids[0] not in blocks
                assert [db._reader(s) is old[s] for s in ssids] == [
                    s != ssids[0] for s in ssids]
                db._invalidate_readers()
                readers, blocks = _entries_under(db.block_cache, db.rank_dir)
                assert blocks == set()
                assert not any(db._reader(s) is old[s] for s in ssids)
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_a_bulk_get_reads_what_the_owner_would(self, monkeypatch):
        """A 64-key same-group ``get_bulk`` is one ``GetMsg``, one reply
        — and when the owner looks the same keys up at the same time,
        the peer's and the owner's device reads *together* are the ones
        a single cold reader makes: every block and sidecar comes off
        the node's device once, for whichever of the two got there
        first."""
        reads = _watch_reads(monkeypatch)
        served: list = []  # the owner rank of every GetMsg served
        serve_get = handler._serve_get

        def counting_serve_get(db, *args):
            served.append(db.rank)
            return serve_get(db, *args)

        monkeypatch.setattr(handler, "_serve_get", counting_serve_get)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("off", small_options(
                    group_size=2, cache_local_enabled=False))
                r = ctx.world_rank
                for key in _keys_of(db, r, 64):
                    db.put(key, b"o" * 64)
                db.barrier(SSTABLE)
                keys = _keys_of(db, 1, 64)
                me = threading.get_ident()
                if r == 1:  # the baseline: one cold reader, alone
                    db._invalidate_readers()
                    n0 = len(reads)
                    assert db.get_bulk(keys) == [b"o" * 64] * 64
                    assert {tid for tid, _, _ in reads[n0:]} == {me}
                    alone = sorted(rd[1:] for rd in reads[n0:])
                    db._invalidate_readers()
                else:
                    alone = None
                db.barrier()  # nobody reads from here ...
                n0, msgs0 = len(reads), db.stats.bulk_owner_msgs
                db.barrier()  # ... to here
                # rank 0 reads them as a peer, rank 1 as their owner
                assert db.get_bulk(keys) == [b"o" * 64] * 64
                sent = db.stats.bulk_owner_msgs - msgs0
                tiers = dict(db.stats.get_tiers)
                db.barrier()
                made = [rd[1:] for rd in reads[n0:] if rd[0] == me]
                db.close()
                return made, sent, tiers, alone

        (peer, sent, tiers, _), (own, _, _, alone) = spmd_run(2, app)
        assert sent == 1 and served == [1]
        assert tiers == {"shared_sstable": 64}
        # neither re-read a block or sidecar the other had fetched
        assert len(alone) == len(set(alone)) > 0
        assert sorted(peer + own) == alone

    def test_each_sidecar_is_read_once_per_device(self, monkeypatch):
        """Owner and peer both search through the device's file-built
        reader, so a table's index and bloom come off the owner's device
        once, whoever and however many ask."""
        reads = _watch_reads(monkeypatch)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("big", small_options(group_size=2))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, 40):
                    db.put(key, b"b" * 32)
                db.barrier(SSTABLE)
                owner_dir = f"{db.dbdir}/rank{other}"
                (ssid,) = list_ssids(db.store, owner_dir)
                for key in _keys_of(db, other, 40):
                    res = db.get_ex(key)
                    assert (res.value, res.tier) == (b"b" * 32,
                                                     "shared_sstable")
                _, index_path, bloom_path = db._peer_reader(
                    owner_dir, ssid).file_paths()
                db.barrier()  # the owner has read its peer's tables too
                loads = Counter(p for _, p, _ in reads
                                if p.startswith(owner_dir + "/")
                                and p.endswith((".ssi", ".bf")))
                assert loads == {index_path: 1, bloom_path: 1}
                db.close()

        spmd_run(2, app)


class TestRankDeath:
    #: the owner's kill op, drawn from the fault seed: past the puts and
    #: the barrier that warm the reader, inside its burn loop
    KILL_NTH = 40 + FAULT_SEED % 50

    def test_dead_owner_view_is_purged_and_gets_fail_over(self):
        """After a rank death the survivor's view of the dead owner is
        purged while the device keeps its readers, and gets fail over to
        the replica instead of walking the dead owner's tables.

        Three ranks in one storage group, replicas=2: rank 2 is outside
        rank 0's replica group, so its warm gets of rank 0's keys take
        the §2.7 handshake — against rank 0, the rank the fault plan
        kills."""
        sync_all = threading.Barrier(3)
        survivors = threading.Barrier(2)
        shared: dict = {}

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("kill", small_options(
                group_size=3, replicas=2, write_quorum=1,
                remote_timeout=0.5,
            ))
            r = ctx.world_rank
            own = _keys_of(db, r, 30, prefix="x")
            for key in own:
                db.put(key, b"s" * 24)
            # fence-then-flush settles the replica fan-out before the
            # flush (nobody is dead yet, so the collective is safe)
            db.barrier(SSTABLE)
            dead_dir = f"{db.dbdir}/rank0"
            if r == 2:
                warm = _keys_of(db, 0, 3, prefix="x")
                shared["warm"] = warm
                for key in warm:
                    res = db.get_ex(key)
                    assert (res.value, res.tier) == (b"s" * 24,
                                                     "shared_sstable")
                assert 0 in db._peer_views
                readers = _entries_under(db.block_cache, dead_dir)[0]
                assert readers
            sync_all.wait()  # rank 2's view is warm; rank 0 may die now
            if r == 0:
                for _ in range(200):  # burn ops into the kill schedule
                    db.put(own[0], b"t" * 8)
                raise AssertionError("victim survived its kill schedule")
            mv = db.membership
            for _ in range(30000):
                db.tick()
                if mv.is_dead(0) and not mv.pending_rereplication:
                    break
            assert mv.is_dead(0)
            if r == 2:
                # the death purged the view; the device keeps its readers
                assert 0 not in db._peer_views
                assert _entries_under(db.block_cache, dead_dir)[0] >= readers
                for key in shared["warm"]:
                    assert db.get_or_none(key) == b"s" * 24  # failover
                assert 0 not in db._peer_views  # nobody walked rank 0
            survivors.wait()
            db.srv_comm.send(msg.StopMsg(), db.rank, tag=0)
            db._handler_thread.join(10)
            db._closed = True
            return "survivor-ok"

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(0, nth=self.KILL_NTH)
        res = spmd_run(3, app, faults=faults, timeout=240)
        assert res[0] is None  # the kill fired
        assert res[1] == "survivor-ok" and res[2] == "survivor-ok"


class TestRaceDetector:
    def test_the_handshake_path_is_race_clean(self):
        """Peers walking each other's tables (rank main) while each
        owner's handler serves their ``GetMsg`` and compaction retires
        the tables a view named run clean under the dynamic detector."""
        prev = rt.get_detector()
        det = rt.enable(reset=True)
        try:
            def app(ctx):
                with Papyrus(ctx) as env:
                    db = env.open("race", small_options(
                        group_size=2, compaction_interval=2))
                    r = ctx.world_rank
                    mine = _keys_of(db, r, 30, prefix="z")
                    theirs = _keys_of(db, 1 - r, 30, prefix="z")
                    for gen in range(3):
                        for key in mine:
                            db.put(key, b"y%d" % gen * 8)
                        db.barrier(SSTABLE)
                        for key in theirs:
                            res = db.get_ex(key)
                            assert (res.value, res.tier) == (
                                b"y%d" % gen * 8, "shared_sstable")
                        db.barrier()
                    db.close()

            spmd_run(2, app)
            findings = det.findings()
        finally:
            rt.restore(prev)
        assert findings == [], [f.render() for f in findings]
