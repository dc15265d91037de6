"""One-sided index replication: peer gets without the handler.

The contract under test: with ``index_replication=True`` a get of
another rank's key runs the full gate order (quarantine flag, fences,
bloom, index) against the owner's SSTable metadata — *replicated*
bundles when the owner sits in another storage group, the sidecar
files themselves when it shares the requester's — and issues a single
direct data read into the owner's NVM: zero handler messages at steady
state, while every owner-side mutation (flush, compaction, quarantine,
delete, rank death) makes the view detectably stale rather than
silently wrong.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import Papyrus, SSTABLE, spmd_run
from repro.config import Options, SEQUENTIAL
from repro.core import handler
from repro.core import messages as msg
from repro.core.db import Database
from repro.errors import CorruptionError, KeyNotFoundError, StorageError
from repro.faults import FaultPlan
from repro.nvm.posixfs import PosixStore
from repro.sstable.reader import SSTableReader, list_ssids
from tests.conftest import small_options

FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


def _ix_options(**kw) -> Options:
    """group_size=1 puts every peer in a foreign storage group, so every
    remote get exercises the cross-group path."""
    base = dict(group_size=1, index_replication=True)
    base.update(kw)
    return small_options(**base)


def _watch(monkeypatch) -> SimpleNamespace:
    """Log what the plane puts on the wire and the device, process-wide:
    ``gets`` — the owner rank of every ``GetMsg`` a handler served;
    ``shipped`` — the bundle bytes each pull/publish brought its
    requester, as ``(requester, nbytes)``; ``sidecars`` — every index or
    bloom file read, as ``(thread ident, path)``."""
    log = SimpleNamespace(gets=[], shipped=[], sidecars=[])
    serve_get, install = handler._serve_get, Database._install_index_view
    read = PosixStore.read

    def counting_serve_get(db, *args):
        log.gets.append(db.rank)
        return serve_get(db, *args)

    def counting_install(db, owner, owner_dir, ssids, bundles, *flags):
        log.shipped.append((db.rank, sum(map(len, bundles.values()))))
        return install(db, owner, owner_dir, ssids, bundles, *flags)

    def logging_read(store, relpath, *args, **kw):
        if relpath.endswith((".ssi", ".bf")):
            log.sidecars.append((threading.get_ident(), relpath))
        return read(store, relpath, *args, **kw)

    monkeypatch.setattr(handler, "_serve_get", counting_serve_get)
    monkeypatch.setattr(Database, "_install_index_view", counting_install)
    monkeypatch.setattr(PosixStore, "read", logging_read)
    return log


def _keys_of(db, owner: int, n: int = 200, prefix: str = "k"):
    """The first keys (by index) that hash to ``owner``."""
    out = []
    for i in range(10000):
        key = f"{prefix}{i:04d}".encode()
        if db.owner_of(key) == owner:
            out.append(key)
            if len(out) == n:
                break
    return out


class TestSteadyState:
    #: the owner's placement: with 1 every peer sits in another storage
    #: group and its metadata travels as bundles; with 2 it shares the
    #: requester's storage (see the ``...SameGroup`` subclass below)
    group_size = 1

    def test_cross_group_gets_resolve_one_sided(self, monkeypatch):
        """After one pull, every peer get is a direct read: tier
        ``index_sstable``, hit-rate 100%, zero fallbacks, no ``GetMsg``.
        Bundle bytes travel only to a requester that cannot read the
        owner's sidecars, which it then reads once per table."""
        log = _watch(monkeypatch)
        same_group = self.group_size == 2

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ix", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(60):
                    db.put(f"k-{r}-{i:02d}".encode(), bytes([65 + r]) * 32)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                served = 0
                for i in range(60):
                    key = f"k-{other}-{i:02d}".encode()
                    if db.owner_of(key) == r:
                        continue  # stay on the cross-rank path only
                    res = db.get_ex(key)
                    assert res.value == bytes([65 + other]) * 32
                    assert res.tier == "index_sstable"
                    served += 1
                st = db.stats
                assert served > 0
                assert st.index_repl_hits == served
                assert st.index_pulls == 1  # one handshake, then silence
                assert st.index_repl_misses == 1
                assert st.index_repl_fallbacks == 0
                # zero handler round trips: no remote/shared tiers at all
                assert "remote" not in st.get_tiers
                assert "shared_sstable" not in st.get_tiers
                shipped = sum(n for rank, n in log.shipped if rank == r)
                assert (shipped == 0) == same_group
                me = threading.get_ident()
                owner_dir = f"{db.dbdir}/rank{other}/"
                mine = Counter(p for t, p in log.sidecars
                               if t == me and p.startswith(owner_dir))
                assert set(mine.values()) <= {1}  # once per table, if ever
                assert bool(mine) == same_group
                db.barrier()
                db.close()

        spmd_run(2, app)
        assert log.gets == []

    def test_bulk_gets_route_one_sided(self):
        """get_bulk resolves whole owners from replicated metadata."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixb", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(60):
                    db.put(f"b-{r}-{i:02d}".encode(), b"w" * 24)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                keys = [
                    f"b-{other}-{i:02d}".encode() for i in range(60)
                    if db.owner_of(f"b-{other}-{i:02d}".encode()) != r
                ]
                values = db.get_bulk(keys)
                assert all(v == b"w" * 24 for v in values)
                st = db.stats
                assert st.index_repl_hits == len(keys)
                assert st.get_tiers.get("index_sstable") == len(keys)
                assert st.index_repl_fallbacks == 0
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_sequential_mode_stays_on_the_handler(self):
        """Sequential consistency promises immediate remote visibility —
        a state only the owner's handler can see — so the one-sided
        path must disable itself."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(
                    "ixs", _ix_options(group_size=self.group_size,
                                     consistency=SEQUENTIAL)
                )
                r = ctx.world_rank
                for i in range(30):
                    db.put(f"s-{r}-{i:02d}".encode(), b"q" * 16)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                for i in range(30):
                    key = f"s-{other}-{i:02d}".encode()
                    if db.owner_of(key) != r:
                        res = db.get_ex(key)
                        assert res.tier == (
                            "remote" if self.group_size == 1
                            else "shared_sstable")
                st = db.stats
                assert st.index_repl_hits == 0
                assert st.index_pulls == 0
                db.barrier()
                db.close()

        spmd_run(2, app)


class TestSteadyStateSameGroup(TestSteadyState):
    group_size = 2


class TestStaleness:
    group_size = 1

    def test_owner_flush_is_detected_and_repulled(self):
        """A new table at the owner changes its directory listing; the
        requester's next get re-pulls instead of trusting old metadata."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixf", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"f-{r}-{i:02d}".encode(), b"1" * 24)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                keys = [k for k in
                        (f"f-{other}-{i:02d}".encode() for i in range(40))
                        if db.owner_of(k) != r]
                for key in keys:
                    assert db.get(key) == b"1" * 24  # warm view + bundles
                db.barrier()
                # the owner overwrites everything in a second generation
                for i in range(40):
                    db.put(f"f-{r}-{i:02d}".encode(), b"2" * 24)
                db.barrier(SSTABLE)
                st0 = db.stats.index_repl_stale
                for key in keys:
                    assert db.get(key) == b"2" * 24
                st = db.stats
                assert st.index_repl_stale > st0
                assert st.index_repl_fallbacks == 0  # re-pull, not punt
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_stale_bundle_never_masks_a_newer_tombstone(self):
        """Seeded fault shape from the issue: requester holds warm
        bundles *and* warm data blocks for a key the owner has since
        deleted and flushed.  The newest-ssid handshake must route the
        get to the new tombstone, not the cached older version."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixt", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"t-{r}-{i:02d}".encode(), b"old" * 8)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                victims = [k for k in
                           (f"t-{other}-{i:02d}".encode() for i in range(40))
                           if db.owner_of(k) != r][:5]
                for key in victims:
                    assert db.get(key) == b"old" * 8  # warm every cache
                db.barrier()
                # the owner deletes its own keys locally and flushes the
                # tombstones into a fresh table
                for i in range(40):
                    db.delete(f"t-{r}-{i:02d}".encode())
                db.barrier(SSTABLE)
                for key in victims:
                    assert db.get_or_none(key) is None
                assert db.stats.index_repl_stale > 0
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_owner_compaction_is_detected(self):
        """Compaction replaces tables under fresh SSIDs; the requester
        re-pulls and keeps reading correct values one-sidedly."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixc", _ix_options(
                    group_size=self.group_size, compaction_interval=2))
                r = ctx.world_rank
                other = (r + 1) % ctx.nranks
                for gen in range(4):
                    for i in range(40):
                        db.put(f"c-{r}-{i:02d}".encode(),
                               f"g{gen}".encode() * 8)
                    db.barrier(SSTABLE)
                    for i in range(0, 40, 5):
                        key = f"c-{other}-{i:02d}".encode()
                        if db.owner_of(key) != r:
                            assert db.get(key) == f"g{gen}".encode() * 8
                    db.barrier()
                st = db.stats
                assert st.index_repl_hits > 0
                assert st.index_repl_fallbacks == 0
                db.close()

        spmd_run(2, app)

    def test_owner_quarantine_forces_the_handler_path(self):
        """A quarantined owner cannot be read one-sidedly: the rename to
        ``.quar`` changes the listing, the re-pulled view says
        ``quarantine_free=False``, and the get degrades through the
        handler exactly like the two-sided protocol."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixq", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"q-{r}-{i:02d}".encode(), b"h" * 48)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                keys = [k for k in
                        (f"q-{other}-{i:02d}".encode() for i in range(40))
                        if db.owner_of(k) != r]
                for key in keys[:5]:
                    assert db.get(key) == b"h" * 48  # warm the view
                db.barrier()
                victim = db.ssids[0]
                path = f"{db.rank_dir}/{victim:010d}.ssd"
                blob = db.store.read(path, db.clock.now)[0]
                mutated = bytearray(blob)
                mutated[min(500, len(blob) - 1)] ^= 0xFF
                db.store.write(path, bytes(mutated), db.clock.now)
                report = db.verify(repair=False)
                assert victim in report["quarantined"]
                db.barrier()
                # every cross-group get now answers via the owner's
                # handler: poisoned ranges degrade loudly, nothing is
                # served from the stale replicated metadata
                hits_before = db.stats.index_repl_hits
                for key in keys[:5]:
                    try:
                        db.get(key)
                    except CorruptionError:
                        pass  # inside the poisoned range: correct refusal
                assert db.stats.index_repl_hits == hits_before
                assert db.stats.index_repl_fallbacks > 0
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_checkpoint_restore_keeps_one_sided_reads_correct(self):
        """A table rewritten in place from a checkpoint (same ssid) must
        not leave any peer serving torn or stale bytes."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixr", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"r-{r}-{i:02d}".encode(), b"z" * 48)
                db.barrier(SSTABLE)
                db.checkpoint("ixrsnap").wait(ctx.clock)
                db.coll_comm.barrier()
                other = (r + 1) % ctx.nranks
                keys = [k for k in
                        (f"r-{other}-{i:02d}".encode() for i in range(40))
                        if db.owner_of(k) != r]
                for key in keys[:8]:
                    assert db.get(key) == b"z" * 48  # warm bundles+blocks
                db.barrier()
                victim = db.ssids[0]
                path = f"{db.rank_dir}/{victim:010d}.ssd"
                blob = db.store.read(path, db.clock.now)[0]
                mutated = bytearray(blob)
                mutated[min(300, len(blob) - 1)] ^= 0xFF
                db.store.write(path, bytes(mutated), db.clock.now)
                report = db.verify(repair=True)
                assert victim in report["rebuilt"]
                db.barrier()
                for key in keys[:8]:
                    assert db.get(key) == b"z" * 48
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_fence_drops_the_mem_clean_stamp(self):
        """Read-your-writes across the visibility boundary: after my
        fence, my migrated put must be readable even though I hold a
        (now stale) mem-clean view of the owner."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixw", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"w-{r}-{i:02d}".encode(), b"v0" * 8)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                key = next(k for k in
                           (f"w-{other}-{i:02d}".encode() for i in range(40))
                           if db.owner_of(k) != r)
                assert db.get(key) == b"v0" * 8  # view cached, mem_clean
                db.put(key, b"v1" * 8)  # migrates into the owner's MemTable
                db.fence()
                # the stamp died with the fence: this get must take the
                # handler and see the owner's MemTable
                assert db.get(key) == b"v1" * 8
                assert db.stats.index_repl_fallbacks > 0
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_owner_put_is_seen_after_the_barrier(self):
        """The owner rewrites its own key in its MemTable — state no
        direct read can see.  The barrier's fence marks every view
        dirty, so the next get asks the handler and sees the put."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixo", _ix_options(group_size=self.group_size))
                r = ctx.world_rank
                mine = _keys_of(db, r, n=10, prefix="o")
                for key in mine:
                    db.put(key, b"v0" * 8)
                db.barrier(SSTABLE)
                theirs = _keys_of(db, (r + 1) % ctx.nranks, n=10, prefix="o")
                assert db.get_ex(theirs[0]).tier == "index_sstable"
                db.barrier()
                db.put(mine[0], b"v1" * 8)  # local: stays in my MemTable
                db.barrier()
                fallbacks = db.stats.index_repl_fallbacks
                res = db.get_ex(theirs[0])
                assert res.value == b"v1" * 8
                assert res.tier == "remote"  # answered from memory
                assert db.stats.index_repl_fallbacks == fallbacks + 1
                db.barrier()
                db.close()

        spmd_run(2, app)


class TestStalenessSameGroup(TestStaleness):
    group_size = 2


def _cached_of(db, owner_dir: str):
    """``(readers, blocks)`` cached under ``owner_dir``: this rank's
    bundle-built readers and the device's file-built ones, and the
    device's blocks."""
    ssids = [s for d, s in db._peer_reader_lru.keys() if d == owner_dir]
    ssids += [s for d, s in list(db.block_cache._readers) if d == owner_dir]
    blocks = sum(db.block_cache.cached_blocks(owner_dir, s)
                 for s in list_ssids(db.store, owner_dir))
    return ssids, blocks


class TestOnePlane:
    """One view map, one walk, one ladder — whether the reader's
    metadata came as a bundle (this rank's LRU) or off the shared
    directory (the device's reader)."""

    @pytest.mark.parametrize("group_size", [1, 2], ids=["bundle", "files"])
    def test_one_cache_one_purge(self, group_size):
        """A requester's purge leaves no view of the owner and, for an
        owner outside its group, no reader and no cached block; the
        owner's own invalidation empties the device's one copy."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("one", _ix_options(
                    group_size=group_size, cache_local_enabled=False))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, n=40):
                    db.put(key, b"p" * 64)
                db.barrier(SSTABLE)
                other_dir = f"{db.dbdir}/rank{other}"
                theirs = _keys_of(db, other, n=40)

                def warm():
                    for key in theirs[:8]:
                        assert db.get_ex(key).tier == "index_sstable"
                    readers, blocks = _cached_of(db, other_dir)
                    assert other in db._peer_views and readers and blocks

                for purge in (
                    lambda: db._drop_peer_cache(other, other_dir),
                    lambda: db._forget_dead_rank(other),
                ):
                    warm()
                    kept = _cached_of(db, other_dir)
                    purge()
                    assert other not in db._peer_views
                    # a same-group owner's readers and blocks are the
                    # device's — hot for the whole node, the owner's to
                    # drop; of any other owner nothing survives
                    assert _cached_of(db, other_dir) == (
                        kept if group_size == 2 else ([], 0))
                db.barrier()  # the peer is done reading my directory
                # my own tables, read the way a same-group peer reads
                # them: a table replaced in place (repair, restore) must
                # not survive under its old bytes for anyone on the device
                ssids, _, _, bundles = db._index_snapshot(
                    lambda ssid: True, not db.shares_storage_with(other),
                    db.clock)
                assert bool(bundles) == (group_size == 1)
                assert db._install_index_view(
                    r, db.rank_dir, ssids, {}, True, True)
                mine = _keys_of(db, r, n=40)
                recs = db._peer_walk(r, db._peer_views[r], mine)
                assert [rec.value for rec in recs] == [b"p" * 64] * 40
                assert all(db._peer_reader(r, db.rank_dir, s)
                           is db._reader(s) for s in ssids)
                readers, blocks = _cached_of(db, db.rank_dir)
                assert sorted(readers) == list(ssids) and blocks
                db._invalidate_readers(ssids[0])
                assert sorted(_cached_of(db, db.rank_dir)[0]) == \
                    list(ssids[1:])
                assert db.block_cache.cached_blocks(
                    db.rank_dir, ssids[0]) == 0
                db._invalidate_readers()
                assert _cached_of(db, db.rank_dir) == ([], 0)
                db.barrier()
                db.close()

        spmd_run(2, app)

    @pytest.mark.parametrize(
        "group_size,index_replication", [(2, False), (1, True), (2, True)],
        ids=["handshake", "one-sided-bundle", "one-sided-files"])
    def test_the_ladder_once(self, group_size, index_replication,
                             monkeypatch):
        """A walk that keeps failing goes drop → refresh → retry once →
        ``force_data`` on either route, and nothing cached from the
        owner survives a drop."""
        planted: dict = {}  # requester thread ident -> owner directory
        events: dict = {}   # requester rank -> what its get did, in order
        key_range, drop = SSTableReader.key_range, Database._drop_peer_cache
        ask, pull = Database._request_get, Database._index_pull

        def failing_key_range(reader, t):
            if planted.get(threading.get_ident()) == reader.directory:
                raise StorageError("planted: file vanished under the walk")
            return key_range(reader, t)

        def logging_drop(db, owner, owner_dir):
            kept = _cached_of(db, owner_dir)
            drop(db, owner, owner_dir)
            assert owner not in db._peer_views
            # what the device caches of a same-group owner is not the
            # requester's to drop
            assert _cached_of(db, owner_dir) == (
                kept if db.shares_storage_with(owner) else ([], 0))
            events.setdefault(db.rank, []).append("drop")

        def logging_ask(db, groups, force):
            events.setdefault(db.rank, []).append(
                "force_data" if force else "ask")
            return ask(db, groups, force)

        def logging_pull(db, owner):
            events.setdefault(db.rank, []).append("pull")
            return pull(db, owner)

        monkeypatch.setattr(SSTableReader, "key_range", failing_key_range)
        monkeypatch.setattr(Database, "_drop_peer_cache", logging_drop)
        monkeypatch.setattr(Database, "_request_get", logging_ask)
        monkeypatch.setattr(Database, "_index_pull", logging_pull)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("lad", _ix_options(
                    group_size=group_size, cache_local_enabled=False,
                    index_replication=index_replication))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, n=40):
                    db.put(key, b"l" * 64)
                db.barrier(SSTABLE)
                theirs = _keys_of(db, other, n=40)
                assert db.get(theirs[0]) == b"l" * 64  # warm every cache
                events[r] = []
                stale = db.stats.index_repl_stale
                fallbacks = db.stats.index_repl_fallbacks
                planted[threading.get_ident()] = f"{db.dbdir}/rank{other}"
                res = db.get_ex(theirs[1])
                del planted[threading.get_ident()]
                assert (res.value, res.tier) == (b"l" * 64, "remote")
                refresh = "pull" if index_replication else "ask"
                first = [] if index_replication else ["ask"]
                assert events[r] == first + [
                    "drop", refresh, "drop", "force_data"]
                if index_replication:
                    assert db.stats.index_repl_stale == stale + 2
                    assert db.stats.index_repl_fallbacks == fallbacks + 1
                assert db.get(theirs[1]) == b"l" * 64  # and it recovers
                db.barrier()
                db.close()

        spmd_run(2, app)

    @pytest.mark.parametrize("group_size", [1, 2], ids=["bundle", "files"])
    def test_a_handshake_view_does_not_shadow_the_pull(self, group_size,
                                                       monkeypatch):
        """A pull that timed out sends the get to the handler, whose
        ``NOT_IN_MEMORY`` reply installs a view off a listing.  That
        view vouches for nothing, so the next get pulls again instead of
        asking the handler until the owner's table set changes; and a
        key that falls back is counted once however often the ladder
        asks for it."""
        planted: dict = {}  # requester thread ident -> owner directory
        key_range, pull = SSTableReader.key_range, Database._index_pull

        def failing_key_range(reader, t):
            if planted.get(threading.get_ident()) == reader.directory:
                raise StorageError("planted: file vanished under the walk")
            return key_range(reader, t)

        lost: dict = {}  # requester rank -> pulls still to lose

        def losing_pull(db, owner):
            if lost.get(db.rank, 0) > 0:
                lost[db.rank] -= 1
                return False  # what a RemoteTimeoutError is absorbed to
            return pull(db, owner)

        monkeypatch.setattr(SSTableReader, "key_range", failing_key_range)
        monkeypatch.setattr(Database, "_index_pull", losing_pull)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("shadow", _ix_options(group_size=group_size))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, n=40):
                    db.put(key, b"s" * 64)
                db.barrier(SSTABLE)
                theirs = _keys_of(db, other, n=40)
                lost[r] = 1
                res = db.get_ex(theirs[0])
                assert (res.value, res.tier) == (b"s" * 64, "shared_sstable"
                                                 if group_size == 2
                                                 else "remote")
                assert db.stats.index_repl_fallbacks == 1
                if group_size == 2:
                    assert db._peer_views[other].mem_clean is None
                pulls = db.stats.index_pulls
                assert db.get_ex(theirs[1]).tier == "index_sstable"
                assert db.stats.index_pulls == pulls + 1
                assert db.stats.index_repl_fallbacks == 1
                # both pulls lost and every walk failing: asked, re-asked
                # and forced — one fallback
                db._drop_index_view(other)
                lost[r] = 2
                planted[threading.get_ident()] = f"{db.dbdir}/rank{other}"
                res = db.get_ex(theirs[2])
                del planted[threading.get_ident()]
                assert (res.value, res.tier) == (b"s" * 64, "remote")
                assert lost[r] == (0 if group_size == 2 else 1)
                assert db.stats.index_repl_fallbacks == 2
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_option_off_reads_what_the_owner_would(self, monkeypatch):
        """With the option off a 64-key same-group ``get_bulk`` is one
        ``GetMsg``, one reply — and when the owner looks the same keys
        up at the same time, the peer's and the owner's device reads
        *together* are the ones a single cold reader makes: every block
        and sidecar comes off the node's device once, for whichever of
        the two got there first."""
        log = _watch(monkeypatch)
        reads: list = []  # (thread ident, path, offset) per device read
        read = PosixStore.read  # _watch's logger: chain onto it

        def counting_read(store, relpath, t, offset=0, *args, **kw):
            reads.append((threading.get_ident(), relpath, offset))
            return read(store, relpath, t, offset, *args, **kw)

        monkeypatch.setattr(PosixStore, "read", counting_read)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("off", _ix_options(
                    group_size=2, index_replication=False,
                    cache_local_enabled=False))
                r = ctx.world_rank
                for key in _keys_of(db, r, n=64):
                    db.put(key, b"o" * 64)
                db.barrier(SSTABLE)
                keys = _keys_of(db, 1, n=64)
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
        assert sent == 1 and log.gets == [1] and log.shipped == []
        assert tiers == {"shared_sstable": 64}
        # neither re-read a block or sidecar the other had fetched
        assert len(alone) == len(set(alone)) > 0
        assert sorted(peer + own) == alone


class TestCacheBounds:
    def test_peer_caches_are_bounded_and_funneled(self):
        """White-box: the peer readers live under one cost-budgeted
        LRU, and ``_drop_peer_cache`` purges the view, the readers AND
        the owner's cached data blocks in one call (the historical
        leak: spans survived and served stale bytes until they aged
        out)."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixd", _ix_options())
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"d-{r}-{i:02d}".encode(), b"p" * 64)
                db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                owner_dir = f"{db.dbdir}/rank{other}"
                keys = [k for k in
                        (f"d-{other}-{i:02d}".encode() for i in range(40))
                        if db.owner_of(k) != r]
                for key in keys:
                    assert db.get(key) == b"p" * 64
                # direct reads warmed data blocks under the OWNER's dir
                other_ssids = [s for d, s in db._peer_reader_lru.keys()
                               if d == owner_dir]
                assert other_ssids
                assert any(
                    db.block_cache.cached_blocks(owner_dir, s) > 0
                    for s in other_ssids
                )
                assert db._peer_reader_lru.cost <= \
                    db.options.index_cache_capacity
                db._drop_peer_cache(other, owner_dir)
                assert other not in db._peer_views
                assert not [k for k in db._peer_reader_lru.keys()
                            if k[0] == owner_dir]
                assert all(
                    db.block_cache.cached_blocks(owner_dir, s) == 0
                    for s in other_ssids
                )
                # the next get recovers by itself (re-pull)
                assert db.get(keys[0]) == b"p" * 64
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_tiny_bundle_budget_still_serves_correctly(self):
        """With a budget too small to hold every bundle the path keeps
        falling back (or re-pulling) but never serves wrong data."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(
                    "ixe", _ix_options(index_cache_capacity=256)
                )
                r = ctx.world_rank
                for gen in range(3):
                    for i in range(40):
                        db.put(f"e-{r}-{i:02d}".encode(), b"m" * 32)
                    db.barrier(SSTABLE)
                other = (r + 1) % ctx.nranks
                for i in range(40):
                    key = f"e-{other}-{i:02d}".encode()
                    if db.owner_of(key) != r:
                        assert db.get(key) == b"m" * 32
                assert db._peer_reader_lru.cost <= 256
                db.barrier()
                db.close()

        spmd_run(2, app)


    def test_an_oversized_file_built_reader_is_cached_alone(self,
                                                            monkeypatch):
        """Option off, same group: a table whose sidecar files outgrow
        ``index_cache_capacity`` is still cached — by the device, whose
        file-built readers that budget (for shipped bundles) does not
        govern — so both sidecars come off the owner's device once,
        whoever and however many ask."""
        log = _watch(monkeypatch)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("big", _ix_options(
                    group_size=2, index_replication=False,
                    index_cache_capacity=64))
                r = ctx.world_rank
                other = 1 - r
                for key in _keys_of(db, r, n=40):
                    db.put(key, b"b" * 32)
                db.barrier(SSTABLE)
                owner_dir = f"{db.dbdir}/rank{other}"
                (ssid,) = list_ssids(db.store, owner_dir)
                for key in _keys_of(db, other, n=40):
                    res = db.get_ex(key)
                    assert (res.value, res.tier) == (b"b" * 32,
                                                     "shared_sstable")
                rd = db.block_cache.reader(db.store, owner_dir, ssid)
                _, index_path, bloom_path = rd.file_paths()
                assert db.store.size(index_path) > 64
                assert not db._peer_reader_lru.keys()
                db.barrier()  # the owner has read its peer's tables too
                loads = Counter(p for _, p in log.sidecars
                                if p.startswith(owner_dir + "/"))
                assert loads == {index_path: 1, bloom_path: 1}
                db.close()

        spmd_run(2, app)


class TestEagerPublish:
    def test_owner_pushes_bundles_to_its_replica_group(self):
        """With ``replicas=2`` the owner's flush eagerly publishes fresh
        bundles to its ring successor, which installs the view without
        ever sending a pull."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixp", _ix_options(
                    replicas=2, write_quorum=1, remote_timeout=0.2,
                ))
                r = ctx.world_rank
                other = (r + 1) % ctx.nranks
                for i in range(40):
                    db.put(f"p-{r}-{i:02d}".encode(), b"g" * 24)
                db.barrier(SSTABLE)
                db.tick()  # drain this rank's pending publishes
                # publishes are fire-and-forget and a mid-load rotation
                # may push a dirty intermediate view first: wait
                # (wall-clock) for the handler to install the final,
                # memory-clean one.  Check *before* the next barrier —
                # its fence conservatively re-marks every view dirty
                # for read-your-writes.
                view = None
                for _ in range(500):
                    view = db._peer_views.get(other)
                    if view is not None and view.mem_clean:
                        break
                    time.sleep(0.01)
                assert view is not None
                assert view.mem_clean and view.quarantine_free
                assert view.ssids  # the pushed bundles cover real tables
                other_dir = f"{db.dbdir}/rank{other}"
                assert all(
                    (other_dir, s) in db._peer_reader_lru
                    for s in view.ssids
                )
                assert db.stats.index_pulls == 0  # pushed, never pulled
                assert db.stats.index_publishes > 0
                db.barrier()
                # group members answer gets from their own replica copy;
                # the pushed view stays warm for post-failover reads
                for i in range(40):
                    key = f"p-{other}-{i:02d}".encode()
                    assert db.get(key) == b"g" * 24
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_publish_follows_the_ring_past_a_dead_successor(self):
        """Three ranks, ``replicas=2``: with rank 1 dead in rank 0's
        view, rank 0's group is ``[0, 2]`` and its eager publish goes to
        rank 2 — the ring-shifted member — not to nobody."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixr", _ix_options(
                    replicas=2, write_quorum=1, remote_timeout=0.2,
                ))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"r-{r}-{i:02d}".encode(), b"g" * 24)
                db.barrier(SSTABLE)
                db.tick()  # drain the publishes the flush queued
                db.barrier()
                if r == 0:
                    db.membership.declare_dead(1)  # this view only
                    (home,) = _keys_of(db, 0, n=1)
                    assert db._replica_group(home) == [0, 2]
                    with db._lock:
                        db._index_pub_due.extend(db.ssids)
                    sent, send = [], db.srv_comm.send
                    # captured, not delivered: the other views stay put
                    db.srv_comm.send = (
                        lambda payload, dest, tag=0:
                        sent.append((type(payload), dest)))
                    try:
                        db._drain_index_publishes()
                    finally:
                        db.srv_comm.send = send
                    assert sent == [(msg.IndexPublishMsg, 2)]
                db.barrier()
                db.close()

        spmd_run(3, app)


    def test_a_twice_raced_snapshot_publishes_nothing(self, monkeypatch):
        """A publish whose snapshot raced the owner's own compaction
        twice sends nothing: an empty view would purge every reader the
        receiver holds of this owner, and a lost publish only costs it
        a lazy pull."""
        raced: set = set()  # ranks whose sidecar reads fail
        read = PosixStore.read

        def vanishing_read(store, relpath, *args, **kw):
            if relpath.endswith((".ssi", ".bf")) and any(
                    f"/rank{r}/" in relpath for r in raced):
                raise StorageError("planted: retired under the snapshot")
            return read(store, relpath, *args, **kw)

        monkeypatch.setattr(PosixStore, "read", vanishing_read)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("ixq", _ix_options(
                    replicas=2, write_quorum=1, remote_timeout=0.2,
                ))
                r = ctx.world_rank
                for i in range(40):
                    db.put(f"q-{r}-{i:02d}".encode(), b"g" * 24)
                db.barrier(SSTABLE)
                db.tick()
                db.barrier()
                sent = db.stats.index_publishes
                assert sent > 0
                with db._lock:
                    db._index_pub_due.extend(db.ssids)
                raced.add(r)
                assert db._index_snapshot(
                    lambda ssid: True, True, db.clock) is None
                db._drain_index_publishes()
                raced.discard(r)
                assert db.stats.index_publishes == sent
                assert not db._index_pub_due
                db.barrier()
                db.close()

        spmd_run(2, app)


class TestRankDeath:
    def test_dead_owner_bundles_are_dropped_and_rejected(self):
        """After a rank death the epoch bumps, ``_drop_peer_cache``
        purges the dead owner's views/bundles/blocks, and the one-sided
        path refuses dead owners — gets fail over to the replica.

        Three ranks, replicas=2: rank 2 is outside rank 0's replica
        group, so its warm gets run one-sided against rank 0 — the rank
        the fault plan kills."""
        sync_all = threading.Barrier(3)
        survivors = threading.Barrier(2)
        shared: dict = {}

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("ixk", _ix_options(
                replicas=2, write_quorum=1, remote_timeout=0.2,
            ))
            r = ctx.world_rank
            own = _keys_of(db, r, n=30, prefix="x")
            for key in own:
                db.put(key, b"s" * 24)
            # fence-then-flush settles the replica fan-out before the
            # flush, so every owner is memory-clean afterwards (nobody
            # is dead yet, so the collective barrier is safe)
            db.barrier(SSTABLE)
            if r == 2:
                warm = _keys_of(db, 0, n=3, prefix="x")
                shared["warm"] = warm
                for key in warm:
                    # the metadata pull rides the wall-clock
                    # remote_timeout; under a loaded machine it can
                    # time out and fall back to the handler, so retry
                    # until the get lands one-sided (the subject here
                    # is the death-path purge, not pull latency)
                    for _ in range(100):
                        res = db.get_ex(key)
                        if res.tier == "index_sstable":
                            break
                        time.sleep(0.05)
                    assert res.value == b"s" * 24
                    assert res.tier == "index_sstable"
                assert 0 in db._peer_views
            sync_all.wait()  # rank 2's view is warm; rank 0 may die now
            if r == 0:
                for _ in range(100):  # burn ops into the kill schedule
                    db.put(own[0], b"t" * 8)
                raise AssertionError("victim survived its kill schedule")
            mv = db.membership
            for _ in range(30000):
                db.tick()
                if mv.is_dead(0) and not mv.pending_rereplication:
                    break
            assert mv.is_dead(0)
            if r == 2:
                # the epoch-bump drop point fired: nothing cached from
                # the dead epoch survives, and the path refuses rank 0
                assert 0 not in db._peer_views
                dead_dir = f"{db.dbdir}/rank0"
                assert not [k for k in db._peer_reader_lru.keys()
                            if k[0] == dead_dir]
                assert not db._index_direct_eligible(0)
                hits0 = db.stats.index_repl_hits
                for key in shared["warm"]:
                    assert db.get_or_none(key) is not None  # failover
                assert db.stats.index_repl_hits == hits0
            survivors.wait()
            db.srv_comm.send(msg.StopMsg(), db.rank, tag=0)
            db._handler_thread.join(10)
            db._closed = True
            return "survivor-ok"

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(0, nth=40)
        res = spmd_run(3, app, faults=faults, timeout=240)
        assert res[0] is None  # the kill fired
        assert res[1] == "survivor-ok" and res[2] == "survivor-ok"


    def test_install_after_death_declaration_leaves_no_view(self):
        """The race behind the flaky purge test, made deterministic: an
        eager publish whose staleness check passed *before* the main
        thread declared its sender dead reaches _install_index_view
        *after* the purge.  The install must not resurrect the view."""

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("ixlate", _ix_options(
                replicas=2, write_quorum=1, remote_timeout=0.2,
            ))
            if ctx.world_rank == 1:
                dead_dir = f"{db.dbdir}/rank0"
                db._declare_dead(0)
                installed = db._install_index_view(
                    0, dead_dir, (), {}, True, True,
                )
                assert installed is False
                assert 0 not in db._peer_views
                assert not [k for k in db._peer_reader_lru.keys()
                            if k[0] == dead_dir]
            # no collective close: rank 1 now holds rank 0 dead
            db.srv_comm.send(msg.StopMsg(), db.rank, tag=0)
            db._handler_thread.join(10)
            db._closed = True

        spmd_run(2, app, timeout=60)


class TestRaceDetector:
    def test_one_sided_path_is_race_clean(self):
        """Pulls (main thread) racing eager publishes (handler thread)
        run clean under the dynamic detector with the index-cache lock
        in the canonical order."""
        from repro.analysis import runtime

        saved = runtime.get_detector()
        det = runtime.enable(reset=True)
        try:
            def app(ctx):
                with Papyrus(ctx) as env:
                    db = env.open("ixrace", _ix_options(
                        replicas=2, write_quorum=1, remote_timeout=0.2,
                    ))
                    r = ctx.world_rank
                    other = (r + 1) % ctx.nranks
                    for gen in range(3):
                        for i in range(30):
                            db.put(f"z-{r}-{i:02d}".encode(), b"y" * 16)
                        db.barrier(SSTABLE)
                        db.tick()
                        for i in range(30):
                            key = f"z-{other}-{i:02d}".encode()
                            if db._acting_owner(key) == other:
                                assert db.get(key) == b"y" * 16
                        db.barrier()
                    db.close()

            spmd_run(2, app)
            report = det.report()
            assert report["findings"] == [], report["findings"]
        finally:
            runtime.disable()
            runtime.restore(saved)
