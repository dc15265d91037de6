"""Bulk-operation pipeline: WriteBatch / get_bulk semantics.

Covers the batched API's contract against the per-key loop it replaces:
empty batches, duplicate keys (last-write-wins), mixed local/remote
owners, deletes interleaved with puts, both consistency modes,
protection rejection, per-owner message coalescing, and randomized
cross-rank equivalence.
"""

from __future__ import annotations

import random

import pytest

from repro import MEMTABLE, Options, Papyrus, SSTABLE
from repro.config import RDONLY, RELAXED, SEQUENTIAL
from repro.errors import InvalidKeyError, KeyNotFoundError, ProtectionError
from repro.mpi.launcher import spmd_run
from tests.conftest import small_options


def run1(fn, **kw):
    return spmd_run(1, fn, **kw)[0]


def _put_many(db, pairs) -> int:
    """One WriteBatch carrying ``pairs``; returns distinct keys written."""
    with db.batch() as b:
        for key, value in pairs:
            b.put(key, value)
    return b.written


def _delete_many(db, keys) -> int:
    """One WriteBatch deleting ``keys``; returns distinct keys written."""
    with db.batch() as b:
        for key in keys:
            b.delete(key)
    return b.written


def _kv(tag: str, i: int, vlen: int = 24) -> tuple:
    return f"{tag}{i:04d}".encode(), f"v{tag}{i}".encode().ljust(vlen, b".")


class TestEmptyAndValidation:
    def test_empty_batches_are_noops(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                assert _put_many(db, []) == 0
                assert _delete_many(db, []) == 0
                assert db.get_bulk([]) == []
                assert db.stats.puts == 0
                assert db.stats.gets == 0
                assert db.stats.bulk_batches == 0
                db.close()

        run1(app)

    def test_invalid_key_rejects_whole_batch(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                with pytest.raises(InvalidKeyError):
                    _put_many(db, [(b"ok", b"v"), (b"", b"v")])
                # validation happens before any insert lands
                assert db.get_or_none(b"ok") is None
                with pytest.raises(InvalidKeyError):
                    db.get_bulk([b"ok", "notbytes"])
                db.close()

        run1(app)

    def test_rdonly_rejects_bulk_writes(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                db.put(b"k", b"v")
                db.protect(RDONLY)
                with pytest.raises(ProtectionError):
                    _put_many(db, [(b"a", b"1")])
                with pytest.raises(ProtectionError):
                    _delete_many(db, [b"k"])
                assert db.get_bulk([b"k"]) == [b"v"]  # reads still fine
                db.close()

        run1(app)


class TestBatchSemantics:
    def test_duplicate_keys_last_write_wins(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                assert _put_many(
                    db, [(b"k", b"first"), (b"x", b"xv"), (b"k", b"last")]
                ) == 2
                assert db.get(b"k") == b"last"
                assert db.get(b"x") == b"xv"
                db.close()

        run1(app)

    def test_get_bulk_caller_order_with_duplicates(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                _put_many(db, [(b"a", b"1"), (b"b", b"2")])
                got = db.get_bulk([b"b", b"missing", b"a", b"b"])
                assert got == [b"2", None, b"1", b"2"]
                db.close()

        run1(app)

    def test_deletes_interleaved_with_puts(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                _put_many(db, [(b"keep", b"old"), (b"gone", b"old")])
                with db.batch() as b:
                    b.put(b"gone", b"temp")
                    b.delete(b"gone")       # delete after put: key dies
                    b.delete(b"keep")
                    b[b"keep"] = b"revived"  # put after delete: key lives
                    b.delete(b"never-there")
                assert db.get_or_none(b"gone") is None
                assert db.get(b"keep") == b"revived"
                db.close()

        run1(app)

    def test_bulk_matches_per_key_loop_single_rank(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                a = env.open("perkey", small_options())
                b = env.open("bulk", small_options())
                pairs = [_kv("k", i) for i in range(150)]
                for k, v in pairs:
                    a.put(k, v)
                _put_many(b, pairs)
                dels = [k for k, _ in pairs[::7]]
                for k in dels:
                    a.delete(k)
                _delete_many(b, dels)
                keys = [k for k, _ in pairs]
                expect = [a.get_or_none(k) for k in keys]
                assert b.get_bulk(keys) == expect
                a.close()
                b.close()

        run1(app)


class TestMixedOwners:
    def test_mixed_local_remote_partition(self):
        """One batch spanning every rank's shard lands correctly."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                me = ctx.world_rank
                pairs = [_kv(f"r{me}-", i) for i in range(120)]
                owners = {db.owner_of(k) for k, _ in pairs}
                assert len(owners) > 1  # genuinely mixed
                _put_many(db, pairs)
                # my own shard's share is visible immediately
                for k, v in pairs:
                    if db.owner_of(k) == me:
                        assert db.get(k) == v
                db.barrier()
                # after the barrier every rank reads everything
                for rr in range(ctx.nranks):
                    keys = [_kv(f"r{rr}-", i)[0] for i in range(0, 120, 13)]
                    vals = [_kv(f"r{rr}-", i)[1] for i in range(0, 120, 13)]
                    assert db.get_bulk(keys) == vals
                db.close()

        spmd_run(4, app)

    def test_sequential_one_round_per_owner(self):
        """Sequential mode: per-owner batch messages, not per-key."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(
                    "d", small_options(consistency=SEQUENTIAL,
                                       memtable_capacity=1 << 20)
                )
                if ctx.world_rank == 0:
                    pairs = [_kv("s", i) for i in range(100)]
                    remote_owners = {
                        db.owner_of(k) for k, _ in pairs
                    } - {0}
                    _put_many(db, pairs)
                    # one sync PairsMsg per distinct remote owner
                    assert db.stats.bulk_owner_msgs == len(remote_owners)
                    # and the data is already visible everywhere
                    assert db.get_bulk([k for k, _ in pairs]) == [
                        v for _, v in pairs
                    ]
                db.barrier()
                db.close()

        spmd_run(4, app)

    def test_relaxed_migration_one_chunk_per_owner(self):
        """Relaxed mode: a bulk batch migrates as one chunk per owner."""

        def app(ctx):
            with Papyrus(ctx) as env:
                # remote MemTable large enough to hold the whole batch:
                # the fence then migrates it in a single sweep
                db = env.open(
                    "d", small_options(consistency=RELAXED,
                                       remote_memtable_capacity=1 << 20)
                )
                if ctx.world_rank == 0:
                    pairs = [_kv("m", i) for i in range(100)]
                    remote_owners = {
                        db.owner_of(k) for k, _ in pairs
                    } - {0}
                    _put_many(db, pairs)
                    assert db.stats.migrations == 0  # staged, not sent
                    db.fence()
                    assert db.stats.migrations == len(remote_owners)
                db.barrier()
                db.close()

        spmd_run(4, app)

    def test_get_bulk_one_get_msg_per_owner(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                me = ctx.world_rank
                pairs = [_kv(f"g{me}-", i) for i in range(80)]
                _put_many(db, pairs)
                db.barrier()
                if me == 0:
                    keys = [_kv("g2-", i)[0] for i in range(80)]
                    remote_owners = {db.owner_of(k) for k in keys} - {0}
                    before = db.stats.bulk_owner_msgs
                    db.get_bulk(keys)
                    assert (
                        db.stats.bulk_owner_msgs - before
                        == len(remote_owners)
                    )
                db.barrier()
                db.close()

        spmd_run(4, app)

    def test_get_bulk_reads_shared_sstables(self):
        """NOT_IN_MEMORY get_bulk keys resolve from shared NVM (§2.7)."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                me = ctx.world_rank
                pairs = [_kv(f"s{me}-", i, vlen=64) for i in range(60)]
                _put_many(db, pairs)
                db.barrier(SSTABLE)  # everything flushed out of memory
                other = (me + 1) % ctx.nranks
                keys = [_kv(f"s{other}-", i, vlen=64)[0]
                        for i in range(60)]
                vals = [_kv(f"s{other}-", i, vlen=64)[1]
                        for i in range(60)]
                assert db.get_bulk(keys) == vals
                db.barrier()
                tiers = set(db.stats.get_tiers)
                db.close()
                return tiers

        res = spmd_run(4, app)
        assert any("shared_sstable" in t for t in res)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("mode", [RELAXED, SEQUENTIAL],
                             ids=["relaxed", "sequential"])
    def test_bulk_equals_per_key_cross_rank(self, mode):
        """Acceptance: bulk and per-key paths agree on a randomized
        cross-rank workload under both consistency modes."""

        def app(ctx):
            with Papyrus(ctx) as env:
                per = env.open("perkey", small_options(consistency=mode))
                blk = env.open("bulk", small_options(consistency=mode))
                rng = random.Random(1234 + ctx.world_rank)
                ops = []
                for i in range(120):
                    key = f"k{rng.randrange(60):03d}".encode()
                    if rng.random() < 0.25:
                        ops.append((key, b"", True))
                    else:
                        val = f"r{ctx.world_rank}i{i}".encode()
                        ops.append((key, val, False))
                for k, v, tomb in ops:
                    if tomb:
                        per.delete(k)
                    else:
                        per.put(k, v)
                with blk.batch() as b:
                    for k, v, tomb in ops:
                        if tomb:
                            b.delete(k)
                        else:
                            b.put(k, v)
                per.barrier()
                blk.barrier()
                keys = [f"k{i:03d}".encode() for i in range(60)]
                got_per = [per.get_or_none(k) for k in keys]
                got_blk = blk.get_bulk(keys)
                # each database agrees with itself across ranks...
                per_all = ctx.comm.allgather(got_per)
                blk_all = ctx.comm.allgather(got_blk)
                assert all(x == per_all[0] for x in per_all)
                assert all(x == blk_all[0] for x in blk_all)
                per.close()
                blk.close()

        spmd_run(4, app)

    @pytest.mark.parametrize("layout", ["memory", "shared_sstable"])
    def test_bulk_equals_per_key_same_op_stream(self, layout):
        """With a single writer the point and batch calls agree
        key-for-key — and, being one engine, tier-for-tier: the same
        data read by a ``get_ex`` loop and by one ``get_bulk`` resolves
        through the same tiers, whether it sits in the owners'
        MemTables or in same-group SSTables (§2.7 shared read)."""
        level = MEMTABLE if layout == "memory" else SSTABLE

        def app(ctx):
            with Papyrus(ctx) as env:
                per = env.open("perkey", small_options())
                blk = env.open("bulk", small_options())
                rng = random.Random(99)
                if ctx.world_rank == 0:
                    ops = []
                    for i in range(200):
                        key = f"q{rng.randrange(80):03d}".encode()
                        if rng.random() < 0.3:
                            ops.append((key, None))
                        else:
                            ops.append((key, f"v{i}".encode()))
                    for k, v in ops:
                        if v is None:
                            per.delete(k)
                        else:
                            per.put(k, v)
                    with blk.batch() as b:
                        for k, v in ops:
                            if v is None:
                                b.delete(k)
                            else:
                                b[k] = v
                    # every write either opens a commit window or rides
                    # one — per op for point calls, per distinct key
                    # (last-write-wins) for the batch
                    for db, writes in ((per, len(ops)),
                                       (blk, len({k for k, _ in ops}))):
                        st = db.stats
                        assert st.puts == writes
                        assert (st.group_commits
                                + st.group_commit_coalesced) == writes
                per.barrier(level)
                blk.barrier(level)
                keys = [f"q{i:03d}".encode() for i in range(80)]
                mine = [k for k in keys
                        if per.owner_of(k) == ctx.world_rank]
                theirs = [k for k in keys if k not in mine]
                # remote keys first, own keys after a barrier: an
                # owner's own get fills its local cache, which its
                # handler would then serve to a racing remote reader
                for phase in (theirs, mine):
                    got_per = []
                    for k in phase:
                        try:
                            got_per.append(per.get_ex(k).value)
                        except KeyNotFoundError:
                            got_per.append(None)
                    assert blk.get_bulk(phase) == got_per
                    ctx.comm.barrier()
                assert blk.stats.get_tiers == per.stats.get_tiers
                assert blk.stats.gets == per.stats.gets == len(keys)
                tiers = dict(per.stats.get_tiers)
                per.close()
                blk.close()
                return tiers

        res = spmd_run(4, app)
        if layout != "memory":
            assert all(layout in tiers for tiers in res)


class TestBulkVeneer:
    def test_c_style_bulk_functions(self):
        from repro.core import api
        from repro.errors import ErrorCode

        def app(ctx):
            assert api.papyruskv_init(ctx=ctx) == 0
            code, db = api.papyruskv_open("d", opt=small_options())
            assert code == 0
            assert api.papyruskv_put_bulk(
                db, [(b"a", b"1"), (b"b", b"2")]
            ) == 0
            code, values = api.papyruskv_get_bulk(db, [b"a", b"nope", b"b"])
            assert code == 0
            assert values == [b"1", None, b"2"]
            assert api.papyruskv_delete_bulk(db, [b"a"]) == 0
            code, values = api.papyruskv_get_bulk(db, [b"a"])
            assert code == 0 and values == [None]
            # protection errors surface as codes, not exceptions
            db.protect(RDONLY)
            assert api.papyruskv_put_bulk(db, [(b"x", b"y")]) == int(
                ErrorCode.PROTECTED
            )
            assert api.papyruskv_close(db) == 0
            assert api.papyruskv_finalize() == 0

        run1(app)
