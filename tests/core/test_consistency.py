"""Consistency modes: relaxed staging/migration, sequential sync puts,
fence/barrier semantics, signals, dynamic mode switching."""

from __future__ import annotations

import pytest

from repro import (
    MEMTABLE,
    Options,
    Papyrus,
    RELAXED,
    SEQUENTIAL,
    SSTABLE,
)
from repro.errors import InvalidModeError
from repro.mpi.launcher import spmd_run
from tests.conftest import small_options


class TestRelaxed:
    def test_remote_put_stages_locally(self):
        """A relaxed remote put lands in the remote MemTable first."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=RELAXED))
                if ctx.world_rank == 0:
                    # find a key owned by rank 1
                    key = next(
                        f"k{i}".encode() for i in range(1000)
                        if db.owner_of(f"k{i}".encode()) == 1
                    )
                    db.put(key, b"v")
                    res = db.get_ex(key)
                    assert res.tier in ("remote_mt", "inflight")
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_read_your_own_writes(self):
        """Even before migration, the writer sees its own remote puts."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=RELAXED))
                for i in range(200):
                    k = f"k-{ctx.world_rank}-{i}".encode()
                    db.put(k, b"mine")
                    assert db.get(k) == b"mine"
                db.barrier()
                db.close()

        spmd_run(3, app)

    def test_migration_batches(self):
        """Filling the remote MemTable triggers batched migration."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(
                    "d", small_options(remote_memtable_capacity=256)
                )
                if ctx.world_rank == 0:
                    for i in range(300):
                        db.put(f"k{i:04d}".encode(), b"v" * 16)
                    assert db.stats.migrations > 0
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_barrier_makes_writes_globally_visible(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=RELAXED))
                db.put(f"from-{ctx.world_rank}".encode(), b"data")
                db.barrier(MEMTABLE)
                for rr in range(ctx.nranks):
                    assert db.get(f"from-{rr}".encode()) == b"data"
                db.close()

        spmd_run(4, app)

    def test_fence_flushes_remote_memtable(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                if ctx.world_rank == 0:
                    for i in range(50):
                        db.put(f"k{i}".encode(), b"v")
                    db.fence()
                    assert len(db.remote_mt) == 0
                    assert not db._unacked
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_barrier_sstable_level_flushes_everything(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                for i in range(100):
                    db.put(f"k-{ctx.world_rank}-{i}".encode(), b"v" * 16)
                db.barrier(SSTABLE)
                assert len(db.local_mt) == 0
                assert not db.flushing
                db.close()

        spmd_run(3, app)


class TestSequential:
    def test_remote_put_immediately_visible(self):
        """In sequential mode a put completes at the owner before returning,
        so a signal-ordered reader must observe it."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=SEQUENTIAL))
                if ctx.world_rank == 0:
                    for i in range(40):
                        db.put(f"k{i}".encode(), b"seq")
                    env.signal_notify(1, [1])
                elif ctx.world_rank == 1:
                    env.signal_wait(1, [0])
                    for i in range(40):
                        assert db.get(f"k{i}".encode()) == b"seq"
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_sequential_does_not_stage(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=SEQUENTIAL))
                for i in range(100):
                    db.put(f"k-{ctx.world_rank}-{i}".encode(), b"v")
                assert len(db.remote_mt) == 0
                assert db.stats.migrations == 0
                db.barrier()
                db.close()

        spmd_run(3, app)

    def test_sequential_delete(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=SEQUENTIAL))
                if ctx.world_rank == 0:
                    db.put(b"k", b"v")
                    db.delete(b"k")
                    env.signal_notify(2, [1])
                else:
                    env.signal_wait(2, [0])
                    assert db.get_or_none(b"k") is None
                db.barrier()
                db.close()

        spmd_run(2, app)


class TestModeSwitching:
    def test_dynamic_switch(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options(consistency=RELAXED))
                db.put(f"r-{ctx.world_rank}".encode(), b"relaxed")
                db.set_consistency(SEQUENTIAL)
                assert db.consistency == SEQUENTIAL
                # the switch fenced: earlier relaxed writes are visible
                for rr in range(ctx.nranks):
                    assert db.get(f"r-{rr}".encode()) == b"relaxed"
                db.put(f"s-{ctx.world_rank}".encode(), b"seq")
                db.set_consistency(RELAXED)
                assert db.consistency == RELAXED
                db.barrier()
                db.close()

        spmd_run(3, app)

    def test_invalid_mode_rejected(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", small_options())
                with pytest.raises(InvalidModeError):
                    db.set_consistency(99)
                db.close()

        spmd_run(1, app)

    def test_mode_in_options_validated(self):
        with pytest.raises(InvalidModeError):
            Options(consistency=7)


class TestSignals:
    def test_signal_pairwise(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                if ctx.world_rank == 0:
                    env.signal_notify(5, [1, 2])
                else:
                    env.signal_wait(5, [0])
                ctx.comm.barrier()

        spmd_run(3, app)

    def test_signal_all_to_one(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                if ctx.world_rank == 0:
                    env.signal_wait(9, [1, 2, 3])
                    return "gathered"
                env.signal_notify(9, [0])

        assert spmd_run(4, app)[0] == "gathered"

    def test_distinct_signums_do_not_cross(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                if ctx.world_rank == 0:
                    env.signal_notify(1, [1])
                    env.signal_notify(2, [1])
                else:
                    env.signal_wait(2, [0])  # out of order by signum
                    env.signal_wait(1, [0])
                ctx.comm.barrier()

        spmd_run(2, app)
