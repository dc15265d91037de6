"""Edge-path tests: fallback protocols, empty databases, dispatcher sends."""

from __future__ import annotations

import pytest

from repro import Papyrus, SSTABLE, spmd_run
from repro.core import messages as msg
from tests.conftest import small_options


class TestForceDataFallback:
    def test_forced_get_returns_value_within_group(self):
        """The force_data escape hatch must ship bytes even when the
        requester shares the owner's storage group."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("force", small_options())
                key = next(
                    f"k{i}".encode() for i in range(300)
                    if db.owner_of(f"k{i}".encode()) == 1
                )
                if ctx.world_rank == 1:
                    db.put(key, b"direct-value" * 8)
                db.barrier(SSTABLE)
                if ctx.world_rank == 0:
                    reply = db._request_get({1: [key]}, force=True)[1]
                    assert reply.results == [
                        (msg.FOUND, b"direct-value" * 8, False)
                    ]
                db.barrier()
                db.close()

        spmd_run(2, app)

    def test_not_in_memory_reply_carries_metadata(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("meta", small_options())
                key = next(
                    f"k{i}".encode() for i in range(300)
                    if db.owner_of(f"k{i}".encode()) == 1
                )
                if ctx.world_rank == 1:
                    db.put(key, b"x" * 64)
                db.barrier(SSTABLE)
                if ctx.world_rank == 0:
                    reply = db._request_get({1: [key]}, force=False)[1]
                    assert reply.results == [(msg.NOT_IN_MEMORY, None, False)]
                    assert reply.owner_dir == "db_meta/rank1"
                    assert reply.newest_ssid >= 1
                db.barrier()
                db.close()

        spmd_run(2, app)


class TestEmptyDatabase:
    def test_checkpoint_empty_db(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("empty", small_options())
                ev = db.checkpoint("empty-snap")
                ev.wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)
                db2, rev = env.restart("empty-snap", "empty",
                                       small_options())
                rev.wait(ctx.clock)
                db2.coll_comm.barrier()
                assert db2.get_or_none(b"anything") is None
                assert db2.scan_local() == []
                db2.close()

        spmd_run(2, app, timeout=120)

    def test_barrier_on_empty_db(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("empty", small_options())
                db.barrier(SSTABLE)  # nothing to flush: must not wedge
                db.fence()
                assert db.ssids == []
                db.close()

        spmd_run(3, app)

    def test_scan_empty_ranges(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("empty", small_options())
                db.put(b"m", b"v")
                db.barrier()
                assert db.scan_collect(b"x", b"z") == []
                assert db.scan_collect(end=b"a") == []
                db.close()

        spmd_run(2, app)


class TestDispatcherSendAt:
    def test_send_at_arrival_reflects_explicit_time(self):
        def app(ctx):
            if ctx.world_rank == 0:
                arrival = ctx.comm.send_at(b"x" * 100, 1, tag=5,
                                           t_send=2.0)
                assert arrival > 2.0
                # the sender's own clock is untouched
                assert ctx.clock.now < 2.0
            else:
                status = {}
                ctx.comm.recv(source=0, tag=5, status=status)
                assert ctx.clock.now >= 2.0  # waited for the arrival

        spmd_run(2, app)


class TestLoadBalance:
    def test_builtin_hash_balances_shards(self):
        """§2.4 load balancing: the built-in hash spreads uniform keys
        evenly enough that no shard exceeds 2x the mean."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("bal", small_options())
                for i in range(250):
                    db.put(f"uniform-key-{i:05d}".encode(), b"v")
                db.barrier(SSTABLE)
                count = db.count_local()
                counts = ctx.comm.allgather(count)
                db.close()
                return counts

        counts = spmd_run(4, app, timeout=120)[0]
        total = sum(counts)
        assert total == 250
        mean = total / len(counts)
        assert max(counts) < 2 * mean

    def test_custom_hash_redirects_ownership(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(
                    "custom",
                    small_options(hash_fn=lambda k: k[0]),
                )
                # first byte dictates the owner
                assert db.owner_of(b"\x00rest") == 0
                assert db.owner_of(b"\x03rest") == 3 % ctx.nranks
                db.put(b"\x01abc", b"v")
                db.barrier()
                assert db.get(b"\x01abc") == b"v"
                db.close()

        spmd_run(2, app)
