"""MDHIM baseline tests: distribution, synchrony, structural overheads."""

from __future__ import annotations

import pytest

from repro.baselines import MDHIM
from repro.mpi.launcher import spmd_run
from repro.simtime.profiles import SUMMITDEV


class TestBasics:
    def test_put_get_across_ranks(self):
        def app(ctx):
            with MDHIM(ctx, "t", memtable_capacity=1 << 12) as kv:
                r = ctx.world_rank
                for i in range(60):
                    kv.put(f"k-{r}-{i:02d}".encode(), f"v{r}{i}".encode())
                kv.barrier()
                for rr in range(ctx.nranks):
                    for i in range(0, 60, 7):
                        assert (
                            kv.get(f"k-{rr}-{i:02d}".encode())
                            == f"v{rr}{i}".encode()
                        )

        spmd_run(3, app)

    def test_get_missing(self):
        def app(ctx):
            with MDHIM(ctx, "t") as kv:
                assert kv.get(b"never-stored") is None

        spmd_run(2, app)

    def test_puts_synchronous(self):
        """MDHIM has no relaxed mode: a put is visible immediately."""

        def app(ctx):
            with MDHIM(ctx, "t") as kv:
                if ctx.world_rank == 0:
                    for i in range(30):
                        kv.put(f"k{i}".encode(), b"v")
                    ctx.comm.send("done", 1, tag=1)
                elif ctx.world_rank == 1:
                    ctx.comm.recv(source=0, tag=1)
                    for i in range(30):
                        assert kv.get(f"k{i}".encode()) == b"v"
                kv.barrier()

        spmd_run(2, app)

    def test_closed_rejects_ops(self):
        def app(ctx):
            kv = MDHIM(ctx, "t")
            kv.close()
            with pytest.raises(RuntimeError):
                kv.put(b"k", b"v")

        spmd_run(1, app)

    def test_flush_to_local_store_files(self):
        def app(ctx):
            with MDHIM(ctx, "t", memtable_capacity=256) as kv:
                for i in range(100):
                    kv.put(f"k-{ctx.world_rank}-{i:03d}".encode(), b"v" * 32)
                kv.barrier()
                return kv.local.file_count()

        counts = spmd_run(2, app)
        assert sum(counts) > 0


class TestStructuralOverheads:
    def test_no_sstable_sharing(self):
        """Same-node gets still transfer values (no storage-group path):
        the per-rank MiniKV directories are independent."""

        def app(ctx):
            with MDHIM(ctx, "t", memtable_capacity=256) as kv:
                r = ctx.world_rank
                for i in range(50):
                    kv.put(f"k-{r}-{i:02d}".encode(), b"v" * 32)
                kv.barrier()
                # each rank's data lives only under its own directory
                mine = kv.local.store.listdir(f"mdhim_t/rank{r}")
                other = kv.local.store.listdir(f"mdhim_t/rank{(r+1) % 2}")
                return (len(mine), len(other))

        res = spmd_run(2, app, system=SUMMITDEV)
        for mine, other in res:
            assert mine > 0

    def test_double_copy_costs_more_than_single(self):
        """The layered hand-off must charge more CPU time per byte than a
        single-copy design would: put cost grows superlinearly vs. the
        raw MiniKV put."""

        def app(ctx):
            if ctx.world_rank != 0:
                with MDHIM(ctx, "t") as kv:
                    kv.barrier()
                return None
            with MDHIM(ctx, "t") as kv:
                key = next(
                    f"k{i}".encode() for i in range(100)
                    if kv._owner(f"k{i}".encode()) == 0
                )
                value = b"x" * 100_000
                t0 = ctx.clock.now
                kv.put(key, value)
                layered = ctx.clock.now - t0
                t0 = ctx.clock.now
                end = kv.local.put(key, value, ctx.clock.now)
                ctx.clock.advance_to(end)
                raw = ctx.clock.now - t0
                kv.barrier()
                return (layered, raw)

        layered, raw = spmd_run(2, app)[0]
        assert layered > raw  # the marshal copy is on top of the store's
