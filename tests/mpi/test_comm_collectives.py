"""Collective semantics of the simulated MPI."""

from __future__ import annotations

import pytest

from repro.mpi.launcher import spmd_run


def test_barrier_synchronizes_clocks():
    def app(ctx):
        # skew the clocks
        ctx.clock.advance(0.1 * ctx.world_rank)
        t = ctx.comm.barrier()
        return (t, ctx.clock.now)

    res = spmd_run(4, app)
    times = {round(t, 9) for t, _ in res}
    assert len(times) == 1  # all ranks observe the same barrier time
    t = res[0][0]
    assert t >= 0.3  # at least the max skew


def test_barrier_repeated():
    def app(ctx):
        return [ctx.comm.barrier() for _ in range(5)]

    res = spmd_run(3, app)
    for i in range(5):
        assert len({r[i] for r in res}) == 1
    assert res[0] == sorted(res[0])  # monotone


def test_bcast():
    def app(ctx):
        data = {"n": 42} if ctx.world_rank == 1 else None
        return ctx.comm.bcast(data, root=1)

    assert spmd_run(3, app) == [{"n": 42}] * 3


def test_bcast_none_payload():
    def app(ctx):
        return ctx.comm.bcast(None, root=0)

    assert spmd_run(2, app) == [None, None]


def test_gather():
    def app(ctx):
        out = ctx.comm.gather(ctx.world_rank * 10, root=2)
        return out

    res = spmd_run(4, app)
    assert res[2] == [0, 10, 20, 30]
    assert res[0] is None and res[1] is None and res[3] is None


def test_allgather():
    def app(ctx):
        return ctx.comm.allgather(chr(ord("a") + ctx.world_rank))

    assert spmd_run(3, app) == [["a", "b", "c"]] * 3


def test_collectives_cost_grows_with_size():
    def app(ctx):
        t0 = ctx.clock.now
        ctx.comm.bcast(b"x" * 10, root=0)
        small = ctx.clock.now - t0
        t0 = ctx.clock.now
        ctx.comm.bcast(b"x" * 10_000_000, root=0)
        large = ctx.clock.now - t0
        return small < large

    assert all(spmd_run(2, app))
