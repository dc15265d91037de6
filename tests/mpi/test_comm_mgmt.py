"""Communicator dup/split and launcher behaviour."""

from __future__ import annotations

import pytest

from repro.mpi.launcher import RankFailure, current_rank_context, spmd_run
from repro.simtime.profiles import CORI, SUMMITDEV


class TestDup:
    def test_dup_isolates_traffic(self):
        """A message on the dup is invisible to the parent comm."""

        def app(ctx):
            dup = ctx.comm.dup()
            if ctx.world_rank == 0:
                dup.send("private", 1, tag=3)
                ctx.comm.send("public", 1, tag=3)
            else:
                public = ctx.comm.recv(source=0, tag=3)
                private = dup.recv(source=0, tag=3)
                return (public, private)

        assert spmd_run(2, app)[1] == ("public", "private")

    def test_dup_same_topology(self):
        def app(ctx):
            dup = ctx.comm.dup()
            return (dup.rank, dup.size)

        assert spmd_run(3, app) == [(0, 3), (1, 3), (2, 3)]

    def test_multiple_dups(self):
        def app(ctx):
            comms = [ctx.comm.dup() for _ in range(4)]
            for i, c in enumerate(comms):
                c.barrier()
            return True

        assert all(spmd_run(2, app))


class TestLauncher:
    def test_results_in_rank_order(self):
        assert spmd_run(5, lambda ctx: ctx.world_rank) == [0, 1, 2, 3, 4]

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            spmd_run(0, lambda ctx: None)

    def test_context_fields(self):
        def app(ctx):
            assert current_rank_context() is ctx
            return (
                ctx.world_rank, ctx.nranks, ctx.system.name,
                ctx.node, ctx.machine is not None,
            )

        res = spmd_run(2, app, system=CORI)
        assert res[0] == (0, 2, "cori", 0, True)

    def test_rank_failure_propagates(self):
        def app(ctx):
            if ctx.world_rank == 1:
                raise RuntimeError("rank 1 exploded")
            ctx.comm.barrier()  # would hang without abort

        with pytest.raises(RankFailure) as ei:
            spmd_run(3, app, timeout=30)
        assert any(r == 1 for r, _ in ei.value.failures)

    def test_failure_during_recv_aborts_peers(self):
        def app(ctx):
            if ctx.world_rank == 0:
                raise ValueError("boom")
            ctx.comm.recv(source=0)  # never satisfied

        with pytest.raises(RankFailure):
            spmd_run(2, app, timeout=30)

    def test_clock_bound_per_rank(self):
        def app(ctx):
            from repro.mpi.launcher import current_rank_context

            assert current_rank_context().clock is ctx.clock
            ctx.clock.advance(ctx.world_rank + 1.0)
            return ctx.clock.now

        assert spmd_run(3, app) == [1.0, 2.0, 3.0]

    def test_machine_shared_across_ranks(self):
        def app(ctx):
            return id(ctx.machine)

        assert len(set(spmd_run(3, app))) == 1

    def test_node_assignment_follows_system(self):
        def app(ctx):
            return ctx.node

        res = spmd_run(40, app, system=SUMMITDEV)
        assert res[0] == 0 and res[19] == 0 and res[20] == 1 and res[39] == 1
