"""Point-to-point semantics of the simulated MPI."""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.faults import RankKilledError
from repro.mpi import comm as comm_mod
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, AbortedError
from repro.mpi.launcher import RankContext, bind_context, spmd_run
from repro.simtime.clock import VirtualClock

#: CI's fault matrix re-runs this module under several seeds
FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


def test_send_recv_roundtrip():
    def app(ctx):
        if ctx.world_rank == 0:
            ctx.comm.send({"a": 7}, dest=1, tag=11)
            return None
        if ctx.world_rank == 1:
            return ctx.comm.recv(source=0, tag=11)

    assert spmd_run(2, app)[1] == {"a": 7}


def test_tag_matching():
    def app(ctx):
        if ctx.world_rank == 0:
            ctx.comm.send("first", 1, tag=1)
            ctx.comm.send("second", 1, tag=2)
        else:
            # receive out of send order by tag
            second = ctx.comm.recv(source=0, tag=2)
            first = ctx.comm.recv(source=0, tag=1)
            return (first, second)

    assert spmd_run(2, app)[1] == ("first", "second")


def test_non_overtaking_same_tag():
    def app(ctx):
        if ctx.world_rank == 0:
            for i in range(20):
                ctx.comm.send(i, 1, tag=0)
        else:
            return [ctx.comm.recv(source=0, tag=0) for _ in range(20)]

    assert spmd_run(2, app)[1] == list(range(20))


def test_any_source_any_tag():
    def app(ctx):
        if ctx.world_rank == 2:
            got = set()
            for _ in range(2):
                status = {}
                got.add(
                    (ctx.comm.recv(ANY_SOURCE, ANY_TAG, status=status),
                     status["source"])
                )
            return got
        ctx.comm.send(f"from{ctx.world_rank}", 2, tag=ctx.world_rank)

    assert spmd_run(3, app)[2] == {("from0", 0), ("from1", 1)}


def test_status_fields():
    def app(ctx):
        if ctx.world_rank == 0:
            ctx.comm.send(b"x" * 100, 1, tag=9)
        else:
            status = {}
            ctx.comm.recv(source=0, tag=9, status=status)
            return status

    status = spmd_run(2, app)[1]
    assert status["source"] == 0
    assert status["tag"] == 9
    assert status["nbytes"] == 100
    assert status["arrival"] > 0


def test_recv_advances_clock_past_arrival():
    def app(ctx):
        if ctx.world_rank == 0:
            ctx.comm.send(b"y" * 1000, 1)
            return ctx.clock.now
        t_before = ctx.clock.now
        ctx.comm.recv(source=0)
        return (t_before, ctx.clock.now)

    res = spmd_run(2, app)
    t_before, t_after = res[1]
    assert t_after > t_before
    assert t_after >= res[0]  # at least the sender's send time


def test_iprobe():
    def app(ctx):
        if ctx.world_rank == 0:
            assert not ctx.comm.iprobe(source=1)
            ctx.comm.send("ping", 1)
            ctx.comm.recv(source=1)  # wait for reply => message must be there
        else:
            ctx.comm.recv(source=0)
            ctx.comm.send("pong", 0)

    spmd_run(2, app)


def test_invalid_dest_raises():
    def app(ctx):
        with pytest.raises(ValueError):
            ctx.comm.send("x", dest=99)

    spmd_run(2, app)


def test_intra_node_cheaper_than_inter_node():
    """Same-node messages ride shared memory (lower latency)."""
    from repro.simtime.profiles import SUMMITDEV

    def app(ctx):
        if ctx.world_rank == 0:
            ctx.comm.send(b"z" * 64, 1)   # same node (ranks 0,1 on node 0)
            ctx.comm.send(b"z" * 64, 21)  # node 1
        elif ctx.world_rank in (1, 21):
            t0 = ctx.clock.now
            ctx.comm.recv(source=0)
            return ctx.clock.now - t0

    res = spmd_run(22, app, system=SUMMITDEV)
    assert res[1] < res[21]


def test_recv_timeout_counts_from_the_call():
    """A stream of other-tag messages does not restart a receive's
    timeout (``_await_reply`` and ``_drain_acks`` rely on it)."""
    done = threading.Event()

    def app(ctx):
        if ctx.world_rank == 0:
            for _ in range(20):  # 10 Hz for up to 2 s
                if done.wait(0.1):
                    return None
                ctx.comm.send("noise", 1, tag=2)
            return None
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            ctx.comm.recv(source=0, tag=1, timeout=0.3)
        elapsed = time.monotonic() - t0
        done.set()
        return elapsed

    assert 0.25 <= spmd_run(2, app)[1] < 1.0


def _block_until_waiting(ctx, world_rank):
    """Spin until ``world_rank`` is blocked in a receive on ctx.comm."""
    box = ctx.comm._world.mailbox(ctx.comm._comm_id, world_rank)
    deadline = time.monotonic() + 10.0
    while not box._waiters:
        assert time.monotonic() < deadline, "receiver never blocked"
        time.sleep(0.001)


@pytest.mark.parametrize("how,error", [
    ("kill", RankKilledError), ("abort", AbortedError),
])
def test_blocked_receiver_is_woken(how, error):
    """``kill_rank`` and ``abort`` wake a receiver blocked on a message
    that will never come, with the matching error."""

    def app(ctx):
        if ctx.world_rank == 0:
            _block_until_waiting(ctx, 1)
            if how == "kill":
                ctx.comm.kill_world_rank(1)
            else:
                ctx.comm.abort_world()
            return None
        try:
            ctx.comm.recv(source=0, tag=5)
        except error:
            return "woken"
        return "received"

    assert spmd_run(2, app, timeout=30)[1] == "woken"


class TestDirectHandoff:
    """Seeded property of the hand-off mailbox: random senders and tags,
    wildcard and timed receives, two threads of one rank receiving
    different tags.  Every message is received exactly once, in send
    order per (source, tag), and a blocked receiver is woken only by a
    message it matches."""

    NSENDERS = 3
    PER_SENDER = 40

    def _receive(self, ctx, rng, expected, out, allowed):
        """Receive every message of ``expected`` ((src, tag) -> count)
        with random specs from ``allowed``; timed receives of a tag no
        one sends must time out."""
        left = dict(expected)
        while any(left.values()):
            if rng.random() < 0.05:
                with pytest.raises(TimeoutError):
                    ctx.comm.recv(ANY_SOURCE, 99,
                                  timeout=rng.choice([0.001, 0.01]))
                continue
            specs = [sp for sp in allowed
                     if any(n and (sp[0] in (ANY_SOURCE, s))
                            and (sp[1] in (ANY_TAG, t))
                            for (s, t), n in left.items())]
            src, tag = rng.choice(specs)
            timeout = rng.choice([None, 30.0])
            status = {}
            got = ctx.comm.recv(src, tag, timeout=timeout, status=status)
            assert got[:2] == (status["source"], status["tag"])
            assert src in (ANY_SOURCE, got[0]) and tag in (ANY_TAG, got[1])
            left[got[:2]] -= 1
            out.append(got)

    def test_exactly_once_in_order_no_stray_wakes(self, monkeypatch):
        wakes = []  # (source, tag, envelope) at every wake-lock release

        class CountingLock:
            def __init__(self, waiter):
                self.waiter, self.lock = waiter, waiter.wake

            def acquire(self, *args):
                return self.lock.acquire(*args)

            def release(self):
                w = self.waiter
                wakes.append((w.source, w.tag, w.env))
                self.lock.release()

        class SpyWaiter(comm_mod._Waiter):
            def __init__(self, source, tag):
                super().__init__(source, tag)
                self.wake = CountingLock(self)

        monkeypatch.setattr(comm_mod, "_Waiter", SpyWaiter)
        rng = random.Random(FAULT_SEED)
        senders = list(range(1, self.NSENDERS + 1))
        # phase 1: rank 0's main thread owns tags 0-2 of ranks 1-2, a
        # second thread bound to rank 0 owns tags 3-4 of rank 3; phase 2:
        # everyone sends any tag, the main thread drains with wildcards
        plan1 = {1: [rng.choice([0, 1, 2]) for _ in range(self.PER_SENDER)],
                 2: [rng.choice([0, 1, 2]) for _ in range(self.PER_SENDER)],
                 3: [rng.choice([3, 4]) for _ in range(self.PER_SENDER)]}
        plan2 = {s: [rng.randrange(5) for _ in range(self.PER_SENDER)]
                 for s in senders}
        seeds = [rng.randrange(1 << 30) for _ in range(3 + self.NSENDERS)]

        def counts(plan, srcs):
            out = {}
            for s in srcs:
                for t in plan[s]:
                    out[(s, t)] = out.get((s, t), 0) + 1
            return out

        def send_all(ctx, plan, seed, seq):
            rng = random.Random(seed)
            for tag in plan[ctx.world_rank]:
                k = seq[tag] = seq.get(tag, -1) + 1
                ctx.comm.send((ctx.world_rank, tag, k), 0, tag=tag)
                if rng.random() < 0.2:
                    time.sleep(0.0005)

        def app(ctx):
            if ctx.world_rank:
                seq = {}  # tag -> last k sent, across both phases
                send_all(ctx, plan1, seeds[2 + ctx.world_rank], seq)
                ctx.comm.barrier()
                send_all(ctx, plan2, seeds[2 + ctx.world_rank], seq)
                return None
            main_got, side_got, side_err = [], [], []
            side_ctx = RankContext(world_rank=0, nranks=ctx.nranks,
                                   clock=VirtualClock(), comm=ctx.comm,
                                   system=ctx.system)

            def side():
                bind_context(side_ctx)
                try:
                    allowed = [(3, 3), (3, 4), (ANY_SOURCE, 3),
                               (ANY_SOURCE, 4)]
                    self._receive(side_ctx, random.Random(seeds[1]),
                                  counts(plan1, [3]), side_got, allowed)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    side_err.append(exc)
                finally:
                    bind_context(None)

            thread = threading.Thread(target=side)
            thread.start()
            allowed = [(s, t) for s in (1, 2, ANY_SOURCE) for t in (0, 1, 2)]
            allowed += [(1, ANY_TAG), (2, ANY_TAG)]
            self._receive(ctx, random.Random(seeds[0]),
                          counts(plan1, [1, 2]), main_got, allowed)
            thread.join()
            if side_err:
                raise side_err[0]
            ctx.comm.barrier()
            allowed = [(s, t) for s in senders + [ANY_SOURCE]
                       for t in [0, 1, 2, 3, 4, ANY_TAG]]
            self._receive(ctx, random.Random(seeds[2]),
                          counts(plan2, senders), main_got, allowed)
            return main_got, side_got

        main_got, side_got = spmd_run(1 + self.NSENDERS, app)[0]
        got = main_got + side_got
        sent = [(s, t) for plan in (plan1, plan2)
                for s in senders for t in plan[s]]
        # exactly once: every (source, tag, k) appears once
        assert len(got) == len(set(got)) == len(sent)
        for s, t in set(sent):
            ks = [k for (src, tag, k) in got if (src, tag) == (s, t)]
            assert sorted(ks) == list(range(len(ks)))
        # send order per (source, tag), per receiving thread
        for seen in (main_got, side_got):
            last = {}
            for s, t, k in seen:
                assert k > last.get((s, t), -1), (s, t, k)
                last[(s, t)] = k
        # a wake is a hand-off of a matching message, never a stray
        for src, tag, env in wakes:
            assert env is not None
            assert src in (ANY_SOURCE, env.source), (src, env)
            assert tag in (ANY_TAG, env.tag), (tag, env)
        assert 0 < len(wakes) <= len(sent)
