"""Replication, write quorum, and rank-failure recovery.

The acceptance contract: with ``replicas=3, write_quorum=2`` on four
ranks, killing any single rank mid-run loses **zero acknowledged
writes**, gets keep succeeding while the group recovers, and automatic
re-replication returns every key to full replication factor.  The kill
schedule is seeded (CI's fault matrix re-runs this module under
``PKV_FAULT_SEED`` 7/23/1009) so the runs are deterministic.

Survivor shutdown: after a kill the collective ``close()`` would hang
on the dead rank, so survivors stop their own handler with a self-sent
``StopMsg`` and mark themselves closed — the documented pattern for
post-failure teardown.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro import Papyrus
from repro.analysis import runtime
from repro.config import SEQUENTIAL, Options
from repro.core import messages as msg
from repro.core.db import GROUP_COMMIT_INTERVAL
from repro.errors import (
    InvalidOptionError, QuorumLostError, RemoteTimeoutError,
)
from repro.faults import FaultPlan
from repro.mpi.launcher import spmd_run
from repro.sstable.reader import list_ssids
from tests.conftest import run4, small_options

#: CI's fault matrix re-runs this module under several seeds
FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))

NRANKS = 4
#: the kill schedule varies with the seed: which rank dies and when
VICTIM = FAULT_SEED % NRANKS
KILL_NTH = 90 + FAULT_SEED % 97


def _repl_options(**kw) -> Options:
    base = dict(
        replicas=3,
        write_quorum=2,
        remote_timeout=0.2,
        memtable_capacity=1 << 12,
    )
    base.update(kw)
    return Options(**base)


def _keys(stem: str, n: int):
    return [f"{stem}{i:03d}".encode() for i in range(n)]


def _spy_on_pairs(db):
    """Every ``(dest, key, value, tombstone)`` this rank puts on the
    wire in a PairsMsg from now on."""
    pushed = []
    send = db.srv_comm.send

    def spy(payload, dest, tag=0):
        if isinstance(payload, msg.PairsMsg):
            pushed.extend((dest, *pair) for pair in payload.pairs)
        return send(payload, dest, tag=tag)

    db.srv_comm.send = spy
    return pushed


#: the relaxed-mode kill tests fence — a public acknowledgement
#: boundary — after every this many puts
FENCE_EVERY = 8


def _acked_puts(db, acked: set):
    """``(put, fence)`` that record in ``acked`` what the store has
    acknowledged: in sequential mode every put that returned, in
    relaxed mode every put a ``fence()`` has returned after — ``put``
    issues one every FENCE_EVERY puts."""
    unfenced = []

    def fence():
        db.fence()
        acked.update(unfenced)
        unfenced.clear()

    def put(key, value):
        db.put(key, value)
        if db.consistency == SEQUENTIAL:
            acked.add(key)
            return
        unfenced.append(key)
        if len(unfenced) == FENCE_EVERY:
            fence()

    return put, fence


def _survivor_close(db) -> None:
    """Non-collective close for ranks that outlive a killed peer."""
    db.srv_comm.send(msg.StopMsg(), db.rank, tag=0)
    db._handler_thread.join(10)
    db._closed = True


class TestReplicatedOperation:
    """Failure-free replication semantics."""

    def test_put_get_and_physical_copies(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                rank = ctx.world_rank
                for i in range(40):
                    db.put(f"r{rank}-{i:03d}".encode(), f"v{i}".encode())
                db.fence()
                db.barrier()
                for rr in range(ctx.nranks):
                    for i in range(0, 40, 7):
                        assert (
                            db.get(f"r{rr}-{i:03d}".encode())
                            == f"v{i}".encode()
                        )
                # every key is physically held by exactly R ranks, and
                # the primary-filtered scans partition the key space
                held = len(db.scan_local(include_replicas=True))
                primary = len(db.scan_local())
                helds = db.coll_comm.allgather(held)
                primaries = db.coll_comm.allgather(primary)
                assert sum(helds) == 40 * ctx.nranks * 3
                assert sum(primaries) == 40 * ctx.nranks
                db.close()

        run4(app)

    def test_replicated_delete_propagates(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                rank = ctx.world_rank
                for i in range(10):
                    db.put(f"d{rank}-{i}".encode(), b"doomed")
                db.fence()
                db.barrier()
                db.delete(f"d{rank}-0".encode())
                db.fence()
                db.barrier()
                for rr in range(ctx.nranks):
                    assert db.get_or_none(f"d{rr}-0".encode()) is None
                    assert db.get(f"d{rr}-1".encode()) == b"doomed"
                db.close()

        run4(app)

    def test_write_batch_replicated(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                rank = ctx.world_rank
                with db.batch() as b:
                    for i in range(30):
                        b.put(f"b{rank}-{i:03d}".encode(), f"w{i}".encode())
                db.fence()
                db.barrier()
                for rr in range(ctx.nranks):
                    assert db.get(f"b{rr}-015".encode()) == b"w15"
                db.close()

        run4(app)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_batch_fans_one_message_per_target(self, nranks):
        """A batch rides the commit window like any put: nothing leaves
        before the window closes, and the fence that closes it ships its
        pairs grouped by target, one PairsMsg per target — not one per
        key — so every member of every key's group ends up holding it."""
        items = {f"bulk{i:03d}".encode(): f"v{i}".encode() * 4
                 for i in range(100)}

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options(replicas=2,
                                                    write_quorum=2))
                sent = None
                if ctx.world_rank == 0:
                    targets = {r for key in items
                               for r in db._replica_group(key)} - {0}
                    msgs, pairs = (db.stats.replica_msgs,
                                   db.stats.replica_pairs)
                    with db.batch() as b:
                        for key, value in items.items():
                            b.put(key, value)
                    assert db.stats.replica_msgs == msgs  # still staged
                    db.fence()
                    # R=2: one copy of each key leaves this rank, or two
                    # when it is no member of the key's group
                    outside = sum(0 not in db._replica_group(key)
                                  for key in items)
                    sent = (db.stats.replica_msgs - msgs, len(targets),
                            db.stats.replica_pairs - pairs,
                            len(items) + outside)
                db.fence()
                db.barrier()
                held = dict(db.scan_local(include_replicas=True))
                for key, value in items.items():
                    if ctx.world_rank in db._replica_group(key):
                        assert held[key] == value
                db.close()
                return sent

        msgs, ntargets, pairs, copies = run4(app, nranks=nranks)[0]
        assert ntargets == nranks - 1  # 100 keys reach every other rank
        assert msgs == ntargets
        assert pairs == copies  # 100 exactly on two ranks

    @pytest.mark.parametrize("opener", ["put", "batch"])
    def test_window_opener_settles_rider_quorum_debts(self, opener):
        """The commit window carries its riders: their pairs leave when
        the window closes, one message per target, and book one quorum
        debt per distinct group; whatever opens the next window — a
        point put or a batch, it is one pipeline — ships the window and
        settles the debts of the one shipped before it."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                if ctx.world_rank == 0:
                    db.put(b"opens", b"v")
                    db.put(b"rides", b"v")
                    assert db.stats.group_commit_coalesced == 1
                    # nothing is on the wire, so nothing is owed yet
                    assert list(db._staged) == [b"opens", b"rides"]
                    assert not db._unacked and db._quorum_due == []
                    assert db.stats.replica_msgs == 0
                    groups = {tuple(db._replica_group(k))
                              for k in (b"opens", b"rides")}
                    targets = {r for g in groups for r in g} - {0}
                    ctx.clock.advance(GROUP_COMMIT_INTERVAL)  # window over
                    if opener == "put":
                        db.put(b"next", b"v")
                        staged = [b"next"]
                    else:
                        with db.batch() as b:
                            b.put(b"next", b"v")
                            b.put(b"next2", b"v")
                        staged = [b"next", b"next2"]
                    # the opener shipped the window it closed...
                    assert db.stats.replica_msgs == len(targets)
                    assert db.stats.replica_pairs == sum(
                        len(set(g) - {0}) for g in map(
                            db._replica_group, (b"opens", b"rides")))
                    assert len(db._quorum_due) == len(groups)
                    first = list(db._quorum_due)
                    assert db.stats.group_commits == 2
                    # ...and the new window is open: the next call rides
                    assert list(db._staged) == staged
                    db.delete(b"rides")
                    assert db.stats.group_commits == 2
                    assert db._staged[b"rides"] == (b"rides", b"", True)
                    assert db.stats.replica_msgs == len(targets)
                    # the boundary after that settles the first window
                    ctx.clock.advance(GROUP_COMMIT_INTERVAL)
                    db.put(b"third", b"v")
                    assert first and all(
                        sum(s not in db._unacked for s in seqs) >= need > 0
                        for seqs, need in first)
                    assert not any(debt in db._quorum_due for debt in first)
                db.barrier()
                db.close()

        run4(app)

    def test_writer_outside_the_group_reads_its_staged_put(self):
        """A staged pair is visible to its writer before the window
        closes (the ``inflight`` tier) even when the writer holds no
        local copy of it."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options(replicas=2))
                if ctx.world_rank == 0:
                    key = next(k for k in _keys("out", 64)
                               if 0 not in db._replica_group(k))
                    db.put(key, b"mine")
                    assert key in db._staged and not db._unacked
                    got = db.get_ex(key)
                    assert (got.value, got.tier) == (b"mine", "inflight")
                    db.delete(key)
                    assert db.get_or_none(key) is None
                    assert db.stats.replica_msgs == 0  # never left
                db.barrier()
                db.close()

        run4(app)

    def test_key_rewritten_inside_a_window_travels_once(self):
        """Two puts of one key inside a window put one pair on the wire
        and the later value on every member."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                key = b"twice"
                if ctx.world_rank == 0:
                    pushed = _spy_on_pairs(db)
                    db.put(key, b"first")
                    db.put(key, b"second")
                    db.fence()
                    others = [r for r in db._replica_group(key) if r != 0]
                    assert sorted(pushed) == [
                        (r, key, b"second", False) for r in sorted(others)]
                db.barrier()
                if ctx.world_rank in db._replica_group(key):
                    held = dict(db.scan_local(include_replicas=True))
                    assert held[key] == b"second"
                db.close()

        run4(app)

    @pytest.mark.parametrize("poll", ["get", "tick"])
    def test_quiet_rank_ships_its_aged_window(self, poll):
        """A rank that stops writing but keeps polling ships its window
        once it is older than GROUP_COMMIT_INTERVAL — its riders do not
        wait for a put that never comes."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("repl", _repl_options())
                if ctx.world_rank == 0:
                    keys = _keys("quiet", 5)
                    for key in keys:
                        db.put(key, b"v")
                    db.get(keys[0])  # a young window stays open
                    assert list(db._staged) == keys
                    assert db.stats.replica_msgs == 0
                    ctx.clock.advance(GROUP_COMMIT_INTERVAL)
                    if poll == "get":
                        assert db.get(keys[1]) == b"v"
                    else:
                        db.tick()
                    assert not db._staged
                    assert db.stats.replica_pairs == sum(
                        len(set(db._replica_group(k)) - {0}) for k in keys)
                db.barrier()
                db.close()

        run4(app)

    def test_options_validation(self):
        with pytest.raises(InvalidOptionError):
            Options(replicas=2, write_quorum=3)
        with pytest.raises(InvalidOptionError):
            Options(replicas=0)

        def app(ctx):
            with Papyrus(ctx) as env:
                with pytest.raises(InvalidOptionError):
                    env.open("repl", _repl_options(replicas=5))

        run4(app)


class TestLockTraffic:
    """A put reads the membership view; only a change to it locks."""

    def test_replicated_put_takes_no_membership_lock(self, lock_spy):
        """2 ranks, R=2/Q=2, relaxed mode, 1,000 puts per rank: routing,
        the failure detector's tick and the eager-publish check read the
        published snapshot, so a put takes ``db.membership`` (almost)
        never and ``db.state`` about once — its MemTable insert."""
        counts, counting = lock_spy.counts, lock_spy.counting
        both = threading.Barrier(2)
        puts = 1000

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("locks", _repl_options(replicas=2))
                rank = ctx.world_rank
                both.wait()
                counting.set()
                for i in range(puts):
                    db.put(f"l{rank}-{i:04d}".encode(), b"v" * 16)
                db.fence()
                both.wait()
                counting.clear()
                db.close()

        spmd_run(2, app)
        per_put = {name: n / (2 * puts) for name, n in counts.items()}
        assert per_put.get("db.membership", 0) <= 0.1, per_put
        assert per_put["db.state"] <= 1.3, per_put


class TestKillRank:
    """The headline fault test: seeded mid-run kill, zero acked loss."""

    def test_kill_loses_no_acked_writes(self):
        """Relaxed mode: a put is acknowledged at the boundary that
        closes its commit window — here a ``fence()`` every few puts."""
        self._kill_loses_no_acked_writes(_repl_options())

    def test_kill_loses_no_returned_write_in_sequential_mode(self):
        """Sequential mode acknowledges on return: every put that
        returned counts."""
        self._kill_loses_no_acked_writes(
            _repl_options(consistency=SEQUENTIAL))

    @staticmethod
    def _kill_loses_no_acked_writes(options):
        shared = {"acked": {}, "held": {}}
        survivors = threading.Barrier(NRANKS - 1)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("kill", options)
            rank = ctx.world_rank
            acked: set = set()
            shared["acked"][rank] = acked
            put, fence = _acked_puts(db, acked)
            for i in range(120):
                key = f"k{rank}-{i:04d}".encode()
                put(key, f"v{i}".encode())
                if i % 3 == 0:
                    db.get(key)
            if rank == VICTIM:
                raise AssertionError("victim survived its kill schedule")
            fence()
            survivors.wait()
            # recovery: spin the failure detector until the victim is
            # declared dead and re-replication has drained — gets must
            # keep succeeding the whole time
            mv = db.membership
            probe = sorted(acked)[0]
            for _ in range(10000):
                db.tick()
                assert db.get_or_none(probe) is not None, (
                    "get failed during recovery"
                )
                if mv.is_dead(VICTIM) and not mv.pending_rereplication:
                    break
            assert mv.is_dead(VICTIM), (
                f"rank {rank} never declared {VICTIM} dead"
            )
            survivors.wait()
            # zero acknowledged writes lost — including the victim's
            lost = []
            for r, keys in shared["acked"].items():
                for key in sorted(keys):
                    if db.get_or_none(key) is None:
                        lost.append((r, key))
            assert not lost, (
                f"rank {rank} lost {len(lost)} acked writes: {lost[:5]}"
            )
            # back to full replication factor: every acked key must be
            # physically held by >= R of the survivors
            shared["held"][rank] = {
                k for k, _ in db.scan_local(include_replicas=True)
            }
            survivors.wait()
            if rank == min(r for r in range(NRANKS) if r != VICTIM):
                under = []
                for key in set().union(*shared["acked"].values()):
                    copies = sum(
                        1 for h in shared["held"].values() if key in h
                    )
                    if copies < 3:
                        under.append((key, copies))
                assert not under, f"under-replicated: {under[:5]}"
            survivors.wait()
            _survivor_close(db)
            return len(acked)

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(VICTIM, nth=KILL_NTH)
        res = spmd_run(NRANKS, app, faults=faults, timeout=240)
        assert res[VICTIM] is None  # the kill fired
        assert all(r == 120 for i, r in enumerate(res) if i != VICTIM)
        # the victim acked some writes before dying; none were lost
        assert shared["acked"][VICTIM]

    def test_quorum_lost_when_too_few_survivors(self):
        """With R=Q=2 on two ranks a single death makes writes refuse
        loudly (QuorumLostError) instead of acking unreplicated data."""

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("qlost", _repl_options(replicas=2))
            rank = ctx.world_rank
            try:
                for i in range(60):
                    db.put(f"q{rank}-{i:03d}".encode(), b"x")
            except QuorumLostError:
                pass  # the peer died mid-loop: writes refuse from here on
            if rank == 1:
                raise AssertionError("victim survived its kill schedule")
            mv = db.membership
            for _ in range(10000):
                db.tick()
                if mv.is_dead(1):
                    break
            assert mv.is_dead(1)
            with pytest.raises(QuorumLostError):
                db.put(b"after-death", b"y")
            # acked pre-death writes are still readable from the survivor
            assert db.get_or_none(b"q0-000") is not None
            _survivor_close(db)

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(1, nth=40)
        res = spmd_run(2, app, faults=faults, timeout=240)
        assert res[1] is None


class TestStaleEpochAndFailover:
    """The replication plane's two recovery paths, driven on purpose:
    a carrier stamped with a superseded epoch is rejected and re-fanned,
    and a get whose primary is gone fails over to the next member."""

    def test_stale_carrier_is_rejected_then_re_fanned(self):
        keys = _keys("st", 48)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("stale", _repl_options(replicas=2))
            rank = ctx.world_rank
            if rank == 1:
                # rank 1 alone moves to epoch 3 (no death); rank 0's
                # first carriers to it are stamped epoch 0
                assert db.membership.merge(3, ())
            db.coll_comm.barrier()
            pushed = _spy_on_pairs(db) if rank == 0 else []
            if rank == 0:
                for k in keys:
                    db.put(k, b"v-" + k)
                db.fence()
                assert db.membership.epoch == 3  # learned from the ack
            db.coll_comm.barrier()
            got = [db.get(k) for k in keys]
            held = {k for k, _ in db.scan_local(include_replicas=True)}
            to_1 = [key for dest, key, *_ in pushed if dest == 1]
            out = (got, db.stats.epoch_rejections, held, to_1,
                   [k for k in keys if 1 in db._replica_group(k)])
            db.close()
            return out

        res = spmd_run(3, app, timeout=120)
        assert all(r[0] == [b"v-" + k for k in keys] for r in res)
        assert res[1][1] >= 1             # rank 1 rejected a carrier
        on_1, to_1 = res[0][4], res[0][3]
        assert on_1 and set(on_1) <= res[1][2]  # ... and holds them now
        # every pair bound for rank 1 went out twice: the rejected carrier
        # and the re-fan under the epoch the rejection taught rank 0
        assert all(to_1.count(k) >= 2 for k in on_1)

    def test_get_fails_over_when_the_primary_times_out(self):
        killed, survivors = threading.Barrier(3), threading.Barrier(2)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("failover", _repl_options(
                replicas=2, remote_timeout=0.05, remote_retries=0))
            rank = ctx.world_rank
            # keys whose group is [0, 1]: rank 2 reads them remotely
            keys = [k for k in _keys("fo", 60)
                    if db._replica_group(k) == [0, 1]]
            if rank == 0:
                for k in keys:
                    db.put(k, b"v-" + k)
                db.fence()
            db.coll_comm.barrier()
            if rank == 0:
                ctx.comm.kill_world_rank(0)  # gone before rank 2 asks
            killed.wait()
            if rank == 0:
                return None
            timeouts = []
            remote_get = db._remote_get

            def spy(groups, *args, **kw):
                try:
                    return remote_get(groups, *args, **kw)
                except RemoteTimeoutError:
                    timeouts.append(sorted(groups))
                    raise

            db._remote_get = spy
            got = [db.get(k) for k in keys] if rank == 2 else []
            out = (keys, got, timeouts, db.stats.failover_gets,
                   db.membership.is_dead(0))
            survivors.wait()
            _survivor_close(db)
            return out

        res = spmd_run(3, app, timeout=120)
        keys, got, timeouts, failovers, dead = res[2]
        assert keys and got == [b"v-" + k for k in keys]
        # the first get timed out on rank 0, declared it dead and read
        # the key from rank 1; every later get went to rank 1 directly
        assert timeouts == [[0]] and dead
        assert failovers >= 1


class TestOpenWindowAcrossADeath:
    """What the staged window owes when a rank dies while it is open."""

    def test_dead_target_is_dropped_from_the_open_window(self):
        """Rank 2 dies while rank 0 holds an open window with pairs for
        it: the window is placed when it ships, against the view of that
        moment, so the fence sends nothing to the dead rank, waits out
        no retransmit round, and re-replication leaves every staged key
        on both survivors."""
        keys = _keys("dt", 48)
        staged, died = threading.Event(), threading.Event()
        done = threading.Barrier(2)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("deadtarget", _repl_options(replicas=2))
            rank = ctx.world_rank
            if rank == 2:
                assert staged.wait(60)
                try:
                    db.tick()  # its first op: the plan kills it here
                finally:
                    died.set()
                raise AssertionError("victim survived its kill schedule")
            if rank == 0:
                for key in keys:
                    db.put(key, b"v")
                assert any(2 in db._replica_group(k) for k in keys)
                assert list(db._staged) == keys and not db._unacked
                staged.set()
                assert died.wait(60)
                db._declare_dead(2)  # the detector's verdict
                pushed = _spy_on_pairs(db)
                timeouts = db.stats.remote_timeouts
                db.fence()
                assert {dest for dest, *_ in pushed} == {1}
                assert sorted(key for _d, key, *_ in pushed) == keys
                assert db.stats.remote_timeouts == timeouts
                assert db.stats.remote_retries == 0
                db.tick()  # pushes the pending re-replication pass
                assert not db.membership.pending_rereplication
                assert db.stats.remote_timeouts == timeouts
            done.wait(60)
            held = {k for k, _ in db.scan_local(include_replicas=True)}
            done.wait(60)
            _survivor_close(db)
            return held

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(2, nth=1)
        res = spmd_run(3, app, faults=faults, timeout=120)
        assert res[2] is None  # the kill fired
        assert set(keys) <= res[0] and set(keys) <= res[1]

    #: the sweep's victim spaces its puts so that a commit window holds
    #: this many of them
    WINDOW = 6

    @pytest.mark.parametrize("offset", range(WINDOW + 2))
    def test_dead_writer_loses_at_most_its_open_window(self, offset):
        """Kill the writer at every op index across one full window:
        nothing it fenced is lost, and what is lost is a suffix of its
        put order no longer than one window — the riders that had not
        shipped."""
        victim = FAULT_SEED % 3
        nth = 20 + FAULT_SEED % 5 + offset
        order, fenced = [], set()
        died = threading.Event()
        dbs = {}

        def app(ctx):
            env = Papyrus(ctx)
            db = dbs[ctx.world_rank] = env.open(
                "deadwriter", _repl_options(replicas=2))
            if ctx.world_rank == victim:
                try:
                    for i, key in enumerate(_keys("dw", 40)):
                        db.put(key, b"v")
                        order.append(key)
                        ctx.clock.advance(
                            GROUP_COMMIT_INTERVAL / self.WINDOW)
                        if (i + 1) % 13 == 0:
                            db.fence()
                            fenced.update(order)
                finally:
                    died.set()
                raise AssertionError("victim survived its kill schedule")
            assert died.wait(60)
            # the victim's last sends sit in the survivors' mailboxes:
            # let the handlers apply them before looking
            sent = dbs[victim].stats.replica_pairs
            for _ in range(2000):
                if sum(d.stats.replica_pairs_applied
                       for r, d in dbs.items() if r != victim) == sent:
                    break
                time.sleep(0.005)
            held = {k for k, _ in db.scan_local(include_replicas=True)}
            _survivor_close(db)
            return held

        faults = FaultPlan(seed=FAULT_SEED).kill_rank(victim, nth=nth)
        res = spmd_run(3, app, faults=faults, timeout=120)
        assert res[victim] is None and len(order) == nth - 1
        held = set().union(*(h for h in res if h is not None))
        missing = [key for key in order if key not in held]
        assert missing == order[len(order) - len(missing):]
        assert len(missing) <= self.WINDOW + 1
        assert not fenced & set(missing)
        assert fenced  # the schedule fenced before it killed


class TestKillRecoverUnderRaceDetector:
    """The kill/recover stress loop runs clean under the detector."""

    def test_detector_reports_no_findings(self):
        from repro.analysis import runtime

        saved = runtime.get_detector()
        det = runtime.enable(reset=True)
        try:
            shared = {"acked": {}}
            survivors = threading.Barrier(NRANKS - 1)

            def app(ctx):
                env = Papyrus(ctx)
                db = env.open("race", _repl_options())
                rank = ctx.world_rank
                acked = set()
                shared["acked"][rank] = acked
                put, fence = _acked_puts(db, acked)
                for i in range(80):
                    key = f"s{rank}-{i:03d}".encode()
                    put(key, b"z")
                    if i % 5 == 0:
                        db.get(key)
                if rank == VICTIM:
                    raise AssertionError("victim survived")
                fence()
                survivors.wait()
                mv = db.membership
                for _ in range(10000):
                    db.tick()
                    if mv.is_dead(VICTIM) and not mv.pending_rereplication:
                        break
                for keys in shared["acked"].values():
                    for key in sorted(keys)[:10]:
                        assert db.get_or_none(key) is not None
                survivors.wait()
                _survivor_close(db)

            faults = FaultPlan(seed=FAULT_SEED).kill_rank(VICTIM, nth=60)
            spmd_run(NRANKS, app, faults=faults, timeout=240)
            report = det.report()
            assert report["findings"] == [], report["findings"]
            assert report["summary"]["locations"] > 0
        finally:
            runtime.disable()
            runtime.restore(saved)


class TestRereplicationWalk:
    """``_rereplicate`` walks the shard through a pinned ``ScanIterator``
    with tombstones kept.  Three live ranks, R=2; rank 0 alone writes,
    then declares rank 2 dead *in its own view* and runs one pass, so
    the schedule is fixed: no kill, no detector timeouts."""

    @staticmethod
    def _load(db, rng):
        """Several L0 tables plus a live MemTable on rank 0, with
        overwrites and deletes spread over both; returns the newest
        version rank 0 holds of every key, tombstones included."""
        model = {}
        for round_ in range(4):
            for i in range(40):
                key = f"w{i:03d}".encode()
                if rng.random() < 0.2:
                    db.delete(key)
                    pair = (b"", True)
                else:
                    pair = (f"r{round_}-{i}".encode() * 8, False)
                    db.put(key, pair[0])
                if db.rank in db._replica_group(key, check=False):
                    model[key] = pair
            if round_ < 3:
                db.flush()
        db.fence()
        assert len(db.ssids) >= 3 and len(db.local_mt) > 0
        return model

    def _run(self, body):
        """``body(db)`` on rank 0 while ranks 1 and 2 only serve."""
        done = threading.Barrier(3)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("walk", _repl_options(
                replicas=2, write_quorum=1, compaction_interval=0,
            ))
            try:
                if ctx.world_rank == 0:
                    return body(db)
            finally:
                done.wait(60)
                _survivor_close(db)

        return spmd_run(3, app, timeout=120)[0]

    def test_compaction_mid_walk_neither_raises_nor_changes_the_view(self):
        def body(db):
            model = self._load(db, random.Random(FAULT_SEED))
            walked = list(db.ssids)
            pushed = _spy_on_pairs(db)
            pin_view = db._pin_view

            def compacting_pin(now):
                # once the walk holds its view's tables: a replica batch
                # on the handler filled the MemTable, flushed and
                # compacted — BackgroundWorker.schedule runs it at once
                pinned = pin_view(now)
                with db._lock:
                    db._schedule_compaction(db.clock.now)
                return pinned

            db._pin_view = compacting_pin
            db.membership.declare_dead(2)
            db._rereplicate()
            del db._pin_view
            assert db.stats.compactions == 1
            assert not set(walked) & set(db.ssids)  # every input retired
            # the pre-compaction newest-wins view, deletes included, for
            # the keys rank 0 now heads: all go to rank 1, in key order
            want = [
                (1, key, value, tomb)
                for key, (value, tomb) in sorted(model.items())
                if db._replica_group(key, check=False)[0] == 0
            ]
            assert any(tomb for *_, tomb in want)
            assert pushed == want
            assert db.stats.rereplicated_pairs == len(want)
            assert not db.membership.pending_rereplication
            # the walk's pins are gone and the unlinks they deferred ran
            assert not db._scan_pins and not db._deferred_unlinks
            assert not set(walked) & set(list_ssids(db.store, db.rank_dir))

        self._run(body)

    def test_quarantined_table_keeps_the_pass_pending(self):
        """A rank behind a quarantined table cannot vouch for its newest
        versions: it pushes nothing — never around the hole — and the
        pass stays pending."""

        def body(db):
            self._load(db, random.Random(FAULT_SEED))
            pushed = _spy_on_pairs(db)
            db._quarantine_table(db.ssids[1], "test: damaged")
            db.membership.declare_dead(2)
            for _ in range(2):  # and again on the next tick
                db._rereplicate()
                assert pushed == []
                assert db.stats.rereplicated_pairs == 0
                assert db.membership.pending_rereplication
            assert not db._scan_pins

        self._run(body)
