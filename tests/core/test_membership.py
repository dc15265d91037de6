"""The membership view: writers lock, readers read one published snapshot.

A :class:`MembershipView` publishes an immutable snapshot on every
change of its dead set or epoch; every reader — routing, the failure
detector's tick, epoch checks — takes that snapshot without the lock.
The property drives random sequences of ``declare_dead`` (rank main
thread), ``merge`` and ``heard_from`` (handler thread, here a second
real thread) and checks after every step that each reader equals a
reference model taken under the lock, that every home rank's group
equals a reference ring walk, and that the epoch never decreases —
also as seen by a third thread reading the snapshot all along.  CI's
fault matrix draws the sequences from ``PKV_FAULT_SEED``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.membership import MembershipView

FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


class _Model:
    """The view's semantics, spelled out with plain mutable state."""

    def __init__(self) -> None:
        self.epoch = 0
        self.dead: set = set()
        self.pending: list = []
        self.heard: dict = {}

    def _bury(self, rank: int) -> None:
        self.dead.add(rank)
        self.heard.pop(rank, None)
        self.pending.append(rank)

    def declare_dead(self, rank: int) -> bool:
        if rank in self.dead:
            return False
        self._bury(rank)
        self.epoch += 1
        return True

    def merge(self, epoch: int, dead) -> bool:
        news = set(dead) - self.dead
        for rank in news:
            self._bury(rank)
        changed = bool(news) or epoch > self.epoch
        if epoch > self.epoch:
            self.epoch = epoch
        elif news:
            self.epoch += 1
        return changed

    def heard_from(self, rank: int, t: float) -> None:
        if rank not in self.dead:
            self.heard[rank] = max(self.heard.get(rank, 0.0), t)


def _ring_walk(home: int, nranks: int, replicas: int, dead) -> list:
    group = []
    for i in range(nranks):
        r = (home + i) % nranks
        if r in dead:
            continue
        group.append(r)
        if len(group) == replicas:
            break
    return group


@st.composite
def _scenarios(draw):
    nranks = draw(st.integers(1, 8))
    replicas = draw(st.integers(1, nranks))
    rank = draw(st.integers(0, nranks - 1))
    peer = st.sampled_from([r for r in range(nranks) if r != rank] or [-1])
    op = st.one_of(
        st.tuples(st.just("declare_dead"), peer),
        # the stamp's epoch relative to the view's: older, equal, newer
        st.tuples(st.just("merge"), st.integers(-2, 2), st.frozensets(peer)),
        st.tuples(st.just("heard_from"), peer,
                  st.floats(0.0, 1.0, allow_nan=False)),
    )
    ops = draw(st.lists(op, max_size=24)) if nranks > 1 else []
    return nranks, replicas, rank, ops


def _check(mv: MembershipView, model: _Model, nranks: int,
           replicas: int) -> None:
    """Every snapshot reader equals the model, read under the lock."""
    with mv._mv_lock:
        dead = set(model.dead)
        assert mv.epoch == model.epoch
        assert mv.wire() == (model.epoch, tuple(sorted(dead)))
        assert list(mv.alive_ranks()) == [
            r for r in range(nranks) if r not in dead]
        for r in range(nranks):
            assert mv.is_dead(r) == (r in dead)
            assert mv.last_heard(r) == model.heard.get(r, 0.0)
            for epoch in (model.epoch - 1, model.epoch, model.epoch + 1):
                assert mv.is_stale(epoch, r) == (
                    r in dead or epoch < model.epoch)
        assert mv.pending_rereplication == bool(model.pending)
        groups = mv.snapshot.groups
        assert len(groups) == nranks
        for home in range(nranks):
            assert groups[home] == _ring_walk(home, nranks, replicas, dead)


@seed(FAULT_SEED)
@settings(max_examples=150, deadline=None)
@given(_scenarios())
def test_snapshot_readers_equal_the_locked_model(scenario):
    nranks, replicas, rank, ops = scenario
    mv = MembershipView(rank, nranks, replicas)
    model = _Model()
    stop = threading.Event()
    seen: list = []  # what the concurrent reader found wrong

    def reader() -> None:
        last = 0
        while not stop.is_set():
            snap = mv.snapshot
            if snap.epoch < last or snap.wire != (
                    snap.epoch, tuple(sorted(snap.dead))):
                seen.append(snap)
            last = snap.epoch
            time.sleep(0)  # let the writers run

    watcher = threading.Thread(target=reader)
    watcher.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as handler:
            _check(mv, model, nranks, replicas)
            for step in ops:
                before = mv.epoch
                if step[0] == "declare_dead":
                    assert mv.declare_dead(step[1]) == model.declare_dead(
                        step[1])
                elif step[0] == "merge":
                    epoch = max(0, mv.epoch + step[1])
                    got = handler.submit(mv.merge, epoch, step[2]).result()
                    assert got == model.merge(epoch, step[2])
                else:
                    handler.submit(mv.heard_from, step[1], step[2]).result()
                    model.heard_from(step[1], step[2])
                _check(mv, model, nranks, replicas)
                assert mv.epoch >= before
    finally:
        stop.set()
        watcher.join()
    assert not seen
    assert sorted(mv.take_pending_rereplication()) == sorted(model.pending)
    assert not mv.pending_rereplication
