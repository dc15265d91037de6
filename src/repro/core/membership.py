"""Replica-group membership: the per-rank view of who is alive.

Only instantiated when ``Options(replicas=...)`` is greater than one —
the unreplicated paths never touch this module.  Each rank owns one
:class:`MembershipView` per database; views converge through piggybacked
``(epoch, dead)`` pairs carried on replication traffic (heartbeats,
replica puts, replica acks) rather than a consensus protocol.  Death is
**permanent and monotone**: the dead set only grows and the epoch only
advances, so two views can always be merged by taking the union/max and
in-flight messages from a superseded epoch can be rejected
deterministically.

Writers lock, readers read the published snapshot.  Both the rank main
thread (failure declaration) and the handler thread (heartbeats,
piggybacked liveness) change the view under the ``db.membership`` lock
(level 15 in the canonical order, between ``db.scan_pins`` and
``world.comm``); a change of the dead set or the epoch publishes a
new immutable :class:`Snapshot`, built whole before one attribute
store makes it visible.  Every reader — routing on each put and get,
epoch checks on each message — takes the snapshot with one attribute
read and no lock: an immutable object has nothing to race on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from repro.analysis.runtime import annotate_write, make_lock
from repro.errors import MembershipEpochError

#: failure-detector timing in virtual seconds (read by ``Database._tick``):
#: gap between heartbeat pings to a silent peer, ping silence after which
#: it is suspected, and ping silence after which it is declared dead
#: (after a final wall-clock grace wait for its pong)
HEARTBEAT_INTERVAL = 500e-6
SUSPECT_TIMEOUT = 2e-3
DEAD_TIMEOUT = 5e-3


class Snapshot(NamedTuple):
    """One published view, replaced whole on a change and never mutated.

    ``groups[home]`` is the replica group of every key hashed to rank
    ``home``: the ring walk from ``home`` over the live ranks, at most
    ``replicas`` members, the **acting primary** first.  Every reader
    of one epoch shares these lists: never mutate one.
    """

    epoch: int
    dead: FrozenSet[int]
    alive: Tuple[int, ...]
    wire: Tuple[int, Tuple[int, ...]]
    groups: Tuple[List[int], ...]


class MembershipView:
    """One rank's monotone view of group membership.

    ``epoch`` advances by one for every rank declared dead; a message
    stamped with an older epoch (or from a rank this view holds dead)
    is stale and gets rejected by the receiver, which replies with its
    newer view so the sender can re-route.
    """

    def __init__(self, rank: int, nranks: int, replicas: int) -> None:
        self.rank = rank
        self.nranks = nranks
        self.replicas = replicas
        self._mv_lock = make_lock("db.membership")
        self._publish(0, frozenset())
        self._suspect: Set[int] = set()
        #: per peer, a float that only grows (popped at death); written
        #: under the lock, read without it — a dict read is atomic
        self._last_heard: Dict[int, float] = {}
        #: ranks declared dead whose key ranges still need re-replication
        #: (drained by Database._rereplicate on the main thread)
        self._pending_rerepl: List[int] = []

    def _publish(self, epoch: int, dead: FrozenSet[int]) -> None:
        """Build the view of ``(epoch, dead)`` whole, then install it
        with one store (under the lock, or before the view is shared):
        readers take :attr:`snapshot` without the lock."""
        n = self.nranks
        self.snapshot = Snapshot(
            epoch, dead, tuple(r for r in range(n) if r not in dead),
            (epoch, tuple(sorted(dead))),
            tuple([r for r in ((home + i) % n for i in range(n))
                   if r not in dead][:self.replicas] for home in range(n)),
        )

    # -- liveness bookkeeping -----------------------------------------

    def heard_from(self, rank: int, t: float) -> None:
        """Any message from ``rank`` is proof of life at virtual ``t``."""
        if rank == self.rank:
            return
        with self._mv_lock:
            annotate_write(self, "membership.state")
            if rank in self.snapshot.dead:
                return  # death is permanent; a zombie stays dead
            prev = self._last_heard.get(rank, 0.0)
            if t > prev:
                self._last_heard[rank] = t
            self._suspect.discard(rank)

    def last_heard(self, rank: int) -> float:
        """Virtual time of the most recent message from ``rank`` (0.0 if never)."""
        return self._last_heard.get(rank, 0.0)

    def suspect(self, rank: int) -> None:
        """Mark a silent peer suspected (diagnostic; not yet dead)."""
        with self._mv_lock:
            annotate_write(self, "membership.state")
            if rank not in self.snapshot.dead:
                self._suspect.add(rank)

    # -- the view itself ----------------------------------------------

    @property
    def epoch(self) -> int:
        return self.snapshot.epoch

    def is_dead(self, rank: int) -> bool:
        """True once this view has declared ``rank`` dead (permanent)."""
        return rank in self.snapshot.dead

    def alive_ranks(self) -> Tuple[int, ...]:
        """All ranks this view holds alive, in rank order."""
        return self.snapshot.alive

    def wire(self) -> Tuple[int, Tuple[int, ...]]:
        """The ``(epoch, dead)`` pair stamped onto outgoing messages."""
        return self.snapshot.wire

    # -- membership changes -------------------------------------------

    def _bury(self, ranks: Iterable[int]) -> None:
        """Forget the newly dead ``ranks`` and queue their re-replication
        (under the lock; the caller publishes)."""
        for r in ranks:
            self._suspect.discard(r)
            self._last_heard.pop(r, None)
            self._pending_rerepl.append(r)

    def declare_dead(self, rank: int) -> bool:
        """Declare ``rank`` dead; True if this is news to the view.

        Advances the epoch and queues the rank for re-replication.
        Death is permanent — there is no rejoin short of ``restart()``.
        """
        if rank == self.rank:
            raise MembershipEpochError(
                f"rank {self.rank} asked to declare itself dead"
            )
        with self._mv_lock:
            annotate_write(self, "membership.state")
            snap = self.snapshot
            if rank in snap.dead:
                return False
            self._bury([rank])
            self._publish(snap.epoch + 1, snap.dead | {rank})
            return True

    def merge(self, epoch: int, dead) -> bool:
        """Adopt a peer's ``(epoch, dead)`` view; True if ours changed.

        Raises :class:`MembershipEpochError` if the peer's view holds
        *this* rank dead — a self-death notice is unrecoverable.
        """
        dead = set(dead)
        if self.rank in dead:
            raise MembershipEpochError(
                f"rank {self.rank} learned the group declared it dead "
                f"(peer epoch {epoch})"
            )
        with self._mv_lock:
            annotate_write(self, "membership.state")
            snap = self.snapshot
            news = dead - snap.dead
            self._bury(news)
            if epoch <= snap.epoch and not news:
                return False
            # new deaths under an equal/older epoch stamp still advance
            # past both views
            self._publish(max(epoch, snap.epoch + bool(news)),
                          snap.dead | news)
            return True

    def is_stale(self, epoch: int, source: int) -> bool:
        """Deterministic staleness test for an incoming message."""
        snap = self.snapshot
        return source in snap.dead or epoch < snap.epoch

    # -- re-replication queue -----------------------------------------

    @property
    def pending_rereplication(self) -> bool:
        # an unlocked length read: a rank queued meanwhile waits a tick
        return bool(self._pending_rerepl)

    def take_pending_rereplication(self) -> List[int]:
        """Drain the newly dead ranks awaiting re-replication."""
        with self._mv_lock:
            annotate_write(self, "membership.state")
            pending, self._pending_rerepl = self._pending_rerepl, []
            return pending

    def put_back_rereplication(self, ranks: List[int]) -> None:
        """Requeue ranks whose re-replication pass did not complete."""
        if not ranks:
            return
        with self._mv_lock:
            annotate_write(self, "membership.state")
            self._pending_rerepl = ranks + self._pending_rerepl
