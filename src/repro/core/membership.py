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

All state is guarded by the ``db.membership`` lock (level 15 in the
canonical order, between ``db.state`` and ``db.index_cache``): both the rank
main thread (routing, failure declaration) and the handler thread
(heartbeats, piggybacked liveness) read and write it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.runtime import annotate_read, annotate_write, make_lock
from repro.errors import MembershipEpochError

#: failure-detector timing in virtual seconds (read by ``Database._tick``):
#: gap between heartbeat pings to a silent peer, ping silence after which
#: it is suspected, and ping silence after which it is declared dead
#: (after a final wall-clock grace wait for its pong)
HEARTBEAT_INTERVAL = 500e-6
SUSPECT_TIMEOUT = 2e-3
DEAD_TIMEOUT = 5e-3


class MembershipView:
    """One rank's monotone view of group membership.

    ``epoch`` advances by one for every rank declared dead; a message
    stamped with an older epoch (or from a rank this view holds dead)
    is stale and gets rejected by the receiver, which replies with its
    newer view so the sender can re-route.
    """

    def __init__(self, rank: int, nranks: int) -> None:
        self.rank = rank
        self.nranks = nranks
        self._mv_lock = make_lock("db.membership")
        self._epoch = 0
        self._dead: Set[int] = set()
        self._suspect: Set[int] = set()
        self._last_heard: Dict[int, float] = {}
        #: ranks declared dead whose key ranges still need re-replication
        #: (drained by Database._rereplicate on the main thread)
        self._pending_rerepl: List[int] = []

    # -- liveness bookkeeping -----------------------------------------

    def heard_from(self, rank: int, t: float) -> None:
        """Any message from ``rank`` is proof of life at virtual ``t``."""
        if rank == self.rank:
            return
        with self._mv_lock:
            annotate_write(self, "membership.state")
            if rank in self._dead:
                return  # death is permanent; a zombie stays dead
            prev = self._last_heard.get(rank, 0.0)
            if t > prev:
                self._last_heard[rank] = t
            self._suspect.discard(rank)

    def last_heard(self, rank: int) -> float:
        """Virtual time of the most recent message from ``rank`` (0.0 if never)."""
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return self._last_heard.get(rank, 0.0)

    def suspect(self, rank: int) -> None:
        """Mark a silent peer suspected (diagnostic; not yet dead)."""
        with self._mv_lock:
            annotate_write(self, "membership.state")
            if rank not in self._dead:
                self._suspect.add(rank)

    # -- the view itself ----------------------------------------------

    @property
    def epoch(self) -> int:
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return self._epoch

    def is_dead(self, rank: int) -> bool:
        """True once this view has declared ``rank`` dead (permanent)."""
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return rank in self._dead

    def is_alive(self, rank: int) -> bool:
        """Negation of :meth:`is_dead`."""
        return not self.is_dead(rank)

    def alive_ranks(self) -> List[int]:
        """All ranks this view holds alive, in rank order."""
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return [r for r in range(self.nranks) if r not in self._dead]

    def wire(self) -> Tuple[int, Tuple[int, ...]]:
        """The ``(epoch, dead)`` pair stamped onto outgoing messages."""
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return self._epoch, tuple(sorted(self._dead))

    # -- membership changes -------------------------------------------

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
            if rank in self._dead:
                return False
            self._dead.add(rank)
            self._suspect.discard(rank)
            self._last_heard.pop(rank, None)
            self._epoch += 1
            self._pending_rerepl.append(rank)
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
            changed = False
            for r in dead - self._dead:
                self._dead.add(r)
                self._suspect.discard(r)
                self._last_heard.pop(r, None)
                self._pending_rerepl.append(r)
                changed = True
            if epoch > self._epoch:
                self._epoch = epoch
                changed = True
            elif changed:
                # learned new deaths under an equal/older epoch stamp:
                # still advance past both views
                self._epoch = max(self._epoch + 1, epoch)
            return changed

    def is_stale(self, epoch: int, source: int) -> bool:
        """Deterministic staleness test for an incoming message."""
        with self._mv_lock:
            annotate_read(self, "membership.state")
            return source in self._dead or epoch < self._epoch

    # -- re-replication queue -----------------------------------------

    @property
    def pending_rereplication(self) -> bool:
        with self._mv_lock:
            annotate_read(self, "membership.state")
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
