"""The replication plane (``Options(replicas > 1)``): replica groups,
commit windows, failure detection and re-replication.

PapyrusKV places each key on its hash owner (§2.3–2.4).  With
``replicas = R > 1`` a key lives on a **replica group** instead — its
hash owner and the live ranks after it on the ring, ``R`` at most, the
**acting primary** first (:meth:`Replication.group`).  A
:class:`~repro.core.db.Database` builds its :class:`Replication`
(``db.repl``) only when ``R > 1`` and checks that one reference once at
each entry point; nothing here asks whether replication is on.

Rank main runs the commit window (:meth:`~Replication.write`: stage,
ship one ``PairsMsg`` per target, settle the quorum debts), the failure
detector (:meth:`~Replication.tick`), re-replication
(:meth:`~Replication.rereplicate`) and replicated gets
(:meth:`~Replication.get`); the handler asks the epoch gates
(:meth:`~Replication.stale`, :meth:`~Replication.hears`) and sends the
ack or pong itself.  The plane reaches the database only through the
calls it makes of it: the sender and its ledger (``_send_pairs``,
``_drain_acks``, ``_settled``, ``_settle_target``), the get walks
(``_local_get``, ``_remote_get``, ``_search_inflight``),
``_local_insert`` and ``_drop_peer_cache`` (docs/replication.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import config
from repro.core import messages as msg
from repro.core.db import GROUP_COMMIT_INTERVAL, Database, GetResult, _Unacked
from repro.core.membership import (
    DEAD_TIMEOUT,
    HEARTBEAT_INTERVAL,
    MembershipView,
)
from repro.core.scan import ScanIterator
from repro.errors import CorruptionError, QuorumLostError, RemoteTimeoutError
from repro.mpi.comm import ANY_SOURCE

#: ack-comm tag of heartbeat pongs: apart from ACK_TAG, so pongs never
#: interleave with the ack stream the quorum/fence drains consume
HB_TAG = 8
#: pairs per re-replication push, each acked before the next leaves
PUSH_CHUNK = 256
#: wall-clock bound on a push's ack when ``Options.remote_timeout`` is
#: unset: a push must notice a second death mid-pass
PUSH_TIMEOUT = 0.25


class Replication:
    """Rank main's replication state for one database on one rank."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.rank = db.rank
        self._owner_of = db.owner_of
        self._quorum = db.options.write_quorum
        #: who is alive, and the group table read off it
        self.membership = MembershipView(db.rank, db.nranks,
                                         db.options.replicas)
        #: the open commit window, key -> pair in put order: not on the
        #: wire yet, so not in the ledger; served to this rank's gets
        #: (``inflight``).  And the epoch it was inserted locally under
        self.staged: Dict[bytes, msg.Pair] = {}
        self.staged_epoch = 0
        #: the last shipped window's quorum debts, (seqs, need) per
        #: distinct group: settled by the next boundary and by fence
        self.quorum_due: List[Tuple[List[int], int]] = []
        #: virtual time of the last ping per peer, of the first unanswered
        self.hb_last: Dict[int, float] = {}
        self.hb_ping: Dict[int, float] = {}
        #: a re-replication push must not recurse into the detector
        self.in_rerepl = False

    # ------------------------------------------------------------ routing
    def group(self, key: bytes, check: bool = True) -> List[int]:
        """The key's replica group, the acting primary first: the hash
        owner's row of the view's group table, which walks the ring from
        ``owner_of(key)`` over live ranks once per epoch (after a single
        death the primary is a pre-death member: the ring only shifts).
        Never empty — this rank is alive — and shared until the next
        epoch: never mutate it.  With ``check`` a group short of the
        write quorum raises :class:`QuorumLostError`.
        """
        group = self.membership.snapshot.groups[self._owner_of(key)]
        if check and len(group) < self._quorum:
            raise QuorumLostError(
                f"only {len(group)} live replica(s) for key {key!r}; "
                f"write quorum is {self._quorum}"
            )
        return group

    # ------------------------------------------------------ commit window
    def write(self, pairs: List[msg.Pair], opens: bool,
              window_t0: float) -> None:
        """A replicated write (:meth:`Database._write`): a call that
        opens a commit window ships the one it closes, then stages its
        pairs.  Sequential mode is a window of one call, acknowledged on
        return."""
        if opens:
            self.close_window()
        self.stage(pairs)
        if self.db.consistency == config.SEQUENTIAL:
            self.close_window()
        self.tick(window_t0)  # after staging: an aged window ships whole

    def stage(self, pairs: List[msg.Pair]) -> None:
        """Place replicated pairs in the open commit window: inserted
        locally where this rank is a member of the key's group, staged
        for the other members until the window closes.

        Every group is resolved before anything is written, so a lost
        quorum raises with no pair half-placed.  A key rewritten inside
        the window travels once, with its last value.
        """
        db = self.db
        mine = [pair for pair in pairs if self.rank in self.group(pair[0])]
        if not self.staged:
            self.staged_epoch = self.membership.epoch
        db.stats.local_puts += len(mine)
        db.stats.remote_puts += len(pairs) - len(mine)
        db._local_insert(mine, db.clock)
        self.staged.update((pair[0], pair) for pair in pairs)

    def ship_window(self) -> None:
        """Put the staged window on the wire: one ``PairsMsg`` per
        target (:meth:`Database._send_pairs`), one quorum debt per
        distinct group.

        Groups are resolved here, against the view current *now* — a
        death that landed while the window was open re-places the pairs
        instead of shipping them to a stale group (and inserts them
        locally where the ring shift made this rank a member).  ``seqs``
        of a debt are the sends that carry the group's pairs, ``need``
        how many of their acks the quorum still requires after counting
        a local insert.
        """
        if not self.staged:
            return
        db = self.db
        staged, self.staged = self.staged, {}
        moved = self.membership.epoch != self.staged_epoch
        fan: Dict[int, Dict[bytes, msg.Pair]] = {}
        groups: Set[Tuple[int, ...]] = set()
        joined: List[msg.Pair] = []
        for pair in staged.values():
            group = self.group(pair[0], check=False)
            groups.add(tuple(group))
            for r in group:
                if r != self.rank:
                    fan.setdefault(r, {})[pair[0]] = pair
                elif moved:
                    joined.append(pair)
        db._local_insert(joined, db.clock)
        seq_of = db._send_pairs(fan)
        db.stats.replica_msgs += len(fan)
        db.stats.replica_pairs += sum(map(len, fan.values()))
        for group in groups:
            seqs = [seq_of[r] for r in group if r != self.rank]
            need = self._quorum - (self.rank in group)
            self.quorum_due.append((seqs, min(need, len(seqs))))

    def close_window(self) -> None:
        """A commit-window boundary: ship the window that just closed,
        then settle the quorum debts of the one shipped before it — its
        members applied that batch while this rank filled the next, so
        the wait is short.  Sequential mode, where a window is one call
        and acknowledged on return, also settles the debts just booked.
        With nothing staged there is no boundary: the debts wait for
        the next one.

        A seq settles when its ack arrives, when a rejected batch was
        re-fanned under fresh seqs (the fence drains those), or when its
        target was declared dead (the membership change plus
        re-replication restore the copy count) — the latter two release
        the waiter so a death can never wedge an acknowledged put.
        """
        if not self.staged:
            return
        db = self.db
        due, self.quorum_due = self.quorum_due, []
        self.ship_window()
        if db.consistency == config.SEQUENTIAL:
            due, self.quorum_due = due + self.quorum_due, []
        for seqs, need in due:
            while db._settled(seqs) < need:
                db._drain_acks(blocking=True, at_most=1)

    def fence(self) -> None:
        """Ship the open window and drain every ack (the fence)."""
        self.ship_window()
        self.db._drain_acks(blocking=True)
        self.quorum_due = []  # drained above: the ledger is empty

    def absorb_ack(self, ack: msg.AckMsg,
                   entry: Optional[_Unacked]) -> None:
        """Merge an ack's gossip; re-route a rejection of ``entry``, the
        ledger entry the ack settled (None: settled already).

        ``applied=False``: the receiver held our stamp stale.  Merge its
        newer view, then re-fan the rejected pairs to the *current*
        groups under fresh seqs — they reach every live member, and the
        fence drains them too.
        """
        self.membership.merge(ack.epoch, ack.dead)
        if entry is not None and not ack.applied:
            # what a later put staged is newer than what comes back
            self.stage([pair for key, pair in entry.pairs.items()
                        if key not in self.staged])
            self.ship_window()

    # --------------------------------------------------- failure detector
    def tick(self, window_t0: float) -> None:
        """Failure-detector maintenance, on every put/get and
        :meth:`Database.tick`: ship a window opened at ``window_t0`` and
        older than ``GROUP_COMMIT_INTERVAL``, absorb pongs, ping peers
        silent for ``HEARTBEAT_INTERVAL``, declare one dead only when
        its oldest unanswered ping passed the *virtual*
        ``DEAD_TIMEOUT`` AND it stays silent through a *wall-clock*
        grace receive (a live handler pongs at once, so kill tests are
        deterministic), then push pending re-replication.
        """
        if self.in_rerepl:
            return
        db, mv = self.db, self.membership
        now = db.clock.now
        if now - window_t0 >= GROUP_COMMIT_INTERVAL:
            self.close_window()  # this rank stopped writing mid-window
        while db.ack_comm.iprobe(ANY_SOURCE, HB_TAG):
            status: dict = {}
            pong = db.ack_comm.recv(ANY_SOURCE, HB_TAG, status=status)
            self._absorb_pong(pong, status["source"])
        for r in mv.alive_ranks():
            if r == self.rank:
                continue
            silence = now - mv.last_heard(r)
            if silence < HEARTBEAT_INTERVAL:
                self.hb_ping.pop(r, None)
                continue
            if now - self.hb_last.get(r, -1.0) >= HEARTBEAT_INTERVAL:
                epoch, dead = mv.wire()
                db.srv_comm.send(
                    msg.HeartbeatMsg(epoch, dead, ping=True), r, tag=0
                )
                db.stats.heartbeats_sent += 1
                self.hb_last[r] = now
                self.hb_ping.setdefault(r, now)
            if (silence >= DEAD_TIMEOUT
                    and now - self.hb_ping.get(r, now) >= DEAD_TIMEOUT):
                self._grace_then_declare(r)
        if mv.pending_rereplication:
            self.rereplicate()

    def _absorb_pong(self, pong: msg.AckMsg, source: int) -> None:
        """One heartbeat pong: proof of life plus membership gossip."""
        mv = self.membership
        if mv.is_dead(source):
            return
        mv.merge(pong.epoch, pong.dead)
        mv.heard_from(source, self.db.clock.now)
        self.hb_ping.pop(source, None)

    def _grace_then_declare(self, rank: int) -> None:
        """The virtual timeouts expired: give the peer *real* time to
        pong (a live handler does within microseconds) and declare it
        dead only if it stays silent."""
        db = self.db
        grace = db.options.remote_timeout or 0.05
        while rank in self.hb_ping:
            try:
                status: dict = {}
                pong = db.ack_comm.recv(
                    ANY_SOURCE, HB_TAG, timeout=grace, status=status
                )
            except TimeoutError:
                break
            self._absorb_pong(pong, status["source"])
        if rank in self.hb_ping:
            self.declare_dead(rank)

    def declare_dead(self, rank: int) -> None:
        """Declare a silent rank dead and release what waits on it —
        also when the death is old news (gossip cleans up nothing).
        Idempotent; the next tick re-replicates around it."""
        if self.membership.declare_dead(rank):
            self.db.stats.rank_deaths += 1
        self.forget_dead_rank(rank)

    def forget_dead_rank(self, rank: int) -> None:
        """Drop what waits on, or was cached from, a dead rank: its
        sends settle (their pairs live on the surviving members) and its
        SSTable view goes.  Idempotent; runs for deaths this rank
        declared and, from :meth:`rereplicate`, learned by gossip."""
        self.hb_ping.pop(rank, None)
        self.hb_last.pop(rank, None)
        self.db._settle_target(rank)
        self.db._drop_peer_cache(rank)

    # --------------------------------------------------- re-replication
    def rereplicate(self) -> None:
        """Restore the replication factor after a death: every key whose
        group this rank now heads (it held the data before — the ring
        only shifts) goes to the other members in chunked ``sync``
        sends, each acked before the next; a member that dies mid-push
        is declared dead and the next pass goes around it.

        The walk is a pinned :class:`ScanIterator` keeping tombstones (a
        delete must not resurrect on the new replica).  Behind a
        quarantined table the scan refuses, nothing is pushed and the
        pass stays pending.
        """
        if self.in_rerepl:
            return
        mv, db = self.membership, self.db
        self.in_rerepl = True
        try:
            newly_dead = mv.take_pending_rereplication()
            if not newly_dead:
                return
            for r in newly_dead:
                self.forget_dead_rank(r)
            targets: Dict[int, List[msg.Pair]] = {}
            try:
                with ScanIterator(db, include_replicas=True,
                                  tombstones=True) as walk:
                    for pair in walk:
                        group = self.group(pair[0], check=False)
                        if group[0] != self.rank:
                            continue
                        for r in group[1:]:
                            targets.setdefault(r, []).append(pair)
            except CorruptionError:
                # pushing around the hole could overwrite a healthy
                # member's newer version with an older one from here
                mv.put_back_rereplication(newly_dead)
                return
            for target in sorted(targets):
                pairs = targets[target]
                for i in range(0, len(pairs), PUSH_CHUNK):
                    part = pairs[i:i + PUSH_CHUNK]
                    db._send_pairs({target: {p[0]: p for p in part}},
                                   sync=True, timeout=PUSH_TIMEOUT)
                    if mv.is_dead(target):
                        # a second death mid-push: the stalled send
                        # declared it, the next tick re-replicates
                        # around it
                        break
                    db.stats.rereplicated_pairs += len(part)
        finally:
            self.in_rerepl = False

    # --------------------------------------------------------------- gets
    def get(self, keys: List[bytes]
            ) -> Tuple[Dict[bytes, Optional[GetResult]], int]:
        """Replicated gets (:meth:`Database._read`); returns the results
        and the messages sent.  The staged and inflight tiers first, then
        rounds of one :meth:`Database._local_get` for the keys this rank
        holds and one :meth:`Database._remote_get` for the rest, one
        ``GetMsg`` per member asked, scattered at once.

        A key is asked of this rank if its group holds it, else of the
        acting primary.  A member that times out is declared dead and
        the round asked again, its keys re-routed.  After any death
        (``epoch > 0``) a miss is asked of the group's other live
        members in turn before it is believed: a promoted member may
        lack its re-replication push yet, and every member applied an
        acked tombstone.  Any one live replica serves a get: the groups
        are taken without the quorum check, and are never empty (this
        rank is alive).
        """
        db, mv = self.db, self.membership
        found: Dict[bytes, Optional[GetResult]] = {}
        # key -> the members that answered it a miss
        missed: Dict[bytes, Set[int]] = {}
        for key in keys:
            pair = self.staged.get(key)
            if pair is not None:
                found[key] = (None if pair[2]
                              else GetResult(pair[1], "inflight"))
                continue
            pair, tier = db._search_inflight(key)
            if pair is None:
                missed[key] = set()
            else:
                found[key] = None if pair[2] else GetResult(pair[1], tier)
        msgs = 0
        while missed:
            local: List[bytes] = []
            remote: Dict[int, List[bytes]] = {}
            for key, asked in list(missed.items()):
                # the group as it stands after every declaration so far
                group = self.group(key, check=False)
                if not asked and self.rank in group:
                    local.append(key)
                    continue
                rest = [r for r in group
                        if r not in asked and r != self.rank]
                if not rest:  # every live member missed: believe it
                    found[key] = None
                    del missed[key]
                    continue
                remote.setdefault(rest[0], []).append(key)
                if asked:
                    db.stats.failover_gets += 1
                else:
                    db.stats.remote_gets += 1
            db.stats.local_gets += len(local)
            results = [(self.rank, local,
                        db._local_get(local) if local else {})]
            try:
                got, n = db._remote_get(remote) if remote else ({}, 0)
            except RemoteTimeoutError as e:
                # the scattered asks are void: declare the silent member
                # dead and ask again around it
                db.stats.failover_gets += len(remote[e.rank])
                self.declare_dead(e.rank)
                got, n, remote = {}, 0, {}
            msgs += n
            results += [(r, part, got) for r, part in remote.items()]
            for by, part, answers in results:
                for key in part:
                    result = answers.get(key)
                    if result is not None or mv.epoch == 0:
                        found[key] = result
                        del missed[key]
                    else:
                        missed[key].add(by)
        return found, msgs

    # ----------------------------------------------------- handler gates
    def stale(self, m: msg.PairsMsg, source: int) -> bool:
        """The handler's epoch gate: True rejects a carrier stamped with
        an older epoch or sent by a rank this view holds dead, so the
        writer re-routes; a ``sync`` one (a re-replication push) is
        valid whatever its epoch.  Merges the gossip of one let in."""
        mv = self.membership
        if not m.sync and mv.is_stale(m.epoch, source):
            self.db.stats.epoch_rejections += 1
            return True
        mv.merge(m.epoch, m.dead)
        return False

    def hears(self, m: msg.HeartbeatMsg, source: int) -> bool:
        """Merge a heartbeat's gossip; False for a zombie's (no pong)."""
        mv = self.membership
        if mv.is_dead(source):
            return False
        mv.merge(m.epoch, m.dead)
        return True
