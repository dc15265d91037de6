"""Wire protocol between PapyrusKV runtimes (dispatcher ↔ handler).

Three private communicators per database keep runtime traffic invisible
to the application (paper §2.4):

* ``srv``  — requests to the owner rank's message handler;
* ``rsp``  — synchronous responses (remote get results, table fetches,
  and the ack of a ``sync`` :class:`PairsMsg`, whose sender is blocked
  on it);
* ``ack``  — asynchronous acknowledgements on two tags: the acks of
  every other :class:`PairsMsg` (``ACK_TAG``, drained at
  fence/barrier/close time) and failure-detector heartbeat pongs
  (``HB_TAG``, drained by the membership tick so they never interleave
  with the ack stream).

The unit of remote work is a batch: puts travel as ``pairs``, gets as
``keys`` answered by parallel ``results``.  A point put/get is a batch
of one — there is no per-key message family, and there is one pair
carrier: migration, synchronous puts, replica fan-out and
re-replication all ship a :class:`PairsMsg` and are acknowledged by an
:class:`AckMsg`.

The protocol is declared once, in :data:`PROTOCOL`: one :class:`Wire`
entry per message class with its tag, its reply and its retryable and
epoch-stamped flags.  :data:`WIRE_TAGS` is derived from it,
:func:`validate` rejects a table that contradicts itself at import, and
the handler's dispatch is checked against :data:`SERVED`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

# message types on the srv comm.  Retired, never reused: 5 (a never-used
# checkpoint marker), 6 and 7 (the per-batch twins of GET / PUT_SYNC,
# folded into them), 1, 2, 9, 11 (MIGRATE, PUT_SYNC, REPLICA_PUT,
# REPLICA_SYNC — the four pair carriers PAIRS replaced), and 12, 13
# (INDEX_PULL, INDEX_PUBLISH — the deleted index-replication plane)
GET = 3           # per-owner remote get request
STOP = 4          # handler shutdown
FETCH_TABLE = 8   # ship a whole SSTable's files (peer rebuild)
HEARTBEAT = 10    # failure-detector ping (pong travels on the ack comm)
PAIRS = 14        # key-value pairs for the receiver's MemTable

# GET reply status
FOUND = 0
NOT_FOUND = 1
NOT_IN_MEMORY = 2  # same storage group: read my SSTables yourself
DEGRADED = 3       # the owner's key range is quarantined (corruption)

#: (key, value, tombstone)
Pair = Tuple[bytes, bytes, bool]

#: one key's get outcome: (status, value-or-None, tombstone)
KeyResult = Tuple[int, Optional[bytes], bool]

_VALUE = itemgetter(1)


@dataclass(slots=True)
class PairsMsg:
    """Key-value pairs for the receiver's local MemTable — the one way a
    pair reaches another rank (§2.4): a relaxed-mode migration chunk, a
    sequential-mode put, a replica fan-out, a re-replication push.

    Applied under the seq-dedup gate, so a retransmit is idempotent,
    and acknowledged by one :class:`AckMsg`.  ``sync`` says the sender is
    blocked on that ack: it travels on the rsp comm under ``tag=seq``
    instead of joining the ack comm's stream.  ``(epoch, dead)`` is the
    sender's membership stamp (``(0, ())`` without replication); a
    receiver whose view is newer — or that holds the sender dead —
    rejects a non-``sync`` message with ``applied=False`` so the writer
    re-routes against the current group.  A ``sync`` message under
    replication is a re-replication push: valid data whatever its epoch,
    never rejected.
    """

    pairs: List[Pair]
    seq: int
    epoch: int = 0
    dead: Tuple[int, ...] = ()
    sync: bool = False

    def wire_nbytes(self) -> int:
        """Wire size: header + membership stamp + every pair."""
        return 24 + 4 * len(self.dead) + sum(
            len(k) + len(v) + 9 for k, v, _ in self.pairs
        )


@dataclass(slots=True)
class GetMsg:
    """Remote get request: every key one call needs from one owner,
    answered by a single :class:`GetReply`."""

    keys: List[bytes]
    requester_group: int
    seq: int
    #: force the owner to return value bytes even within a storage group
    #: (fallback when a shared-SSTable read raced a compaction)
    force_data: bool = False

    def wire_nbytes(self) -> int:
        """Wire size: routing metadata plus every key."""
        return 24 + 4 * len(self.keys) + sum(map(len, self.keys))


@dataclass(slots=True)
class GetReply:
    """Remote get response, parallel to the request's key list."""

    results: List[KeyResult]
    seq: int
    #: set when any key answered NOT_IN_MEMORY: where the requester
    #: should read the shared SSTables (§2.7 shortcut)
    owner_dir: Optional[str] = None
    #: newest flushed SSID at reply time (peer-listing handshake)
    newest_ssid: int = 0

    def wire_nbytes(self) -> int:
        """Wire size: per-key status bytes plus the value payloads."""
        values = filter(None, map(_VALUE, self.results))
        return 24 + 9 * len(self.results) + sum(map(len, values))


@dataclass(slots=True)
class FetchTableMsg:
    """Ask a storage-group peer to ship an SSTable's three files.

    Used by the recovery ladder: when a rank's own reads of a table
    fail (transient device fault), a peer that reaches the same storage
    through its own path reads the files and ships the bytes back.
    """

    directory: str
    ssid: int
    seq: int

    def wire_nbytes(self) -> int:
        """Wire size of a fetch request."""
        return 24 + len(self.directory)


@dataclass(slots=True)
class FetchTableReply:
    """The shipped SSTable files, or ``None`` if the peer failed too."""

    blobs: Optional[Dict[str, bytes]]
    seq: int

    def wire_nbytes(self) -> int:
        """Wire size: the three shipped files dominate."""
        blobs = self.blobs or {}
        return 16 + sum(len(b) for b in blobs.values())


@dataclass(slots=True)
class HeartbeatMsg:
    """Failure-detector ping, also the carrier of membership gossip.

    ``ping=True`` requests a pong (an :class:`AckMsg` on the ack comm's
    heartbeat tag); ``ping=False`` is pure gossip.
    """

    epoch: int
    dead: Tuple[int, ...] = ()
    ping: bool = True

    def wire_nbytes(self) -> int:
        """Wire size of a heartbeat."""
        return 24 + 4 * len(self.dead)


@dataclass(slots=True)
class AckMsg:
    """The acknowledgement of a :class:`PairsMsg` (ack comm, or rsp comm
    for a ``sync`` one) and the heartbeat pong (ack comm, heartbeat tag,
    ``seq=0``).  Carries the replier's membership stamp so liveness and
    epoch news piggyback on every exchange; ``applied=False`` means the
    pairs were rejected as stale and must be re-routed."""

    seq: int
    epoch: int = 0
    dead: Tuple[int, ...] = ()
    applied: bool = True

    def wire_nbytes(self) -> int:
        """Wire size of an acknowledgement."""
        return 24 + 4 * len(self.dead)


@dataclass(slots=True)
class StopMsg:
    """Shut the handler thread down (database close)."""

    def wire_nbytes(self) -> int:
        """Wire size of the shutdown sentinel."""
        return 8


class Wire(NamedTuple):
    """One message class on the wire.

    ``reply`` is the class whose arrival completes the sender's wait
    (``None``: fire-and-forget).  A ``retryable`` message is
    retransmitted on timeout, so it carries ``seq`` and is applied
    under the handler's seq-dedup gate (``Database._already_applied``,
    paper §2.4).  A ``stamped`` one carries the sender's ``(epoch,
    dead)`` membership stamp, so stale-epoch traffic is rejected.
    """

    cls: type
    tag: int
    reply: Optional[type] = None
    retryable: bool = False
    stamped: bool = False


#: Tags from here up are replies (rsp/ack comms); below are requests
#: (srv comm), which reuse their dispatch constants.
REPLY_BASE = 100

#: The wire protocol.  A tag, once assigned, must never change or be
#: reused: checkpoint manifests and fault plans written by old runs
#: identify messages by these (retired: 1, 2, 5, 6, 7, 9, 11, 12, 13
#: and replies 101, 104, 105).
PROTOCOL: Tuple[Wire, ...] = (
    # reads are idempotent: no dedup needed, always answered
    Wire(GetMsg, GET, GetReply),
    Wire(FetchTableMsg, FETCH_TABLE, FetchTableReply),
    # shutdown sentinel: consumed by the handler loop itself
    Wire(StopMsg, STOP),
    # failure detector: the ping carries gossip, the pong is an AckMsg
    Wire(HeartbeatMsg, HEARTBEAT, AckMsg, stamped=True),
    # the one pair carrier (migration, sync puts, replica fan-out,
    # re-replication): a retried mutation, seq-dedup, always stamped
    Wire(PairsMsg, PAIRS, AckMsg, retryable=True, stamped=True),
    Wire(GetReply, 100),
    Wire(FetchTableReply, 102),
    Wire(AckMsg, 103, stamped=True),
)


def validate(protocol: Sequence[Wire]) -> None:
    """Raise ``TypeError`` where ``protocol`` contradicts itself: a
    duplicate tag, a retryable class without ``seq``, a stamped class
    without ``epoch``/``dead``, a declared reply that is not a reply
    entry, or a reply entry no request declares."""
    seen: Dict[int, str] = {}
    for w in protocol:
        name = w.cls.__name__
        if w.tag in seen:
            raise TypeError(f"wire tag {w.tag} assigned to both"
                            f" {seen[w.tag]} and {name}")
        seen[w.tag] = name
        fields = set(getattr(w.cls, "__dataclass_fields__", ()))
        if w.retryable and "seq" not in fields:
            raise TypeError(f"{name} is retryable but carries no seq:"
                            " a retransmit cannot be deduplicated")
        if w.stamped and not {"epoch", "dead"} <= fields:
            raise TypeError(f"{name} is stamped but lacks epoch/dead:"
                            " stale-epoch traffic cannot be rejected")
    replies = {w.cls for w in protocol if w.tag >= REPLY_BASE}
    declared = {w.reply for w in protocol if w.reply is not None}
    if declared - replies:
        raise TypeError(f"{_names(declared - replies)} declared as"
                        " replies but not on the wire as replies")
    if replies - declared:
        raise TypeError(f"replies {_names(replies - declared)} are"
                        " declared by no request")


def _names(classes: Set[type]) -> List[str]:
    return sorted(cls.__name__ for cls in classes)


validate(PROTOCOL)

#: class name -> wire tag, derived from :data:`PROTOCOL`
WIRE_TAGS: Dict[str, int] = {w.cls.__name__: w.tag for w in PROTOCOL}

#: the requests the handler serves (its loop consumes ``StopMsg``)
SERVED: FrozenSet[type] = frozenset(
    w.cls for w in PROTOCOL if w.tag < REPLY_BASE and w.cls is not StopMsg
)
