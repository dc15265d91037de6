"""The message handler thread.

"In each target rank, the message handler thread receives the request
messages from the source rank" (paper §2.4).  One handler runs per rank
per open database, on its own virtual timeline: a request arriving at
time *a* begins service at ``max(a, handler-busy-until)``, which gives
handler queueing exactly the server semantics the real thread has.

The handler serves every request of :data:`repro.core.messages.PROTOCOL`
with one dict lookup, class → ``_serve_*`` (:func:`_dispatch`, checked
against :data:`~repro.core.messages.SERVED` at import); a served
request's trace span is named (:func:`_span`) only while a tracer is
attached.  The requests come in three families:

* **writes** — ``PairsMsg``: a relaxed-mode migration chunk, a
  sequential-mode put, a replica fan-out or a re-replication push.  Its
  ``pairs`` go into the local MemTable (:func:`_serve_pairs`) and one
  ``AckMsg`` goes back — on the rsp comm to a sender that is blocked
  on it (``sync``), on the ack comm otherwise;
* **reads** — ``GetMsg``: the owner's own get procedure
  (``Database._local_get``'s memory and SSTable phases) run on behalf
  of a remote rank, one ``GetReply`` for the whole key list, honouring
  the storage-group shortcut (§2.7): if the requester shares this
  rank's NVM and a pair is not in memory, answer NOT_IN_MEMORY so the
  requester reads the SSTables itself — the one way a rank reads
  another rank's tables;
* **maintenance** — ``HeartbeatMsg`` (pong on the ack comm's heartbeat
  tag), ``FetchTableMsg`` (ship an SSTable's files to a storage-group
  peer climbing its recovery ladder) and ``StopMsg``.

Mutating requests carry rank-unique sequence numbers and are
deduplicated (``db._already_applied``): when a timed-out requester
retransmits, the replayed message re-acks without re-applying, so
retries are idempotent.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core import messages as msg
from repro.core.db import ACK_TAG, Database
from repro.core.replication import HB_TAG
from repro.errors import CorruptionError
from repro.faults import RankKilledError
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, AbortedError
from repro.mpi.launcher import RankContext, bind_context
from repro.simtime.clock import VirtualClock


def handler_main(db: Database) -> None:
    """Entry point of the per-database handler thread."""
    main_ctx = db.ctx
    hclock = VirtualClock(
        start=main_ctx.clock.now, label=f"handler-{db.name}-r{db.rank}"
    )
    hctx = RankContext(
        world_rank=main_ctx.world_rank,
        nranks=main_ctx.nranks,
        clock=hclock,
        comm=main_ctx.comm,
        system=main_ctx.system,
        machine=main_ctx.machine,
    )
    bind_context(hctx)
    cpu = main_ctx.system.cpu
    serve = _dispatch()
    recv = db.srv_comm.recv
    mv = db.repl.membership if db.repl is not None else None
    try:
        while True:
            status: dict = {}
            try:
                m = recv(ANY_SOURCE, ANY_TAG, status=status)
            except (RankKilledError, AbortedError):
                # RankKilledError: this rank was killed by the fault
                # plane — its handler dies with it, quietly
                return
            source = status["source"]
            if mv is not None:
                # every message is proof of life (piggybacked detection)
                mv.heard_from(source, hclock.now)
            if type(m) is msg.StopMsg:
                return
            try:
                fn = serve[type(m)]
            except KeyError:
                raise TypeError(
                    f"handler got unexpected message {m!r}") from None
            t_service = hclock.advance(cpu.kv_op_s)  # request decode
            fn(db, m, source, hclock, cpu)
            if db._tracer is not None:
                db._trace(_span(m), "handler", t_service, hclock.now)
    except (RankKilledError, AbortedError):  # killed / torn down mid-service
        return
    except BaseException:
        # a dying handler would otherwise hang every rank that sends
        # this shard a request — abort the run loudly instead
        import traceback

        traceback.print_exc()
        db.srv_comm.abort_world()
        # swallowed after aborting: the blocked main ranks surface the
        # failure as AbortedError/RankFailure with this traceback on
        # stderr; re-raising here would only trip the thread-exception
        # hook a second time
    finally:
        from repro.analysis.runtime import get_detector

        det = get_detector()
        if det is not None:
            det.finalize_thread()  # publish the clock for the join edge
        bind_context(None)


def _apply_pairs(db: Database, pairs: List[msg.Pair],
                 hclock: VirtualClock, cpu) -> None:
    """Insert carried pairs into the local MemTable (§2.4) under one
    acquisition of ``db.state``, charging the handler's timeline one op
    plus the payload memcpy per pair as each goes in.  The caller gates
    on ``db._already_applied`` first."""
    def charged():
        for pair in pairs:
            hclock.advance(
                cpu.kv_op_s + len(pair[0] + pair[1]) / cpu.memcpy_Bps)
            yield pair

    db._local_insert(charged(), hclock)


def _serve_pairs(db: Database, m: msg.PairsMsg, source: int,
                 hclock: VirtualClock, cpu) -> None:
    """Apply a carrier's pairs and acknowledge them.

    Under replication the epoch gate (``Replication.stale``) may
    **reject** it (``applied=False``) so the writer re-routes against
    the current group.  Everything else is applied once: the seq-dedup
    gate makes a retransmit a plain re-ack.
    """
    repl = db.repl
    stale = repl is not None and repl.stale(m, source)
    fresh = not stale and not db._already_applied(source, m.seq)
    if fresh:
        _apply_pairs(db, m.pairs, hclock, cpu)
    epoch, dead = 0, ()
    if repl is not None:
        db.stats.replica_pairs_applied += len(m.pairs) if fresh else 0
        epoch, dead = repl.membership.wire()
    ack = msg.AckMsg(m.seq, epoch, dead, applied=not stale)
    if m.sync:
        db.rsp_comm.send(ack, source, tag=m.seq)
    else:
        db.ack_comm.send(ack, source, tag=ACK_TAG)


def _serve_heartbeat(db: Database, m: msg.HeartbeatMsg, source: int,
                     hclock: VirtualClock, cpu) -> None:
    """Merge the sender's membership gossip; pong if it was a ping (only
    a replicated database sends heartbeats; a zombie gets no pong)."""
    repl = db.repl
    if repl.hears(m, source) and m.ping:
        epoch, dead = repl.membership.wire()
        db.ack_comm.send(msg.AckMsg(0, epoch, dead), source, tag=HB_TAG)


def _serve_fetch_table(db: Database, m: msg.FetchTableMsg, source: int,
                       hclock: VirtualClock, cpu) -> None:
    """Ship an SSTable's files to a peer rebuilding its copy.

    The peer validates (and re-verifies after install), so this side
    only best-effort reads the three files; any failure answers
    ``blobs=None`` and the peer climbs to the next recovery rung.
    """
    from repro.errors import StorageError
    from repro.sstable.format import sstable_filenames

    blobs = {}
    t = hclock.now
    try:
        for name in sstable_filenames(m.ssid):
            blob, t = db.store.read(f"{m.directory}/{name}", t)
            blobs[name] = blob
    except StorageError:
        blobs = None
    hclock.advance_to(t)
    db.rsp_comm.send(msg.FetchTableReply(blobs, m.seq), source, tag=m.seq)


def _serve_get(db: Database, m: msg.GetMsg, source: int,
               hclock: VirtualClock, cpu) -> None:
    """One requester's key list through ``Database._local_get``'s two
    phases, one reply for the lot.

    Between the phases sits the §2.7 shortcut: a requester sharing this
    rank's storage group is told NOT_IN_MEMORY for every key that missed
    memory and cache, and reads the SSTables itself (saves the value
    transfer) — unless value bytes were forced, or this rank has
    quarantined tables: the requester cannot see the quarantine list,
    so the owner must answer (or degrade) itself.
    """
    hclock.advance(cpu.kv_op_s * len(m.keys))
    hits, misses, view = db._memory_phase(m.keys, hclock.now)
    shortcut = bool(
        misses
        and not m.force_data
        and m.requester_group == db.group
        and not view.quarantined
        and db.shares_storage_with(source)
    )
    results: List[msg.KeyResult] = []
    for key in m.keys:
        hit = hits.get(key)
        if hit is not None:
            results.append((msg.FOUND, hit[0], hit[1]))
            continue
        if shortcut:
            results.append((msg.NOT_IN_MEMORY, None, False))
            continue
        # different group (or forced): finish the local get and ship the
        # value back over the network
        try:
            rec = db._sstable_phase(key, view, hclock)
        except CorruptionError:
            # this key's range is quarantined (or the table is corrupt):
            # never ship a possibly-stale older version — degrade loudly
            results.append((msg.DEGRADED, None, False))
            continue
        results.append((msg.NOT_FOUND, None, False) if rec is None
                       else (msg.FOUND, rec.value, rec.tombstone))
    db.rsp_comm.send(
        msg.GetReply(
            results, m.seq,
            owner_dir=db.rank_dir if shortcut else None,
            newest_ssid=view.tables[0][0] if shortcut and view.tables else 0,
        ),
        source, tag=m.seq,
    )


def _span(m: object) -> str:
    """The trace span's name of serving request ``m``."""
    if type(m) is msg.PairsMsg:
        return f"serve pairs({len(m.pairs)})"
    if type(m) is msg.GetMsg:
        return f"serve get({len(m.keys)})"
    if type(m) is msg.FetchTableMsg:
        return f"serve fetch_table({m.ssid})"
    if type(m) is msg.HeartbeatMsg:
        return "serve heartbeat"
    return f"serve {type(m).__name__}"


def _dispatch() -> Dict[type, Callable[..., None]]:
    """Request class → the ``_serve_*`` that serves it; read from the
    module when a handler starts."""
    return {
        msg.PairsMsg: _serve_pairs,
        msg.GetMsg: _serve_get,
        msg.FetchTableMsg: _serve_fetch_table,
        msg.HeartbeatMsg: _serve_heartbeat,
    }


def _check_dispatch(serve: Dict[type, Callable[..., None]]) -> None:
    """Raise ``TypeError`` unless ``serve`` covers exactly the requests
    the protocol table says the handler serves: a request without an
    arm hangs its sender, an arm without a tag cannot be on the wire."""
    if set(serve) != msg.SERVED:
        missing = msg.SERVED - set(serve)
        extra = set(serve) - msg.SERVED
        raise TypeError(
            f"handler dispatch does not match the protocol table:"
            f" unserved {sorted(c.__name__ for c in missing)},"
            f" untagged {sorted(c.__name__ for c in extra)}")


_check_dispatch(_dispatch())
