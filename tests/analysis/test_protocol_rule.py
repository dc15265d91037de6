"""The wire protocol is one table, :data:`repro.core.messages.PROTOCOL`.

:func:`~repro.core.messages.validate` rejects a table that contradicts
itself, ``handler._check_dispatch`` rejects a dispatch that does not
serve exactly the table's requests, each served request builds its
declared reply, and pkvlint R006 keeps the one clause no table can
express: the handler never sends on the request comm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro import Options, Papyrus
from repro.analysis.pkvlint import lint_file
from repro.config import SSTABLE
from repro.core import handler
from repro.core import messages as msg
from repro.core.db import ACK_TAG
from repro.core.replication import HB_TAG
from repro.core.messages import Wire, validate
from repro.mpi.comm import AbortedError
from repro.mpi.launcher import spmd_run
from repro.simtime.clock import VirtualClock


@dataclass
class PutMsg:
    pairs: list
    seq: int
    epoch: int = 0
    dead: Tuple[int, ...] = ()


@dataclass
class PutAck:
    seq: int
    epoch: int = 0
    dead: Tuple[int, ...] = ()


@dataclass
class ReadMsg:
    keys: list
    seq: int


@dataclass
class ReadReply:
    results: list
    seq: int


@dataclass
class PublishMsg:
    entries: tuple
    epoch: int = 0
    dead: Tuple[int, ...] = ()


TABLE: List[Wire] = [
    Wire(PutMsg, 1, PutAck, retryable=True, stamped=True),
    Wire(ReadMsg, 2, ReadReply),
    Wire(PublishMsg, 3, stamped=True),
    Wire(ReadReply, 100),
    Wire(PutAck, 101, stamped=True),
]


def _with(entry, **changes) -> List[Wire]:
    """TABLE with the entry for class ``entry`` changed."""
    return [w._replace(**changes) if w.cls is entry else w for w in TABLE]


def _without_field(cls, name):
    """A dataclass like ``cls`` without field ``name``."""
    fields = {k: v for k, v in cls.__annotations__.items() if k != name}
    return dataclass(type(cls.__name__, (), {"__annotations__": fields}))


class TestTable:
    def test_fixture_table_is_valid(self):
        validate(TABLE)

    def test_constant_references_resolve(self):
        # the same 8 names and numbers as before the table; requests
        # reuse their dispatch constants
        assert msg.WIRE_TAGS == {
            "GetMsg": 3, "FetchTableMsg": 8, "StopMsg": 4,
            "HeartbeatMsg": 10, "PairsMsg": 14,
            "GetReply": 100, "FetchTableReply": 102, "AckMsg": 103,
        }
        assert [msg.WIRE_TAGS[n] for n in (
            "GetMsg", "FetchTableMsg", "StopMsg", "HeartbeatMsg",
            "PairsMsg")] == [msg.GET, msg.FETCH_TABLE, msg.STOP,
                             msg.HEARTBEAT, msg.PAIRS]

    def test_duplicate_tag_flags(self):
        with pytest.raises(TypeError, match="wire tag 2 assigned to both"):
            validate(_with(PublishMsg, tag=2))

    def test_orphan_reply_class_flags(self):
        with pytest.raises(TypeError, match="ReadReply.*declared by no"):
            validate(_with(ReadMsg, reply=None))


class TestCoverage:
    def test_real_tree_covers_every_wire_tag(self):
        # every request on the wire has exactly one arm, but StopMsg,
        # which the handler loop consumes
        serve = handler._dispatch()
        handler._check_dispatch(serve)
        requests = {w.cls for w in msg.PROTOCOL if w.tag < msg.REPLY_BASE}
        assert set(serve) | {msg.StopMsg} == requests
        assert set(msg.WIRE_TAGS) == {w.cls.__name__ for w in msg.PROTOCOL}

    def test_unknown_message_aborts_the_world(self):
        # an object no arm serves aborts the run at once: the rank
        # blocked on a reply sees AbortedError, not the launcher's timeout
        def app(ctx):
            db = Papyrus(ctx).open("d", Options())
            db.srv_comm.send(object(), db.rank, tag=0)
            try:
                db.rsp_comm.recv(source=db.rank, tag=990_001)
            except AbortedError:
                return "aborted"

        assert spmd_run(1, app, timeout=30) == ["aborted"]


class TestRetryable:
    def test_retryable_without_seq_field(self):
        bare = _without_field(PutMsg, "seq")
        with pytest.raises(TypeError, match="PutMsg is retryable"):
            validate(_with(PutMsg, cls=bare))

    def test_retryable_arm_without_dedup_gate(self):
        # a retransmit (same source, same seq) is re-acked, not re-applied
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("d", Options())
                for value in (b"first", b"retransmit"):
                    m = msg.PairsMsg([(b"k", value, False)], seq=990_001)
                    handler._serve_pairs(
                        db, m, db.rank, VirtualClock(start=db.clock.now),
                        db.ctx.system.cpu)
                    ack = db.ack_comm.recv(source=db.rank, tag=ACK_TAG)
                    assert ack.seq == m.seq and ack.applied
                value = db.get(b"k")
                db.close()
                return value

        assert spmd_run(1, app) == [b"first"]


class TestEpochStamping:
    def test_stamped_class_missing_fields(self):
        bare = _without_field(_without_field(PublishMsg, "epoch"), "dead")
        with pytest.raises(TypeError, match="PublishMsg is stamped"):
            validate(_with(PublishMsg, cls=bare))

    def test_replica_batch_missing_epoch_only(self):
        # the pair carrier's shape: seq and dead kept, epoch gone
        bare = _without_field(PutMsg, "epoch")
        with pytest.raises(TypeError, match="PutMsg is stamped"):
            validate(_with(PutMsg, cls=bare))


class TestRequestReply:
    def test_declared_reply_not_on_wire(self):
        # PublishMsg names a request, not a reply, as its answer
        with pytest.raises(TypeError, match="PublishMsg.*not on the wire"):
            validate(_with(ReadMsg, reply=PublishMsg))

    def test_missing_dispatch_arm(self):
        serve = handler._dispatch()
        del serve[msg.FetchTableMsg]
        with pytest.raises(TypeError, match="unserved.*FetchTableMsg"):
            handler._check_dispatch(serve)

    def test_handler_arm_for_untagged_class(self):
        serve = handler._dispatch()
        serve[PutMsg] = handler._serve_pairs
        with pytest.raises(TypeError, match="untagged.*PutMsg"):
            handler._check_dispatch(serve)

    def test_reply_never_constructed(self):
        # every served request, run through its arm, answers with the
        # reply class the table declares for it
        def app(ctx):
            opts = Options(replicas=2, write_quorum=1)
            with Papyrus(ctx) as env:
                db = env.open("d", opts)
                db.put(b"k", b"v")
                db.barrier(SSTABLE)
                got = {}
                if ctx.world_rank == 0:
                    epoch, dead = db.repl.membership.wire()
                    requests = [
                        (msg.PairsMsg([(b"k", b"w", False)], 990_001,
                                      epoch, dead, sync=True),
                         db.rsp_comm, 990_001),
                        (msg.GetMsg([b"k"], -1, 990_002), db.rsp_comm,
                         990_002),
                        (msg.FetchTableMsg(db.rank_dir, db.ssids[-1],
                                           990_003), db.rsp_comm, 990_003),
                        (msg.HeartbeatMsg(epoch, dead), db.ack_comm,
                         HB_TAG),
                    ]
                    serve = handler._dispatch()
                    for m, comm, tag in requests:
                        serve[type(m)](db, m, db.rank,
                                       VirtualClock(start=db.clock.now),
                                       db.ctx.system.cpu)
                        got[type(m)] = type(comm.recv(source=db.rank,
                                                      tag=tag))
                db.barrier()
                db.close()
                return got

        got = spmd_run(2, app)[0]
        assert set(got) == msg.SERVED
        for w in msg.PROTOCOL:
            if w.cls in got:
                assert got[w.cls] is w.reply, w.cls


HANDLER = """\
def _serve(db, m, source):
    db.ack_comm.send(Ack(m.seq), source)


def pump(db):
    return db.srv_comm.recv()
"""


def _lint_handler(tmp_path, src):
    path = tmp_path / "handler.py"
    path.write_text(src)
    return [f for f in lint_file(str(path)) if f.rule == "R006"]


class TestRequestCommDirection:
    def test_handler_send_on_request_comm_flags(self, tmp_path):
        # a handler answering on the request comm can rendezvous-deadlock
        # two peers
        fs = _lint_handler(tmp_path, HANDLER.replace(
            "db.ack_comm.send", "db.srv_comm.send"))
        assert any("sends on the request comm" in f.message
                   and "srv_comm.send" in f.message for f in fs)

    def test_recv_on_request_comm_is_fine(self, tmp_path):
        assert _lint_handler(tmp_path, HANDLER) == []
