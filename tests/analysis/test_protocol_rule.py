"""R006 — wire-protocol state-machine verification fixtures.

Each fixture writes a ``messages.py`` / ``handler.py`` /
``protocol.py`` triple into a tmp directory and runs
:func:`check_protocol` over it, mirroring how ``lint_paths`` invokes
the rule on ``src/repro/core``.
"""

from __future__ import annotations

import ast
import os
import textwrap

from repro.analysis.protocol import check_protocol

MESSAGES_OK = """
    WIRE_TAGS = {"PutSyncMsg": 1, "AckMsg": 2, "ReplicaPutBatchMsg": 3,
                 "ReplicaAckMsg": 4, "ReplicaPublishMsg": 5}

    class PutSyncMsg:
        pairs: list
        seq: int

    class AckMsg:
        status: int

    class ReplicaPutBatchMsg:
        items: tuple
        seq: int
        epoch: int
        dead: tuple

    class ReplicaAckMsg:
        epoch: int
        dead: tuple

    class ReplicaPublishMsg:
        entries: tuple
        epoch: int
        dead: tuple
"""

HANDLER_OK = """
    def _serve_put(db, m):
        if db._already_applied(m.seq):
            db.rsp_comm.send(AckMsg(0))
            return
        db.rsp_comm.send(AckMsg(0))

    def handle(db, m):
        if isinstance(m, PutSyncMsg):
            _serve_put(db, m)
        elif isinstance(m, ReplicaPutBatchMsg):
            if db._already_applied(m.seq):
                return
            db.ack_comm.send(ReplicaAckMsg(0, ()))
        elif isinstance(m, ReplicaPublishMsg):
            db.index.merge(m.entries)
"""

SPEC_OK = """
    REQUEST_COMM = "srv_comm"
    MESSAGE_SPECS = {
        "PutSyncMsg": {"kind": "request", "retryable": True,
                       "reply": "AckMsg"},
        "AckMsg": {"kind": "reply"},
        "ReplicaPutBatchMsg": {"kind": "request", "retryable": True,
                               "epoch_stamped": True,
                               "reply": "ReplicaAckMsg"},
        "ReplicaAckMsg": {"kind": "reply", "epoch_stamped": True},
        "ReplicaPublishMsg": {"kind": "request", "epoch_stamped": True,
                            "reply": None},
    }
"""


def _run(tmp_path, messages=MESSAGES_OK, handler=HANDLER_OK, spec=SPEC_OK):
    mpath = str(tmp_path / "messages.py")
    src = textwrap.dedent(messages)
    with open(mpath, "w") as f:
        f.write(src)
    if handler is not None:
        with open(tmp_path / "handler.py", "w") as f:
            f.write(textwrap.dedent(handler))
    if spec is not None:
        with open(tmp_path / "protocol.py", "w") as f:
            f.write(textwrap.dedent(spec))
    return check_protocol(mpath, ast.parse(src, filename=mpath))


class TestGating:
    def test_no_spec_file_no_findings(self, tmp_path):
        # protocol verification is opt-in via a checked-in spec
        assert _run(tmp_path, spec=None) == []

    def test_clean_triple(self, tmp_path):
        assert _run(tmp_path) == []

    def test_malformed_spec_is_a_finding(self, tmp_path):
        fs = _run(tmp_path, spec="MESSAGE_SPECS = build_specs()\n")
        assert any("MESSAGE_SPECS" in f.message for f in fs)


class TestCoverage:
    def test_wire_tag_without_spec_entry(self, tmp_path):
        spec = SPEC_OK.replace(
            '"AckMsg": {"kind": "reply"},\n', "")
        fs = _run(tmp_path, spec=spec)
        assert any("`AckMsg` has no protocol spec entry" in f.message
                   for f in fs)

    def test_spec_entry_without_wire_tag(self, tmp_path):
        spec = SPEC_OK.replace(
            '"AckMsg": {"kind": "reply"},',
            '"AckMsg": {"kind": "reply"},\n'
            '        "GhostMsg": {"kind": "request", "reply": None},')
        fs = _run(tmp_path, spec=spec)
        assert any("`GhostMsg` has no WIRE_TAGS entry" in f.message
                   for f in fs)

    def test_real_tree_covers_every_wire_tag(self):
        # acceptance: R006 covers 100% of WIRE_TAGS with no allowlisting
        path = "src/repro/core/messages.py"
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        assert os.path.exists("src/repro/core/protocol.py")
        assert check_protocol(path, tree) == []


class TestRetryable:
    def test_retryable_without_seq_field(self, tmp_path):
        messages = MESSAGES_OK.replace(
            "    class PutSyncMsg:\n        pairs: list\n        seq: int",
            "    class PutSyncMsg:\n        pairs: list")
        fs = _run(tmp_path, messages=messages)
        assert any("no `seq` field" in f.message and f.function == "PutSyncMsg"
                   for f in fs)

    def test_retryable_arm_without_dedup_gate(self, tmp_path):
        handler = HANDLER_OK.replace(
            "        if db._already_applied(m.seq):\n"
            "            db.rsp_comm.send(AckMsg(0))\n"
            "            return\n", "")
        fs = _run(tmp_path, handler=handler)
        assert any("_already_applied" in f.message
                   and f.function == "PutSyncMsg" for f in fs)

    def test_dedup_gate_via_serve_helper_counts(self, tmp_path):
        # the gate lives in _serve_put, reached through the arm's call
        assert _run(tmp_path) == []


class TestEpochStamping:
    def test_replica_class_must_be_declared_stamped(self, tmp_path):
        spec = SPEC_OK.replace(
            '"ReplicaAckMsg": {"kind": "reply", "epoch_stamped": True},',
            '"ReplicaAckMsg": {"kind": "reply"},')
        fs = _run(tmp_path, spec=spec)
        assert any("does not declare it epoch_stamped" in f.message
                   for f in fs)

    def test_stamped_class_missing_fields(self, tmp_path):
        # a publish surface declared stamped, its fields gone
        messages = MESSAGES_OK.replace(
            "    class ReplicaPublishMsg:\n"
            "        entries: tuple\n"
            "        epoch: int\n"
            "        dead: tuple",
            "    class ReplicaPublishMsg:\n        entries: tuple")
        fs = _run(tmp_path, messages=messages)
        assert any("lacks field(s) ['dead', 'epoch']" in f.message
                   and f.function == "ReplicaPublishMsg" for f in fs)

    def test_replica_batch_missing_epoch_only(self, tmp_path):
        # the PR-6/7 ReplicaPutBatchMsg surface
        messages = MESSAGES_OK.replace(
            "    class ReplicaPutBatchMsg:\n"
            "        items: tuple\n"
            "        seq: int\n"
            "        epoch: int\n"
            "        dead: tuple",
            "    class ReplicaPutBatchMsg:\n"
            "        items: tuple\n"
            "        seq: int\n"
            "        dead: tuple")
        fs = _run(tmp_path, messages=messages)
        assert any("lacks field(s) ['epoch']" in f.message
                   and f.function == "ReplicaPutBatchMsg" for f in fs)


class TestRequestReply:
    def test_missing_dispatch_arm(self, tmp_path):
        handler = HANDLER_OK.replace(
            "        elif isinstance(m, ReplicaPublishMsg):\n"
            "            db.index.merge(m.entries)\n", "")
        fs = _run(tmp_path, handler=handler)
        assert any("no isinstance dispatch arm" in f.message
                   and f.function == "ReplicaPublishMsg" for f in fs)

    def test_reply_never_constructed(self, tmp_path):
        handler = HANDLER_OK.replace(
            "            db.ack_comm.send(ReplicaAckMsg(0, ()))",
            "            pass")
        fs = _run(tmp_path, handler=handler)
        assert any("never constructs its declared reply `ReplicaAckMsg`"
                   in f.message for f in fs)

    def test_declared_reply_not_on_wire(self, tmp_path):
        spec = SPEC_OK.replace('"reply": "AckMsg"', '"reply": "NackMsg"')
        fs = _run(tmp_path, spec=spec)
        assert any("declares reply `NackMsg`" in f.message for f in fs)

    def test_handler_arm_for_untagged_class(self, tmp_path):
        handler = HANDLER_OK + (
            "\n    def extra(db, m):\n"
            "        if isinstance(m, PhantomMsg):\n"
            "            pass\n")
        fs = _run(tmp_path, handler=handler)
        assert any("dispatches `PhantomMsg`" in f.message for f in fs)


class TestRequestCommDirection:
    def test_handler_send_on_request_comm_flags(self, tmp_path):
        # the synthetic satellite fixture: a handler answering on the
        # request comm can rendezvous-deadlock two peers
        handler = HANDLER_OK.replace(
            "            db.ack_comm.send(ReplicaAckMsg(0, ()))",
            "            db.srv_comm.send(ReplicaAckMsg(0, ()))")
        fs = _run(tmp_path, handler=handler)
        assert any("sends on the request comm" in f.message
                   and "srv_comm.send" in f.message for f in fs)

    def test_recv_on_request_comm_is_fine(self, tmp_path):
        handler = HANDLER_OK + (
            "\n    def pump(db):\n"
            "        return db.srv_comm.recv()\n")
        assert _run(tmp_path, handler=handler) == []
