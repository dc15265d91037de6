"""The wire-protocol specification (verified by pkvlint rule R006).

One literal dict entry per ``WIRE_TAGS`` class in
:mod:`repro.core.messages`.  The analyzer
(:mod:`repro.analysis.protocol`) parses this file with :mod:`ast` — it
is never imported by the runtime — and cross-checks every declaration
against the actual dataclass fields and the handler's ``isinstance``
dispatch:

``kind``
    ``"request"`` (travels on the srv comm, needs a dispatch arm) or
    ``"reply"`` (travels on the rsp/ack comms).
``retryable``
    The sender retransmits on timeout, so the message must carry a
    ``seq`` field and its dispatch arm must apply it under the
    seq-dedup gate (``Database._already_applied``) — paper §2.4 makes
    retried migrations idempotent this way.
``epoch_stamped``
    The message carries the sender's ``(epoch, dead)`` membership
    stamp so stale-epoch traffic is rejected deterministically.  Every
    ``Replica*``/``Index*`` class **must** declare this; R006 flags a
    spec that quietly opts one out.
``reply``
    The class whose arrival completes the sender's wait, or ``None``
    for fire-and-forget.  The dispatch arm must construct it.

``REQUEST_COMM`` names the comm the handler receives requests on; R006
rejects any handler-side *send* on it (two handlers sending to each
other on the same rendezvous comm deadlock).

Changing this file is a protocol change: update the spec and the
message/handler code in the same commit, or the lint gate fails.
"""

from __future__ import annotations

#: the handler's receive comm — requests only, never handler sends
REQUEST_COMM = "srv_comm"

#: per-message invariants, one entry per WIRE_TAGS class
MESSAGE_SPECS = {
    # the one pair carrier (migration, sync puts, replica fan-out,
    # re-replication): a retried mutation, seq-dedup, always stamped
    "PairsMsg": {
        "kind": "request", "retryable": True, "epoch_stamped": True,
        "reply": "AckMsg",
    },
    # reads are idempotent: no dedup needed, always answered
    "GetMsg": {
        "kind": "request", "retryable": False, "epoch_stamped": False,
        "reply": "GetReply",
    },
    "FetchTableMsg": {
        "kind": "request", "retryable": False, "epoch_stamped": False,
        "reply": "FetchTableReply",
    },
    # shutdown sentinel: consumed by the handler loop itself
    "StopMsg": {
        "kind": "request", "retryable": False, "epoch_stamped": False,
        "reply": None,
    },
    # failure detector: the ping carries gossip, the pong is an AckMsg
    "HeartbeatMsg": {
        "kind": "request", "retryable": False, "epoch_stamped": True,
        "reply": "AckMsg",
    },
    # replies (rsp/ack comms)
    "GetReply": {"kind": "reply"},
    "FetchTableReply": {"kind": "reply"},
    "AckMsg": {"kind": "reply", "epoch_stamped": True},
}
