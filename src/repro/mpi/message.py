"""Message envelope and size accounting for the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    The one sizing entry point of a send.  A protocol message states its
    own size (``wire_nbytes``), taken first.  Otherwise byte strings
    dominate PapyrusKV traffic (keys/values); container overheads get a
    small fixed charge per element, standing in for (de)serialization
    framing.
    """
    wire_nbytes = getattr(obj, "wire_nbytes", None)
    if wire_nbytes is not None:
        return int(wire_nbytes())
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    return 64  # opaque object: flat charge


@dataclass(slots=True)
class Envelope:
    """A message in flight on the simulated interconnect."""

    source: int
    dest: int
    tag: int
    payload: Any
    #: virtual time at which the message reaches the destination NIC
    arrival: float
    nbytes: int
    #: the sender's vector clock, attached while the race detector is on
    _race_vc: Optional[Dict[int, int]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Envelope {self.source}->{self.dest} tag={self.tag} "
            f"{self.nbytes}B t={self.arrival:.6f}>"
        )
