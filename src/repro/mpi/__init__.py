"""Simulated MPI: a threaded SPMD runtime with virtual-time semantics.

The real PapyrusKV is a user-level MPI library; since mpi4py and a
cluster are unavailable offline, this package provides an in-process
substitute with the MPI semantics the runtime relies on:

* tagged point-to-point ``send``/``recv`` (plus ``send_at`` for
  background timelines, the ``fanout`` of one message per destination
  and ``iprobe``);
* collectives: ``barrier``, ``bcast``, ``gather``, ``allgather``;
* communicator ``dup`` — the PapyrusKV runtime "creates new
  independent MPI communicators and uses them in the message dispatcher
  and message handler" (paper §2.4) for interoperability;
* an SPMD launcher that runs one Python thread per rank.

Messages carry virtual timestamps so communication advances the
per-rank :class:`~repro.simtime.clock.VirtualClock` according to the
system's network profile.
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.mpi.launcher import RankContext, RankFailure, spmd_run

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "RankContext",
    "RankFailure",
    "spmd_run",
]
