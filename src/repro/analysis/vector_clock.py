"""Vector clocks for happens-before race detection.

The detector (:mod:`repro.analysis.runtime`) is FastTrack-flavoured
(Flanagan & Freund, PLDI '09): each thread carries a vector clock; each
shared location remembers its last-writer *epoch* ``(tid, tick)`` and a
map of reader epochs.  Synchronization edges — lock release→acquire,
message send→receive, barrier, publication, thread join — merge
clocks; an access races when the prior access's epoch is not ordered
before the accessing thread's clock.

Clocks are plain ``dict[int, int]`` (thread id → tick), kept tiny and
allocation-light because every instrumented access touches one.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: one thread's position in the happens-before order
Clock = Dict[int, int]

#: a single access: (tid, tick at access time)
Epoch = Tuple[int, int]


def fresh_clock(tid: int) -> Clock:
    """A new thread's clock: its own component starts at 1."""
    return {tid: 1}


def merge_into(dst: Clock, src: Clock) -> None:
    """Pointwise max of ``src`` into ``dst`` (a join in the HB lattice)."""
    for tid, tick in src.items():
        if dst.get(tid, 0) < tick:
            dst[tid] = tick


def epoch_of(tid: int, clock: Clock) -> Epoch:
    """The calling thread's current epoch."""
    return (tid, clock.get(tid, 0))


def happens_before(epoch: Epoch, clock: Clock) -> bool:
    """True when the access at ``epoch`` is ordered before ``clock``."""
    tid, tick = epoch
    return clock.get(tid, 0) >= tick
