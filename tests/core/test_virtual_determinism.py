"""The write pipeline's virtual timeline does not hang on thread scheduling.

A rank's main thread and its handler do their work eagerly, in whatever
order the interpreter switches between them, and charge it to virtual
clocks.  Where the rank waits in virtual time must follow virtual time
only: a non-blocking probe sees no message stamped after the prober's
clock, flush back-pressure counts only flushes in flight at the caller's
now, and the flush builder and the dispatcher serve jobs in virtual
arrival order.  This drive runs one two-rank put load under several
interpreter switch intervals and compares where the ranks' clocks end.
"""

from __future__ import annotations

import os
import random
import sys

from repro import SSTABLE, Options, Papyrus, spmd_run
from repro.config import KB
from repro.simtime.profiles import SUMMITDEV

#: CI's fault matrix re-runs this module under several seeds
FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))

#: interpreter switch intervals to draw from, 5 us to 5 ms
SWITCH_INTERVALS = (5e-6, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3)

#: how far apart the final clocks may end, as a fraction of the earliest
SPREAD = 0.05


def _load(ctx) -> float:
    """The benchmark's ``load`` in small: 3,000 1 KB puts a rank, half
    of them to the other rank, then ``barrier(SSTABLE)``; returns the
    virtual time the rank spent."""
    with Papyrus(ctx) as env:
        db = env.open("det", Options(memtable_capacity=256 * KB))
        me, value = ctx.world_rank, bytes(1000)
        t0 = ctx.clock.now
        for i in range(3000):
            db.put(b"u%d:%07d" % (me, i), value)
        db.barrier(SSTABLE)
        spent = ctx.clock.now - t0
        db.close()
        return spent


def test_final_clocks_do_not_depend_on_the_switch_interval():
    intervals = random.Random(FAULT_SEED).sample(SWITCH_INTERVALS, 3)
    saved = sys.getswitchinterval()
    ends = []
    try:
        for interval in intervals:
            sys.setswitchinterval(interval)
            ends.extend(spmd_run(2, _load, system=SUMMITDEV))
    finally:
        sys.setswitchinterval(saved)
    assert max(ends) <= (1 + SPREAD) * min(ends), (
        intervals, [round(t * 1e6, 1) for t in ends])
