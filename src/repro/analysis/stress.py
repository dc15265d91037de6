"""Race-detector stress drive: a 4-rank mixed workload under detection.

Runs puts, gets, deletes, scans, fences, SSTABLE barriers, cross-rank
get storms, a checkpoint, and a verify pass with the race detector
enabled, then returns the detector's machine-readable report.  The CI
job and the ``papyruskv race-report`` subcommand both call
:func:`run_stress`; ``tests/analysis/test_stress_race.py`` asserts the
findings list is empty.

The workload is chosen to force the historically racy interleavings:

* small MemTables so flushes and compactions happen mid-run;
* a cross-rank get storm so message handlers hit the SSTable-reader
  cache while their rank-main threads scan it;
* same-group gets so the §2.7 NOT_IN_MEMORY shortcut reads the
  quarantine list concurrently with verify;
* open scan iterators consumed with writes interleaved (and a
  collective ``scan_global`` with a limit short-circuit), so scan pins
  and compaction's deferred unlinks race against flush/retire.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis import runtime as _rt

__all__ = ["run_stress"]


def _stress_main(ops_per_rank: int, seed: int):
    """Build the per-rank SPMD body (closure over workload knobs)."""

    def body(ctx: Any) -> int:
        import random

        from repro import Papyrus, SSTABLE
        from repro.config import Options

        rng = random.Random(seed * 1000 + ctx.world_rank)
        served = 0
        with Papyrus(ctx) as env:
            db = env.open("race_stress", Options(
                memtable_capacity=1 << 11,
                remote_memtable_capacity=1 << 10,
                cache_local_capacity=1 << 13,
                cache_remote_capacity=1 << 13,
                compaction_interval=3,
                # two storage groups: cross-group gets force the
                # handler's full SSTable lookup (the reader-cache
                # contention path); same-group gets keep exercising
                # the §2.7 shortcut and its quarantine snapshot
                group_size=2,
            ))
            nranks = ctx.nranks
            for i in range(ops_per_rank):
                key = f"k{rng.randrange(ops_per_rank * nranks):05d}".encode()
                op = rng.random()
                if op < 0.5:
                    db.put(key, f"v{i}".encode() * rng.randrange(1, 8))
                elif op < 0.8:
                    if db.get_or_none(key) is not None:
                        served += 1
                elif op < 0.9:
                    db.delete(key)
                else:
                    # scan-while-writing: consume a pinned lazy iterator
                    # with puts interleaved mid-stream, so flushes and
                    # compactions retire tables under an open scan (the
                    # snapshot-pin / deferred-unlink path)
                    with db.scan() as it:
                        for j, _pair in enumerate(it):
                            served += 1
                            if j % 8 == 0:
                                db.put(
                                    f"s{ctx.world_rank}:{i}:{j}".encode(),
                                    b"x" * rng.randrange(1, 32),
                                )
                if i % 17 == 0:
                    db.fence()
                if i % 29 == 0:
                    db.barrier(SSTABLE)
            # cross-rank get storm: every rank hammers every other
            # rank's shard so handlers and mains contend on the
            # reader cache and the quarantine snapshot
            db.barrier(SSTABLE)
            for i in range(ops_per_rank):
                key = f"k{(i * 7) % (ops_per_rank * nranks):05d}".encode()
                if db.get_or_none(key) is not None:
                    served += 1
            # collective windowed scan with a limit short-circuit: the
            # chunked bcast rounds run while handlers still serve the
            # tail of the get storm's reader-cache traffic
            served += sum(1 for _ in db.scan_global(limit=25, chunk=8))
            db.checkpoint("race_stress_snap").wait(ctx.clock)
            db.verify()
            db.barrier()
        return served

    return body


def run_stress(nranks: int = 4, ops_per_rank: int = 80,
               seed: int = 7) -> Dict[str, Any]:
    """Run the stress workload under a fresh detector; return its report.

    The previously installed detector (if any) is restored afterwards,
    so callers — including tests running under ``PKV_RACE_DETECT=1`` —
    see their own detector state undisturbed.
    """
    from repro.mpi.launcher import spmd_run

    prev: Optional[_rt.RaceDetector] = _rt.get_detector()
    det = _rt.enable(reset=True)
    try:
        spmd_run(nranks, _stress_main(ops_per_rank, seed), timeout=120.0)
        return det.report()
    finally:
        _rt.restore(prev)
