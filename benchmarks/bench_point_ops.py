"""What a point op costs: process CPU and interpreter calls per op.

Six point-op paths on 2 ranks (``SUMMITDEV``), each measured over a
fixed loop of rank 0's ops while rank 1's main thread waits in a
barrier — rank 1's handler thread serves whatever reaches it:

* ``local memtable get``   — a key rank 0 owns, still in its MemTable;
* ``local put``            — a key rank 0 owns, no flush on the way;
* ``remote staged put``    — a key rank 1 owns, staged in rank 0's
  remote MemTable (relaxed mode, no migration on the way);
* ``local sstable get``    — a key rank 0 owns, in one of its 5 tables,
  value cache off, blocks cached (the gate walk, bloom and block probe);
* ``remote memtable get``  — a key rank 1 owns, answered by rank 1's
  handler from its MemTable (other storage group: the values travel);
* ``remote peer-walk get`` — a key rank 1 owns, flushed: rank 1's
  handler answers ``NOT_IN_MEMORY`` and rank 0 walks rank 1's tables
  itself (same storage group, §2.7).

CPU is ``time.process_time`` over the loop, so both threads of a remote
op count; the figure is the minimum over ``REPEATS`` loops.  Calls are
cProfile's call count (Python and C functions, every thread of the run)
over one loop, in a second run with a profiler on every thread; unlike
the CPU figure it repeats from run to run, so the gate is on calls:
each path at most :data:`CALL_BUDGET` per op.

``PYTHONPATH=src:. python benchmarks/bench_point_ops.py`` prints the
table; under pytest the gate runs too (~15 s).
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.config import Options
from repro.core.env import Papyrus
from repro.mpi.launcher import spmd_run

OPS = 2_000
REPEATS = 5
VALUE = b"v" * 100
MB = 1 << 20

#: calls per op measured when the gate was set (CPython 3.11), + 10 %
CALL_BUDGET: Dict[str, float] = {
    "local memtable get": 41.4,     # 37.6
    "local put": 43.6,              # 39.6
    "remote staged put": 35.6,      # 32.4
    "local sstable get": 92.3,      # 83.9
    "remote memtable get": 167.6,   # 152.4
    "remote peer-walk get": 215.3,  # 195.7
}

Loop = Callable[[], None]


def _keys(db, owner: int, n: int, tag: str) -> List[bytes]:
    """``n`` distinct keys that hash to ``owner``."""
    out: List[bytes] = []
    i = 0
    while len(out) < n:
        key = f"{tag}{i:07d}".encode()
        if db.owner_of(key) == owner:
            out.append(key)
        i += 1
    return out


def _get_all(db, keys: List[bytes]) -> Loop:
    get = db.get_or_none

    def loop() -> None:
        for key in keys:
            get(key)
    return loop


def _put_all(db, keys: List[bytes]) -> Loop:
    put = db.put

    def loop() -> None:
        for key in keys:
            put(key, VALUE)
    return loop


def _memtable_paths(db, me: int) -> Iterator[Tuple[str, Loop]]:
    """Other storage group: a remote get's value travels."""
    mine, theirs = _keys(db, 0, OPS, "a"), _keys(db, 1, OPS, "b")
    if me == 1:
        _put_all(db, theirs)()
        return
    yield "local put", _put_all(db, mine)
    yield "local memtable get", _get_all(db, mine)
    yield "remote staged put", _put_all(db, _keys(db, 1, OPS, "s"))
    yield "remote memtable get", _get_all(db, theirs)


def _peer_walk_paths(db, me: int) -> Iterator[Tuple[str, Loop]]:
    """Same storage group: rank 0 walks rank 1's flushed tables."""
    theirs = _keys(db, 1, OPS, "b")
    if me == 1:
        _put_all(db, theirs)()
        db.flush()
        return
    yield "remote peer-walk get", _get_all(db, theirs)


def _sstable_paths(db, me: int) -> Iterator[Tuple[str, Loop]]:
    """Rank 0's keys over 5 tables, value cache off."""
    if me == 1:
        return
    mine = _keys(db, 0, OPS, "c")
    for t in range(5):
        _put_all(db, mine[t::5])()
        db.flush()
    yield "local sstable get", _get_all(db, mine)


_BIG = dict(memtable_capacity=64 * MB, remote_memtable_capacity=64 * MB,
            compaction_interval=0)
_SETUPS = (
    (_memtable_paths, Options(group_size=1, **_BIG)),
    (_peer_walk_paths, Options(group_size=2, **_BIG)),
    (_sstable_paths, Options(group_size=1, cache_local_enabled=False,
                             **_BIG)),
)


def _run(paths, options: Options,
         profs: Optional[List[cProfile.Profile]]) -> Dict[str, float]:
    """One 2-rank run: per path, the best CPU seconds of a loop, or —
    given ``profs``, the profilers of every thread — one loop's calls."""

    def calls() -> int:
        return sum(e.callcount for p in profs for e in p.getstats())

    def app(ctx) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with Papyrus(ctx) as env:
            db = env.open("point", options)
            loops = list(paths(db, ctx.world_rank))
            db.barrier()  # rank 1 waits in the next one meanwhile
            for path, loop in loops:
                loop()  # warm: readers, blocks, the routing memo
                if profs is None:
                    best = float("inf")
                    for _ in range(REPEATS):
                        t0 = time.process_time()
                        loop()
                        best = min(best, time.process_time() - t0)
                    out[path] = best
                else:
                    before = calls()
                    loop()
                    out[path] = calls() - before
            db.barrier()
            db.close()
        return out

    results: Dict[str, float] = {}
    for part in spmd_run(2, app, collect=True):
        results.update(part or {})
    return results


def _profiled_run(paths, options: Options) -> Dict[str, float]:
    """:func:`_run` with a cProfile profiler started on every thread the
    run starts (rank mains and handlers)."""
    profs: List[cProfile.Profile] = []

    def start(*_args) -> None:
        prof = cProfile.Profile()
        profs.append(prof)
        prof.enable()  # replaces this hook on the thread that calls it

    threading.setprofile(start)
    try:
        return _run(paths, options, profs)
    finally:
        threading.setprofile(None)  # type: ignore[arg-type]


def measure() -> Dict[str, Tuple[float, float]]:
    """``{path: (µs of process CPU per op, calls per op)}``, on one CPU
    like the benchmark runner (the rank and handler threads hand off to
    each other instead of waking across cores)."""
    rows: Dict[str, Tuple[float, float]] = {}
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") \
        else None
    if cpus is not None:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        for paths, options in _SETUPS:
            cpu = _run(paths, options, None)
            calls = _profiled_run(paths, options)
            for path in cpu:
                rows[path] = (cpu[path] / OPS * 1e6, calls[path] / OPS)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    return rows


def render(rows: Dict[str, Tuple[float, float]]) -> str:
    lines = [f"{'path':<22} {'CPU µs/op':>10} {'calls/op':>9}"]
    for path in CALL_BUDGET:
        if path in rows:
            cpu, calls = rows[path]
            lines.append(f"{path:<22} {cpu:>10.1f} {calls:>9.1f}")
    return "\n".join(lines)


def test_point_op_calls_within_budget():
    rows = measure()
    print("\n" + render(rows))
    assert set(rows) == set(CALL_BUDGET), sorted(rows)
    over = {path: (calls, CALL_BUDGET[path])
            for path, (_cpu, calls) in rows.items()
            if calls > CALL_BUDGET[path]}
    assert not over, over


if __name__ == "__main__":
    print(render(measure()))
