"""YCSB-style workloads (extension beyond the paper's microbenchmarks).

The Yahoo! Cloud Serving Benchmark's core workloads are the lingua
franca of KVS evaluation; running them against PapyrusKV exercises the
store under skewed access (Zipfian), read-modify-write cycles, and
insert-heavy churn that the paper's uniform workloads do not.

* A — update heavy: 50% reads / 50% updates, Zipfian
* B — read mostly: 95% reads / 5% updates, Zipfian
* C — read only: 100% reads, Zipfian
* D — read latest: 95% reads / 5% inserts, reads skewed to recent keys
* E — scan heavy: 95% short range scans / 5% inserts, Zipfian start keys
* F — read-modify-write: 50% reads / 50% RMW, Zipfian

Workload E's scans are *local* streamed scans (``db.scan`` bounded by a
drawn length): per-rank operation streams diverge, so a collective scan
would deadlock — and the YCSB-E contract ("next N records from a start
key") is exactly the iterator's ``islice`` shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional

from repro.config import Options, SEQUENTIAL
from repro.core.env import Papyrus
from repro.mpi.launcher import RankContext
from repro.workloads.generators import rank_seed, value_of_size


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n) (Gray et al.'s rejection-free
    method as used by YCSB)."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0,1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta))
            / (1.0 - self._zeta2 / self._zetan)
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        """Draw the next Zipf-distributed index."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.n * (self._eta * u - self._eta + 1.0) ** self._alpha
        )


@dataclass(frozen=True)
class YcsbWorkload:
    """One YCSB core workload definition."""

    name: str
    read_pct: int
    update_pct: int
    insert_pct: int
    rmw_pct: int
    #: "zipfian" or "latest"
    distribution: str = "zipfian"
    #: short range scans (workload E); scan lengths are drawn uniformly
    #: from [1, max_scan_len] as in the YCSB core definition
    scan_pct: int = 0
    max_scan_len: int = 100

    def __post_init__(self):
        total = (self.read_pct + self.update_pct + self.insert_pct
                 + self.rmw_pct + self.scan_pct)
        if total != 100:
            raise ValueError(f"workload {self.name}: mix sums to {total}")
        if self.scan_pct and self.max_scan_len <= 0:
            raise ValueError(
                f"workload {self.name}: max_scan_len must be positive"
            )


WORKLOAD_A = YcsbWorkload("A", 50, 50, 0, 0)
WORKLOAD_B = YcsbWorkload("B", 95, 5, 0, 0)
WORKLOAD_C = YcsbWorkload("C", 100, 0, 0, 0)
WORKLOAD_D = YcsbWorkload("D", 95, 0, 5, 0, distribution="latest")
WORKLOAD_E = YcsbWorkload("E", 0, 0, 5, 0, scan_pct=95)
WORKLOAD_F = YcsbWorkload("F", 50, 0, 0, 50)

CORE_WORKLOADS: Dict[str, YcsbWorkload] = {
    w.name: w for w in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C,
                        WORKLOAD_D, WORKLOAD_E, WORKLOAD_F)
}


@dataclass
class YcsbResult:
    rank: int
    workload: str
    ops: int
    load_time: float
    run_time: float
    reads: int
    updates: int
    inserts: int
    rmws: int
    scans: int = 0
    #: total pairs returned by the scan ops (scan lengths vary)
    scanned_pairs: int = 0


def run_ycsb(
    ctx: RankContext,
    workload: YcsbWorkload,
    record_count: int = 200,
    op_count: int = 200,
    value_size: int = 1024,
    options: Optional[Options] = None,
    seed: int = 1,
) -> YcsbResult:
    """One rank of a YCSB workload against PapyrusKV.

    ``record_count``/``op_count`` are per rank.  Keys are globally
    unique (``user<rank>:<i>``) so inserts never collide across ranks.
    """
    options = (options or Options()).with_(consistency=SEQUENTIAL)
    env = Papyrus(ctx)
    db = env.open(f"ycsb{workload.name}", options)
    me = ctx.world_rank
    value = value_of_size(value_size)

    def key_of(rank: int, i: int) -> bytes:
        return f"user{rank}:{i:08d}".encode()

    # ---- load phase: bulk pipeline (one sync round per owner per chunk
    # instead of one per key — YCSB's natural thousands-at-once shape)
    db.coll_comm.barrier()
    t0 = ctx.clock.now
    chunk = 256
    with db.batch() as b:
        for lo in range(0, record_count, chunk):
            for i in range(lo, min(lo + chunk, record_count)):
                b.put(key_of(me, i), value)
            b.flush()  # one bulk round per chunk, as before
    db.barrier()
    load_time = ctx.clock.now - t0

    # ---- run phase
    rng = random.Random(rank_seed(seed, me))
    zipf = ZipfianGenerator(record_count, seed=rank_seed(seed + 1, me))
    inserted = record_count
    reads = updates = inserts = rmws = scans = scanned = 0
    t0 = ctx.clock.now
    for _ in range(op_count):
        # pick a key: zipfian over the keyspace, or skewed to latest
        target_rank = rng.randrange(ctx.nranks)
        if workload.distribution == "latest":
            idx = max(0, inserted - 1 - zipf.next())
            idx = min(idx, record_count - 1) if target_rank != me else idx
        else:
            idx = zipf.next()
        if target_rank != me:
            idx = min(idx, record_count - 1)
        key = key_of(target_rank, idx)

        roll = rng.randrange(100)
        if roll < workload.read_pct:
            db.get_or_none(key)
            reads += 1
        elif roll < workload.read_pct + workload.update_pct:
            db.put(key, value)
            updates += 1
        elif roll < (workload.read_pct + workload.update_pct
                     + workload.insert_pct):
            db.put(key_of(me, inserted), value)
            inserted += 1
            inserts += 1
        elif roll < (workload.read_pct + workload.update_pct
                     + workload.insert_pct + workload.rmw_pct):
            got = db.get_or_none(key) or b""
            db.put(key, (got + b"!")[:value_size])
            rmws += 1
        else:
            # YCSB-E scan: the next n records of this rank's shard from
            # the drawn start key — a bounded walk of the lazy iterator
            n = rng.randrange(1, workload.max_scan_len + 1)
            with db.scan(start=key) as it:
                got_pairs = sum(1 for _ in islice(it, n))
            scanned += got_pairs
            scans += 1
    run_time = ctx.clock.now - t0

    result = YcsbResult(
        rank=me, workload=workload.name, ops=op_count,
        load_time=load_time, run_time=run_time,
        reads=reads, updates=updates, inserts=inserts, rmws=rmws,
        scans=scans, scanned_pairs=scanned,
    )
    db.close()
    env.finalize()
    return result
