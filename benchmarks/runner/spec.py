"""What the benchmark runs and what it reports: sizes, names, units, bounds.

This module is the single source of the workload and metric names;
``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out, and ``test_runner.py`` checks the two agree.  Later issues refer to
these names verbatim, so treat them as fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

KB = 1024
MB = 1024 * KB

#: ranks of the simulated job; the ranks are the only load generators
#: (closed loop, one outstanding operation per rank)
NPROC = 2
VALUE_SIZE = 1024
ZIPF_THETA = 0.99
#: length of a timed phase at the seed commit; ``--seconds`` scales the
#: timed op counts linearly from here
RUN_SECONDS = 10
#: keys each rank reads back against the oracle after the timed phase
VERIFY_KEYS = 125
#: untimed warm-up, as a share of the timed op count
WARMUP_FRAC = 0.10
MAX_SCAN_LEN = 100

READ, UPDATE, INSERT, SCAN = "read", "update", "insert", "scan"
#: op kind -> latency family it is reported under
LATENCY_KIND = {READ: "read", UPDATE: "write", INSERT: "write", SCAN: "scan"}


@dataclass(frozen=True)
class Workload:
    """One named workload; sizes are per rank."""

    name: str
    why: str
    #: records loaded (and flushed to SSTables) before the timed phase
    preload: int
    #: timed operations of one round at ``RUN_SECONDS``
    ops: int
    #: op mix in percent, in the order READ, UPDATE, INSERT, SCAN
    mix: Tuple[int, int, int, int]
    #: ``Options`` fields that differ from the defaults
    options: Dict[str, int] = field(default_factory=dict)
    #: barrier closing the timed phase: None, "memtable" or "sstable"
    closing: Optional[str] = "memtable"
    warmup: bool = True
    #: close and re-open the database after the timed phase and read
    #: every key back (durability through the zero-copy workflow)
    reopen: bool = False
    #: rounds of one run, each a set-up plus a timed phase on a fresh
    #: database; the run reports the median round
    rounds: int = 1


_MEMTABLE = {"memtable_capacity": 256 * KB}

# Data sizes (preload, cache capacities, read-back sample) are the
# issue's scaled by one common factor of 0.25, and each timed op count is
# set so that a run's timed phases last about RUN_SECONDS in all at the
# seed commit on the reference sandbox: the driver's 4 + 22 x 5 runs then
# use about half of its time cap.  The op count, not the clock, ends a
# timed phase, so both sides of a comparison do identical work.
#
# The load workloads start from an empty database, so a round is cheap to
# repeat; they need it, because the interleaving of rank and handler
# threads locks each database into a faster or slower regime (+-20% at
# the seed commit).  Their round sizes keep the flush count per rank well
# away from a multiple of compaction_interval = 8, so that the number of
# compactions in a round does not hang on a few bytes: load makes ~12
# flushes and one compaction per rank and round, load_repl ~6 flushes
# and none (compaction is load's business).
WORKLOADS: List[Workload] = [
    Workload(
        "load",
        "write-only cold start: memtable, group commit, flush, compaction, "
        "migration and the NVM write device do all the work; the read "
        "path does none",
        preload=0, ops=3_000, mix=(0, 0, 100, 0),
        options=_MEMTABLE, closing="sstable", warmup=False, reopen=True,
        rounds=5,
    ),
    Workload(
        "ycsb_c",
        "read-only Zipfian gets with caches smaller than the data: gate "
        "walk, bloom, reader, block-cache miss/fill, checksum, NVM reads "
        "and the remote-get round trip; writer and compaction idle",
        preload=2_000, ops=400, mix=(100, 0, 0, 0),
        options={**_MEMTABLE, "block_cache_capacity": 512 * KB,
                 "cache_local_capacity": 256 * KB,
                 "cache_remote_capacity": 256 * KB},
        closing=None,
    ),
    Workload(
        "ycsb_a",
        "50/50 read/update, data fits the caches: the same layers used "
        "differently; flush and compaction invalidate cached blocks and "
        "stall foreground ops while reads run",
        preload=2_000, ops=20_000, mix=(50, 50, 0, 0),
        options=_MEMTABLE,
    ),
    Workload(
        "ycsb_e",
        "95% bounded scans of 1-100 records, 5% inserts: core.scan and "
        "the reader's find_ge/read_span windowing do the work; point-get "
        "tiers do none",
        preload=1_000, ops=8_000, mix=(0, 0, 5, 95),
        options=_MEMTABLE,
    ),
    Workload(
        "load_repl",
        "load with replicas=2, write_quorum=2: isolates the replication "
        "plane (replica fan-out, quorum wait, handler apply, heartbeats); "
        "compare with load",
        preload=0, ops=750, mix=(0, 0, 100, 0),
        options={**_MEMTABLE, "replicas": 2, "write_quorum": 2},
        closing="sstable", warmup=False, reopen=True, rounds=10,
    ),
]

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: (name, unit, better, bound) -- what a user of the store sees.  Every
#: one is defined and non-zero on every workload.  The wall-clock bounds
#: are the widest allowed: thread interleaving moves wall-clock results
#: by +-10% from run to run and the reference sandbox itself drifts.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_ops_per_s", "1/s", "higher", 0.25),
    ("virt_ops_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("write_amp", "B/B", "lower", 0.10),
    ("space_amp", "B/B", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

_LAT = [
    (f"wall_{kind}_{p}_us", "us", "lower")
    for kind in ("read", "write", "scan") for p in ("p50", "p99")
] + [(f"wall_{kind}_samples", "count", "higher")
     for kind in ("read", "write", "scan")]

#: (name, unit, better) -- single layers; layer = module name.  Counts
#: are timed-phase deltas summed over ranks.
PER_LAYER: List[Tuple[str, str, str]] = _LAT + [
    ("core.db.wall_self_s", "s", "lower"),
    ("core.db.get_tier.memory_frac", "frac", "higher"),
    ("core.db.get_tier.cache_frac", "frac", "higher"),
    ("core.db.get_tier.sstable_frac", "frac", "lower"),
    ("core.db.get_tier.remote_frac", "frac", "lower"),
    ("core.db.group_commits", "count", "lower"),
    ("core.db.coalesced_per_commit", "1/commit", "higher"),
    ("core.db.flush_stalls", "count", "lower"),
    ("core.db.flush_stall_virt_s", "s", "lower"),
    ("core.db.flush_build_virt_busy_s", "s", "lower"),
    ("core.db.flush_sync_virt_busy_s", "s", "lower"),
    ("core.db.dispatcher_virt_busy_s", "s", "lower"),
    ("core.db.migrations", "count", "lower"),
    ("core.db.remote_retries", "count", "lower"),
    ("core.db.virt_read_p99_us", "us", "lower"),
    ("core.db.virt_write_p99_us", "us", "lower"),
    ("core.db.replica_msgs", "count", "lower"),
    ("core.db.replica_pairs_per_msg", "1/msg", "higher"),
    ("core.memtable.calls", "count", "lower"),
    ("core.memtable.wall_self_s", "s", "lower"),
    ("core.handler.msgs", "count", "lower"),
    ("core.handler.virt_busy_s", "s", "lower"),
    ("core.handler.wall_self_s", "s", "lower"),
    ("mpi.comm.msgs", "count", "lower"),
    ("mpi.comm.bytes", "B", "lower"),
    ("mpi.comm.wall_self_s", "s", "lower"),
    ("mpi.comm.recv_wait_wall_s", "s", "lower"),
    ("mpi.comm.barrier_wait_wall_s", "s", "lower"),
    ("sstable.writer.tables", "count", "lower"),
    ("sstable.writer.bytes", "B", "lower"),
    ("sstable.writer.wall_self_s", "s", "lower"),
    ("sstable.compaction.compactions", "count", "lower"),
    ("sstable.compaction.partition_jobs", "count", "lower"),
    ("sstable.compaction.majors", "count", "lower"),
    ("sstable.compaction.bytes_rewritten", "B", "lower"),
    ("sstable.compaction.virt_busy_s", "s", "lower"),
    ("sstable.compaction.wall_self_s", "s", "lower"),
    ("sstable.reader.gets", "count", "lower"),
    ("sstable.reader.tables_probed_per_get", "1/get", "lower"),
    ("sstable.reader.fence_skips", "count", "higher"),
    ("sstable.reader.bloom_skips", "count", "higher"),
    ("sstable.reader.meta_loads", "count", "lower"),
    ("sstable.reader.wall_self_s", "s", "lower"),
    ("sstable.block_cache.hits", "count", "higher"),
    ("sstable.block_cache.misses", "count", "lower"),
    ("sstable.block_cache.hit_frac", "frac", "higher"),
    ("sstable.block_cache.evictions", "count", "lower"),
    ("sstable.block_cache.invalidations", "count", "lower"),
    ("sstable.block_cache.wall_self_s", "s", "lower"),
    ("core.scan.scans", "count", "higher"),
    ("core.scan.blocks_read_per_scan", "1/scan", "lower"),
    ("core.scan.tables_pruned_per_scan", "1/scan", "higher"),
    ("core.scan.pairs_per_block", "1/block", "higher"),
    ("core.scan.wall_self_s", "s", "lower"),
    ("nvm.write_ops", "count", "lower"),
    ("nvm.write_bytes", "B", "lower"),
    ("nvm.read_ops", "count", "lower"),
    ("nvm.read_bytes", "B", "lower"),
    ("nvm.write_virt_busy_s", "s", "lower"),
    ("nvm.read_virt_busy_s", "s", "lower"),
    ("nvm.read_bytes_per_get", "B/get", "lower"),
    ("nvm.posixfs.wall_self_s", "s", "lower"),
    ("util.checksum.bytes", "B", "lower"),
    ("util.checksum.wall_self_s", "s", "lower"),
    ("util.bloom.probes", "count", "lower"),
    ("util.bloom.wall_self_s", "s", "lower"),
    ("util.lru.local_hit_frac", "frac", "higher"),
    ("util.lru.remote_hit_frac", "frac", "higher"),
    ("util.lru.evictions", "count", "lower"),
    ("core.membership.heartbeats_sent", "count", "lower"),
    ("runner.failed_ops_frac", "frac", "lower"),
    ("runner.trace_overhead_frac", "frac", "lower"),
    ("runner.gen_wall_s", "s", "lower"),
    ("runner.wall_self_s", "s", "lower"),
    ("runner.rank_wall_s", "s", "lower"),
    ("runner.handler_busy_wall_s", "s", "lower"),
    ("runner.attributed_frac", "frac", "higher"),
    ("runner.spans", "count", "lower"),
]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.runner"],
        "paths": ["benchmarks/runner"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def scaled(count: int, factor: float) -> int:
    """``count`` scaled by ``factor``, never below 1 when ``count`` > 0."""
    return max(1, round(count * factor)) if count else 0
