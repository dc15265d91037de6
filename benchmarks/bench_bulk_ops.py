"""Bulk-operation pipeline vs the per-key loop.

The per-key remote path pays the full message cost per key: software
send overhead, network latency, handler service, and (under sequential
consistency or for any get) a synchronous reply — serially, key after
key.  The bulk pipeline partitions a batch by owner in one pass and
sends one coalesced message per distinct owner, so the per-message
costs amortize over the whole batch and the per-owner rounds overlap
in a scatter/gather.

Measured here on a 4-rank mixed-owner workload (each rank writes keys
that hash across all ranks, then reads them back after a fence):

* puts under sequential consistency: one ``PutSyncMsg`` round per
  owner instead of one per key;
* gets under both modes: one ``GetMsg`` round per owner instead of
  one per key;
* relaxed puts: both paths stage locally, so bulk only wins the
  batched bookkeeping — asserted not-slower, not 2x.

Also asserts the migration-coalescing property: a relaxed bulk batch
fences out as exactly one migration chunk per distinct remote owner,
not one per key.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import MB, Report, run_once
from repro.config import RELAXED, SEQUENTIAL, Options, consistency_name
from repro.core.env import Papyrus
from repro.mpi.launcher import spmd_run
from repro.simtime.profiles import SUMMITDEV

RANKS = 4
N_KEYS = 192  # per rank; key hashing spreads owners over all ranks
VALLEN = 256

_OPTS = dict(
    memtable_capacity=8 * MB,
    remote_memtable_capacity=8 * MB,
    compaction_interval=0,
)


def _bench_app(use_bulk: bool, consistency: int):
    def app(ctx):
        opts = Options(consistency=consistency, **_OPTS)
        with Papyrus(ctx) as env:
            with env.open("bench", opts) as db:
                me = ctx.world_rank
                keys = [f"r{me}-{i:06d}".encode() for i in range(N_KEYS)]
                value = bytes(VALLEN)
                remote_owners = {db.owner_of(k) for k in keys} - {me}
                assert len(remote_owners) == RANKS - 1  # mixed-owner

                t0 = ctx.clock.now
                if use_bulk:
                    with db.batch() as b:
                        for k in keys:
                            b.put(k, value)
                else:
                    for k in keys:
                        db.put(k, value)
                put_s = ctx.clock.now - t0

                migrations_before = db.stats.migrations
                db.fence()
                migrate_msgs = db.stats.migrations - migrations_before
                db.barrier()

                t0 = ctx.clock.now
                if use_bulk:
                    vals = db.get_bulk(keys)
                else:
                    vals = [db.get(k) for k in keys]
                get_s = ctx.clock.now - t0
                assert all(v == value for v in vals)
                db.barrier()
                return {
                    "put_s": put_s,
                    "get_s": get_s,
                    "remote_owners": len(remote_owners),
                    "migrate_msgs": migrate_msgs,
                }

    return app


def _krps(results, field: str) -> float:
    t = max(r[field] for r in results)
    return RANKS * N_KEYS / t / 1e3 if t > 0 else float("inf")


def test_bulk_vs_per_key(benchmark):
    def run():
        rep = Report(
            f"bulk-ops — batched pipeline vs per-key loop "
            f"({RANKS} ranks, {N_KEYS} keys/rank, {VALLEN} B values)",
            ["consistency", "phase", "per-key KRPS", "bulk KRPS",
             "speedup"],
        )
        series = {}
        for consistency in (SEQUENTIAL, RELAXED):
            runs = {}
            for use_bulk in (False, True):
                runs[use_bulk] = spmd_run(
                    RANKS, _bench_app(use_bulk, consistency),
                    system=SUMMITDEV, timeout=300,
                )
            for phase in ("put", "get"):
                per_key = _krps(runs[False], f"{phase}_s")
                bulk = _krps(runs[True], f"{phase}_s")
                rep.add(consistency_name(consistency), phase,
                        per_key, bulk, bulk / per_key)
                series[(consistency, phase)] = (per_key, bulk)
            series[(consistency, "bulk_runs")] = runs[True]
        rep.emit()
        return series

    series = run_once(benchmark, run)

    # acceptance: bulk beats the per-key loop by >= 2x wherever the
    # per-key path pays a synchronous round per key
    for consistency, phase in [
        (SEQUENTIAL, "put"), (SEQUENTIAL, "get"), (RELAXED, "get"),
    ]:
        per_key, bulk = series[(consistency, phase)]
        assert bulk >= 2 * per_key, (consistency, phase, per_key, bulk)

    # relaxed puts stage locally either way: bulk must not be slower
    per_key, bulk = series[(RELAXED, "put")]
    assert bulk >= per_key

    # migration coalescing: one chunk per distinct remote owner, not
    # one per key
    for r in series[(RELAXED, "bulk_runs")]:
        assert r["migrate_msgs"] == r["remote_owners"]
        assert r["remote_owners"] < N_KEYS
