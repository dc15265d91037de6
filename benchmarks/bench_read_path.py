"""Peer read bench: one-sided index replication vs. handler
round-trips, same storage group and across.

4 ranks on SUMMITDEV split into two storage groups (group_size=2 →
{0,1} and {2,3}).  Each rank loads its own shard in key-prefixed phases
— one SSTable per phase with a disjoint key range, so the footer fences
actually prune — then runs a Zipfian read phase twice against
*peer-owned* keys, each from a cold device (every rank drops its own
tables' readers and blocks first; the read cache is the node's, so what
the first phase fetched would otherwise still be there for the second):

* **same-group** — the peer is rank^1 (shared NVM): without
  `index_replication` the §2.7 direct SSTable read, which pays a
  NOT_IN_MEMORY handshake round-trip per get; with it the requester
  pulls the owner's view once (no bundle bytes: it reads the sidecar
  files itself) and every get after that is a local gate walk plus
  one direct block read;
* **cross-group** — the peer is (rank+2)%4 (the other group's NVM):
  without `index_replication` every get is a handler round-trip;
  with it the requester pulls the owner's metadata bundles once and
  resolves each get the same way — no message at all at steady state.

The gates: with index replication on, a peer on your own node must
not be slower to read than one on another node (same-group >= 0.9x
cross-group ops/s), cross-group gets must land within 2x of the
same-group cost, and must beat the handler-only cross-group phase
outright.

The local value cache is off in both configs so repeated gets exercise
the SSTable path itself, not the value cache above it.  Single-group
read throughput is the runner's ``ycsb_c`` workload
(``python -m benchmarks.runner``).

Emits ``BENCH_READ_PATH.json`` at the repo root — the checked-in copy
is the regression reference; CI's bench-smoke job runs this full mode
(~3 s).  Quick mode (``PKV_BENCH_QUICK=1``) shrinks the workload and
skips the perf gates but still fails if the one-sided path stops being
exercised in either phase (zero hits / zero pulls = a wiring
regression).
"""

from __future__ import annotations

import os

from benchmarks.harness import KB, MB, Report, run_once, write_json
from repro.config import Options, SSTABLE
from repro.core.env import Papyrus
from repro.mpi.launcher import spmd_run
from repro.simtime.profiles import SUMMITDEV
from repro.util.hashing import owner_rank
from repro.workloads.generators import value_of_size
from repro.workloads.ycsb import ZipfianGenerator

RANKS = 4
VALLEN = 2 * KB
ZIPF_THETA = 0.99

QUICK = os.environ.get("PKV_BENCH_QUICK", "") not in ("", "0")
PHASES = 4 if QUICK else 6
KEYS_PER_PHASE = 24 if QUICK else 40
XG_ITERS = 120 if QUICK else 800


def _shard_keys(rank: int, nranks: int) -> list:
    """This rank's keys, grouped into ``PHASES`` disjoint prefix ranges.

    Phase ``p``'s keys all start with ``b"p%02d-"``, so each flushed
    SSTable covers one prefix range and the footer fences of the other
    tables exclude it — the fence-pruning counter must move.
    """
    keys = []
    for p in range(PHASES):
        got, i = 0, 0
        while got < KEYS_PER_PHASE:
            cand = f"{p:02d}-{i:06d}".encode()
            i += 1
            if owner_rank(cand, nranks, None) == rank:
                keys.append(cand)
                got += 1
    return keys


def _xgroup_app_factory(index_repl: bool):
    def app(ctx):
        opts = Options(
            memtable_capacity=1 * MB,
            cache_local_enabled=False,  # measure the SSTable path itself
            compaction_interval=0,      # keep one table per load phase
            group_size=2,               # {0,1} and {2,3} on 4 ranks
            index_replication=index_repl,
        )
        env = Papyrus(ctx)
        db = env.open("xgroup", opts)
        r = ctx.world_rank
        value = value_of_size(VALLEN)
        keys = _shard_keys(r, ctx.nranks)
        per_phase = len(keys) // PHASES
        for p in range(PHASES):
            for k in keys[p * per_phase:(p + 1) * per_phase]:
                db.put(k, value)
            db.barrier(SSTABLE)  # one SSTable per prefix range

        def cold_start():
            """Every table on the node leaves its device's read cache."""
            db._invalidate_readers()
            db.barrier()

        same_keys = _shard_keys(r ^ 1, ctx.nranks)
        cross_keys = _shard_keys((r + 2) % ctx.nranks, ctx.nranks)

        cold_start()
        zipf = ZipfianGenerator(len(same_keys), ZIPF_THETA, seed=23 + r)
        t0 = ctx.clock.now
        for _ in range(XG_ITERS):
            db.get(same_keys[zipf.next()])
        same_elapsed = ctx.clock.now - t0
        same_hits = db.stats.index_repl_hits
        db.barrier()

        cold_start()
        tiers0 = dict(db.stats.get_tiers)
        zipf = ZipfianGenerator(len(cross_keys), ZIPF_THETA, seed=31 + r)
        t0 = ctx.clock.now
        for _ in range(XG_ITERS):
            db.get(cross_keys[zipf.next()])
        cross_elapsed = ctx.clock.now - t0

        tiers1 = dict(db.stats.get_tiers)
        out = {
            "same_elapsed": same_elapsed,
            "cross_elapsed": cross_elapsed,
            "index_repl_hits": db.stats.index_repl_hits,
            "same_index_repl_hits": same_hits,
            "index_repl_fallbacks": db.stats.index_repl_fallbacks,
            "index_pulls": db.stats.index_pulls,
            "cross_remote_tier_gets":
                tiers1.get("remote", 0) - tiers0.get("remote", 0),
        }
        db.barrier()
        db.close()
        env.finalize()
        return out

    return app


def _run_xgroup_config(index_repl: bool) -> dict:
    results = spmd_run(
        RANKS, _xgroup_app_factory(index_repl),
        system=SUMMITDEV, timeout=300,
    )
    same = max(r["same_elapsed"] for r in results)
    cross = max(r["cross_elapsed"] for r in results)
    return {
        "same_group_ops_per_sec": RANKS * XG_ITERS / same,
        "cross_group_ops_per_sec": RANKS * XG_ITERS / cross,
        "same_group_elapsed_s": same,
        "cross_group_elapsed_s": cross,
        "cross_over_same": round(cross / same, 3),
        "index_repl_hits": sum(r["index_repl_hits"] for r in results),
        "same_index_repl_hits":
            sum(r["same_index_repl_hits"] for r in results),
        "index_repl_fallbacks":
            sum(r["index_repl_fallbacks"] for r in results),
        "index_pulls": sum(r["index_pulls"] for r in results),
        "cross_remote_tier_gets":
            sum(r["cross_remote_tier_gets"] for r in results),
    }


def test_cross_group_read_regression(benchmark):
    def run():
        without = _run_xgroup_config(index_repl=False)
        with_repl = _run_xgroup_config(index_repl=True)

        rep = Report(
            "cross_group — 4 ranks, 2 storage groups, peer reads (KRPS)",
            ["config", "same_KRPS", "cross_KRPS", "cross/same", "1sided"],
        )
        for name, r in (("handler_only", without),
                        ("index_repl", with_repl)):
            rep.add(name, r["same_group_ops_per_sec"] / 1e3,
                    r["cross_group_ops_per_sec"] / 1e3,
                    r["cross_over_same"], r["index_repl_hits"])
        rep.emit()

        section = {
            "gets_per_rank_per_phase": XG_ITERS,
            "group_size": 2,
            "quick": QUICK,
            "without_index_replication": without,
            "with_index_replication": with_repl,
            "one_sided_improvement": round(
                without["cross_group_elapsed_s"]
                / with_repl["cross_group_elapsed_s"], 3),
        }
        write_json("BENCH_READ_PATH.json", {
            "bench": "read_path",
            "ranks": RANKS,
            "phases": PHASES,
            "keys_per_rank": PHASES * KEYS_PER_PHASE,
            "value_bytes": VALLEN,
            "zipf_theta": ZIPF_THETA,
            "cross_group": section,
        })
        return section

    section = run_once(benchmark, run)

    w = section["with_index_replication"]
    wo = section["without_index_replication"]
    # wiring guards (both modes): the one-sided path must carry both
    # peer phases, with handler traffic amortized to ~zero
    assert w["index_repl_hits"] > w["same_index_repl_hits"] > 0, (
        "one-sided path saw zero hits in a phase"
    )
    assert w["index_pulls"] > 0, "no metadata bundles were ever pulled"
    assert wo["index_repl_hits"] == 0  # feature off ⇒ tier never fires
    assert w["cross_remote_tier_gets"] <= 0.05 * RANKS * XG_ITERS, (
        "cross-group gets still riding the owner's handler"
    )
    if not QUICK:
        # the perf gates proper: a same-group peer reads no slower than
        # a cross-group one, with no get punted to the handler;
        # one-sided cross-group gets land within 2x of same-group
        # ones, and beat the handler-only cross-group phase outright
        # (the round-trip they eliminate)
        assert w["index_repl_fallbacks"] == 0
        assert (w["same_group_ops_per_sec"]
                >= 0.9 * w["cross_group_ops_per_sec"]), (
            f"same-group {w['same_group_ops_per_sec']:.0f} ops/s < 0.9x "
            f"cross-group {w['cross_group_ops_per_sec']:.0f} with index "
            "replication"
        )
        assert w["cross_over_same"] <= 2.0, (
            f"cross-group {w['cross_over_same']}x same-group > 2x "
            "with index replication"
        )
        assert section["one_sided_improvement"] >= 1.25, (
            "index replication did not pay for itself: cross-group "
            f"phase only {section['one_sided_improvement']}x faster"
        )
