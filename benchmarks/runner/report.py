"""Turn a run's raw observations into the named metrics of ``spec``."""

from __future__ import annotations

from typing import Dict, List, Optional

from benchmarks.runner.client import Measurement
from benchmarks.runner.spec import END_TO_END, PER_LAYER

#: get tiers (``GetResult.tier``) folded into the four reported shares
_TIER_GROUP = {
    "local_mt": "memory", "flushing": "memory", "remote_mt": "memory",
    "inflight": "memory",
    "local_cache": "cache", "remote_cache": "cache",
    "sstable": "sstable",
    "remote": "remote", "shared_sstable": "remote",
    "index_sstable": "remote",
}


def percentile(sorted_xs: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_xs:
        return 0.0
    k = max(0, min(len(sorted_xs) - 1, int(p / 100.0 * len(sorted_xs))))
    return sorted_xs[k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _less_steal(wall_s: float, steal_s: float) -> float:
    """``wall_s`` less the seconds the hypervisor kept the CPU from the
    process meanwhile.  Steal is counted in 10 ms ticks, so a short
    interval is never corrected below a tenth of itself."""
    return max(wall_s - steal_s, 0.1 * wall_s)


def timed_wall_s(m: Measurement) -> float:
    """Wall seconds of the slower rank's timed phase, less steal."""
    return _less_steal(max(m.rank_wall_s), m.timed_steal_s)


def end_to_end(m: Measurement) -> Dict[str, float]:
    """Every ``END_TO_END`` metric of one untraced run."""
    nvm_written = _nvm(m.machine_after, "write", "bytes")
    out = {
        "wall_ops_per_s": _ratio(m.ops, timed_wall_s(m)),
        "virt_ops_per_s": _ratio(m.ops, max(m.rank_virt_s)),
        "cpu_us_per_op": _ratio(m.cpu_s * 1e6, m.ops),
        # whole life of the database (preload and warm-up included), so
        # both are defined on the read-only workload too
        "write_amp": _ratio(nvm_written, m.user_bytes_put),
        "space_amp": _ratio(m.disk_bytes, m.live_user_bytes),
        "peak_rss_mb": m.peak_rss_mb,
        "setup_s": _less_steal(m.setup_s, m.setup_steal_s),
    }
    return {name: out[name] for name, *_ in END_TO_END}


def _nvm(machine: dict, direction: str, field: str) -> float:
    return sum(dom[direction][field] for dom in machine.get("nvm", {}).values())


class _Delta:
    """Timed-phase change of the store's public counters, over ranks."""

    def __init__(self, m: Measurement) -> None:
        self.m = m

    def db(self, *path: str) -> float:
        """Sum over ranks of ``after - before`` at ``path`` of
        ``db.metrics()``."""
        total = 0.0
        for before, after in zip(self.m.before, self.m.after):
            total += _dig(after, path) - _dig(before, path)
        return total

    def nvm(self, direction: str, field: str) -> float:
        return (_nvm(self.m.machine_after, direction, field)
                - _nvm(self.m.machine_before, direction, field))

    def tiers(self) -> Dict[str, float]:
        groups = dict.fromkeys(("memory", "cache", "sstable", "remote"), 0.0)
        for before, after in zip(self.m.before, self.m.after):
            for tier, n in after.get("get_tiers", {}).items():
                n -= before.get("get_tiers", {}).get(tier, 0)
                groups[_TIER_GROUP.get(tier, "remote")] += n
        return groups


def lsm_counters(m: Measurement) -> Dict[str, float]:
    """Flushes, compactions and migrations of one round, in the timed
    phase and over the database's life: what decides its write cost."""
    d = _Delta(m)
    out = {}
    for name in ("flushes", "compactions", "migrations"):
        out[name] = d.db(name)
        out[f"{name}_life"] = sum(_dig(a, (name,)) for a in m.after)
    return out


def _dig(d: dict, path) -> float:
    for key in path:
        d = d.get(key, {}) if isinstance(d, dict) else {}
    return d if isinstance(d, (int, float)) else 0.0


def per_layer(m: Measurement,
              untraced_ops_per_s: Optional[float]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run.

    ``untraced_ops_per_s`` is the same workload's throughput measured
    without the wrappers, for ``runner.trace_overhead_frac``.
    """
    from benchmarks.runner.tracing import rollup

    d = _Delta(m)
    roll = rollup(m.tracer)
    names, layers = roll["names"], roll["layers"]

    def layer_self(layer: str) -> float:
        return sum(layers.get(layer, {}).values())

    def span(name: str, field: str = "calls") -> float:
        return names.get(name, {}).get(field, 0)

    out: Dict[str, float] = {}
    for family in ("read", "write", "scan"):
        xs = sorted(m.latencies.get(family, ()))
        out[f"wall_{family}_p50_us"] = percentile(xs, 50) * 1e6
        out[f"wall_{family}_p99_us"] = percentile(xs, 99) * 1e6
        out[f"wall_{family}_samples"] = len(xs)

    gets = m.kinds.get("read", 0)
    scans = d.db("scans")
    tiers = d.tiers()
    tier_total = sum(tiers.values())
    recv = names.get("mpi.comm.Comm.recv", {})
    barrier = names.get("mpi.comm.Comm.barrier", {})
    # a rank thread inside recv or barrier is waiting for another
    # thread, not working: reported apart from mpi.comm's self time
    rank_wait = recv.get("rank_self_s", 0.0) + barrier.get("rank_self_s", 0.0)
    handler_idle = recv.get("self_s", 0.0) - recv.get("rank_self_s", 0.0)
    comm_self = layer_self("mpi.comm") - rank_wait - handler_idle
    handler = [s for s in m.virt_spans if s.lane == "handler"]
    blocks = d.db("scan_blocks_read")
    bc_hits, bc_misses = d.db("block_cache", "hits"), d.db("block_cache", "misses")
    lc_hits, lc_misses = d.db("local_cache", "hits"), d.db("local_cache", "misses")
    rc_hits, rc_misses = d.db("remote_cache", "hits"), d.db("remote_cache", "misses")
    rank_wall = sum(m.rank_wall_s)
    traced_rate = _ratio(m.ops, timed_wall_s(m))
    rank_attributed = sum(
        by_role.get("rank", 0.0) for by_role in layers.values())

    out.update({
        "core.db.wall_self_s": layer_self("core.db"),
        "core.db.get_tier.memory_frac": _ratio(tiers["memory"], tier_total),
        "core.db.get_tier.cache_frac": _ratio(tiers["cache"], tier_total),
        "core.db.get_tier.sstable_frac": _ratio(tiers["sstable"], tier_total),
        "core.db.get_tier.remote_frac": _ratio(tiers["remote"], tier_total),
        "core.db.group_commits": d.db("group_commits"),
        "core.db.coalesced_per_commit": _ratio(
            d.db("group_commit_coalesced"), d.db("group_commits")),
        "core.db.flush_stalls": d.db("flush_stalls"),
        "core.db.flush_stall_virt_s": d.db("flush_stall_s"),
        "core.db.flush_build_virt_busy_s": d.db("flush_build_busy_s"),
        "core.db.flush_sync_virt_busy_s": d.db("flush_sync_busy_s"),
        "core.db.dispatcher_virt_busy_s": d.db("dispatcher_busy_s"),
        "core.db.migrations": d.db("migrations"),
        "core.db.remote_retries": d.db("remote_retries"),
        # the store's own reservoirs cover the database's whole life
        "core.db.virt_read_p99_us": max(
            _dig(a, ("latency", "get", "p99_s")) for a in m.after) * 1e6,
        "core.db.virt_write_p99_us": max(
            _dig(a, ("latency", "put", "p99_s")) for a in m.after) * 1e6,
        "core.db.replica_msgs": d.db("replica_msgs"),
        "core.db.replica_pairs_per_msg": _ratio(
            d.db("replica_pairs"), d.db("replica_msgs")),
        "core.memtable.calls": span("core.memtable.MemTable.put")
        + span("core.memtable.MemTable.get"),
        "core.memtable.wall_self_s": layer_self("core.memtable"),
        "core.handler.msgs": len(handler),
        "core.handler.virt_busy_s": sum(s.duration for s in handler),
        "core.handler.wall_self_s": roll["handler"]["self_s"],
        "mpi.comm.msgs": span("mpi.comm.payload_nbytes"),
        "mpi.comm.bytes": span("mpi.comm.payload_nbytes", "units"),
        "mpi.comm.wall_self_s": max(0.0, comm_self),
        "mpi.comm.recv_wait_wall_s": recv.get("rank_self_s", 0.0),
        "mpi.comm.barrier_wait_wall_s": barrier.get("rank_self_s", 0.0),
        "sstable.writer.tables": span("sstable.writer.encode_table"),
        "sstable.writer.bytes": span("sstable.writer.encode_table", "units"),
        "sstable.writer.wall_self_s": layer_self("sstable.writer"),
        "sstable.compaction.compactions": d.db("compactions"),
        "sstable.compaction.partition_jobs":
            d.db("compaction_partition_jobs"),
        "sstable.compaction.majors": d.db("compaction_majors"),
        "sstable.compaction.bytes_rewritten":
            span("sstable.writer.write_tables_ordered", "units"),
        "sstable.compaction.virt_busy_s": d.db("compaction_busy_s"),
        "sstable.compaction.wall_self_s": layer_self("sstable.compaction"),
        "sstable.reader.gets": span("sstable.reader.SSTableReader.get"),
        "sstable.reader.tables_probed_per_get": _ratio(
            span("sstable.reader.SSTableReader.get"), gets),
        "sstable.reader.fence_skips": d.db("fence_skips"),
        "sstable.reader.bloom_skips": d.db("bloom_skips"),
        # a load_* call that reached the device, not one served from
        # the reader's own memory
        "sstable.reader.meta_loads":
            span("sstable.reader.SSTableReader.load_bloom", "with_children")
            + span("sstable.reader.SSTableReader.load_index",
                   "with_children"),
        "sstable.reader.wall_self_s": layer_self("sstable.reader"),
        "sstable.block_cache.hits": bc_hits,
        "sstable.block_cache.misses": bc_misses,
        "sstable.block_cache.hit_frac": _ratio(bc_hits, bc_hits + bc_misses),
        "sstable.block_cache.evictions": d.db("block_cache", "evictions"),
        "sstable.block_cache.invalidations":
            d.db("block_cache", "invalidations"),
        "sstable.block_cache.wall_self_s": layer_self("sstable.block_cache"),
        "core.scan.scans": scans,
        "core.scan.blocks_read_per_scan": _ratio(blocks, scans),
        "core.scan.tables_pruned_per_scan": _ratio(
            d.db("scan_tables_pruned"), scans),
        "core.scan.pairs_per_block": _ratio(m.scan_pairs, blocks),
        "core.scan.wall_self_s": layer_self("core.scan"),
        "nvm.write_ops": d.nvm("write", "ops"),
        "nvm.write_bytes": d.nvm("write", "bytes"),
        "nvm.read_ops": d.nvm("read", "ops"),
        "nvm.read_bytes": d.nvm("read", "bytes"),
        "nvm.write_virt_busy_s": d.nvm("write", "busy_s"),
        "nvm.read_virt_busy_s": d.nvm("read", "busy_s"),
        "nvm.read_bytes_per_get": _ratio(d.nvm("read", "bytes"), gets),
        "nvm.posixfs.wall_self_s": layer_self("nvm.posixfs"),
        "util.checksum.bytes": span("util.checksum.crc32c", "units"),
        "util.checksum.wall_self_s": layer_self("util.checksum"),
        "util.bloom.probes": span("util.bloom.BloomFilter.__contains__"),
        "util.bloom.wall_self_s": layer_self("util.bloom"),
        "util.lru.local_hit_frac": _ratio(lc_hits, lc_hits + lc_misses),
        "util.lru.remote_hit_frac": _ratio(rc_hits, rc_hits + rc_misses),
        "util.lru.evictions": d.db("local_cache", "evictions"),
        "core.membership.heartbeats_sent": d.db("heartbeats_sent"),
        "runner.failed_ops_frac": _ratio(
            m.failed + m.check_failed, m.ops + m.checks),
        "runner.trace_overhead_frac": (
            1.0 - _ratio(traced_rate, untraced_ops_per_s)
            if untraced_ops_per_s else 0.0),
        "runner.gen_wall_s": m.gen_wall_s,
        "runner.wall_self_s": layer_self("runner"),
        "runner.rank_wall_s": rank_wall,
        "runner.handler_busy_wall_s": roll["handler"]["busy_s"],
        # share of the rank threads' timed wall time that lies inside
        # a span, hence is charged to some named layer's self time
        # (waiting in recv/barrier included)
        "runner.attributed_frac": _ratio(rank_attributed, rank_wall),
        "runner.spans": len(m.tracer.spans),
    })
    return {name: out[name] for name, *_ in PER_LAYER}
