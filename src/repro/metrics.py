"""Run observability: roll up counters from every layer.

The simulator keeps counters everywhere — device resources
(ops/bytes/busy time), background workers, caches, per-database
operation statistics.  :func:`database_metrics` and
:func:`machine_metrics` roll them into plain dicts; :func:`format_report`
renders the operator-facing summary.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

from repro.simtime.resources import StripedResource, TimedResource


def _device_metrics(dev) -> Dict[str, Any]:
    if isinstance(dev, StripedResource):
        return {
            "kind": "striped",
            "stripes": dev.nstripes,
            "ops": dev.ops,
            "bytes": dev.bytes_moved,
            "busy_s": sum(s.busy_time for s in dev.stripes),
        }
    assert isinstance(dev, TimedResource)
    return {
        "kind": "device",
        "ops": dev.ops,
        "bytes": dev.bytes_moved,
        "busy_s": dev.busy_time,
    }


def database_metrics(db) -> Dict[str, Any]:
    """Counters for one rank's view of a database."""
    stats = db.stats
    out: Dict[str, Any] = {
        "name": db.name,
        "rank": db.rank,
        "sstables": len(db.ssids),
        "memtable_bytes": db.local_mt.size_bytes,
        "remote_memtable_bytes": db.remote_mt.size_bytes,
        "compaction_busy_s": db.compaction_worker.busy_time,
        "dispatcher_busy_s": db.dispatcher_worker.busy_time,
        "flush_build_busy_s": db.flush_build_worker.busy_time,
        "flush_sync_busy_s": db.flush_sync_busy_s,
    }
    # every DbStats counter under its field name: declared once, there
    for f in fields(stats):
        value = getattr(stats, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    if db.local_cache is not None:
        out["local_cache"] = {
            "entries": len(db.local_cache),
            "bytes": db.local_cache.size_bytes,
            "hits": db.local_cache.hits,
            "misses": db.local_cache.misses,
            "evictions": db.local_cache.evictions,
        }
    out["remote_cache"] = {
        "entries": len(db.remote_cache),
        "bytes": db.remote_cache.size_bytes,
        "hits": db.remote_cache.hits,
        "misses": db.remote_cache.misses,
    }
    # the device's occupancy and budget, this database's traffic counts
    out["block_cache"] = db.block_cache.counters(db.cache_counts)
    out["latency"] = db.latency.summary()
    from repro.analysis.runtime import get_detector

    det = get_detector()
    if det is not None:
        out["race_detect"] = det.summary()
    return out


def machine_metrics(machine) -> Dict[str, Any]:
    """Device-level counters for the whole machine."""
    out: Dict[str, Any] = {"nvm": {}, "lustre": {}}
    for i, (w, r) in enumerate(zip(machine._nvm_write, machine._nvm_read)):
        out["nvm"][f"domain{i}"] = {
            "write": _device_metrics(w),
            "read": _device_metrics(r),
        }
    out["lustre"] = {
        "write": _device_metrics(machine._lustre_write),
        "read": _device_metrics(machine._lustre_read),
    }
    return out


def format_report(db_metrics: Dict[str, Any]) -> str:
    """Human-readable one-database report."""
    m = db_metrics
    lines = [
        f"database {m['name']!r} rank {m['rank']}:",
        f"  ops: {m['puts']} puts ({m['remote_puts']} remote), "
        f"{m['gets']} gets ({m['remote_gets']} remote), "
        f"{m['deletes']} deletes",
        f"  lsm: {m['flushes']} flushes, {m['compactions']} compactions, "
        f"{m['migrations']} migrations, {m['sstables']} live SSTables",
        f"  background: compaction {m['compaction_busy_s'] * 1e3:.3f} ms, "
        f"dispatcher {m['dispatcher_busy_s'] * 1e3:.3f} ms, "
        f"flush build {m.get('flush_build_busy_s', 0.0) * 1e3:.3f} ms, "
        f"sync {m.get('flush_sync_busy_s', 0.0) * 1e3:.3f} ms (virtual)",
    ]
    if m.get("group_commits") or m.get("flush_stalls") \
            or m.get("compaction_majors"):
        lines.append(
            f"  write path: {m.get('group_commits', 0)} commit windows "
            f"({m.get('group_commit_coalesced', 0)} coalesced puts), "
            f"{m.get('flush_stalls', 0)} flush stalls "
            f"({m.get('flush_stall_s', 0.0) * 1e3:.3f} ms), "
            f"{m.get('compaction_majors', 0)} major compactions"
        )
    if m.get("bulk_batches"):
        lines.append(
            f"  bulk: {m['bulk_batches']} batches, {m['bulk_keys']} keys, "
            f"{m['bulk_owner_msgs']} per-owner messages"
        )
    if (m.get("corruptions_detected") or m.get("tables_quarantined")
            or m.get("tables_rebuilt") or m.get("remote_timeouts")):
        lines.append(
            f"  robustness: {m['corruptions_detected']} corruptions "
            f"detected, {m['tables_rebuilt']} tables rebuilt, "
            f"{m['tables_quarantined']} quarantined, "
            f"{m['remote_retries']} remote retries "
            f"({m['remote_timeouts']} timeouts)"
        )
    if m.get("replica_msgs") or m.get("rank_deaths") \
            or m.get("replica_pairs_applied"):
        lines.append(
            f"  replication: {m.get('replica_msgs', 0)} fan-out msgs "
            f"({m.get('replica_pairs', 0)} pairs sent, "
            f"{m.get('replica_pairs_applied', 0)} applied), "
            f"{m.get('heartbeats_sent', 0)} heartbeats, "
            f"{m.get('epoch_rejections', 0)} epoch rejections, "
            f"{m.get('rank_deaths', 0)} deaths declared, "
            f"{m.get('rereplicated_pairs', 0)} pairs re-replicated, "
            f"{m.get('failover_gets', 0)} failover gets"
        )
    if m.get("get_tiers"):
        tiers = ", ".join(f"{k}={v}" for k, v in sorted(m["get_tiers"].items()))
        lines.append(f"  get tiers: {tiers}")
    if "local_cache" in m:
        c = m["local_cache"]
        lines.append(
            f"  local cache: {c['entries']} entries, "
            f"{c['hits']}/{c['hits'] + c['misses']} hits"
        )
    if m.get("fence_skips") or m.get("bloom_skips"):
        lines.append(
            f"  read path: {m['fence_skips']} fence skips, "
            f"{m['bloom_skips']} bloom skips"
        )
    if m.get("scans"):
        lines.append(
            f"  scan path: {m['scans']} scans, "
            f"{m.get('scan_tables_pruned', 0)} tables pruned, "
            f"{m.get('scan_blocks_read', 0)} blocks read, "
            f"{m.get('scan_chunks_shipped', 0)} chunks shipped "
            f"(peak {m.get('scan_peak_buffered', 0)} pairs buffered)"
        )
    if "block_cache" in m:
        b = m["block_cache"]
        lines.append(
            f"  block cache: {b['entries']} blocks "
            f"({b['bytes'] / 1024:.0f} KB), "
            f"{b['hits']}/{b['hits'] + b['misses']} hits, "
            f"{b['evictions']} evictions"
        )
    return "\n".join(lines)
