"""Observability roll-up tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Papyrus, SSTABLE, spmd_run
from repro.core.db import DbStats
from repro.metrics import database_metrics, format_report, machine_metrics
from tests.conftest import small_options


def _run_and_collect(nranks=2):
    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("met", small_options())
            for i in range(80):
                db.put(f"k{i:03d}".encode(), b"v" * 40)
            db.barrier(SSTABLE)
            for i in range(0, 80, 5):
                db.get(f"k{i:03d}".encode())
            dbm = database_metrics(db)
            db.close()
            mm = machine_metrics(ctx.machine)
            return dbm, mm

    return spmd_run(nranks, app)


class TestDatabaseMetrics:
    def test_operation_counts(self):
        (dbm, _), _ = _run_and_collect()
        assert dbm["puts"] == 80
        assert dbm["gets"] == 16
        assert dbm["local_puts"] + dbm["remote_puts"] == 80
        assert dbm["local_gets"] + dbm["remote_gets"] == 16

    def test_lsm_counters(self):
        (dbm, _), _ = _run_and_collect()
        assert dbm["flushes"] >= 1
        assert dbm["sstables"] >= 1

    def test_background_busy_time(self):
        (dbm, _), _ = _run_and_collect()
        # flush work runs on the pipelined build/sync workers; the
        # compaction worker only charges for actual compactions
        assert dbm["flush_build_busy_s"] > 0
        assert dbm["flush_sync_busy_s"] > 0

    def test_cache_sections_present(self):
        (dbm, _), _ = _run_and_collect()
        assert "local_cache" in dbm
        assert "remote_cache" in dbm
        assert dbm["local_cache"]["entries"] >= 0

    def test_every_dbstats_counter_is_exported(self):
        """DbStats is the one declaration: each field shows up in the
        metrics dict under its own name, with the live value."""
        (dbm, _), _ = _run_and_collect()
        names = {f.name for f in dataclasses.fields(DbStats)}
        assert names <= set(dbm)
        assert isinstance(dbm["get_tiers"], dict)
        assert isinstance(dbm["flush_stall_s"], float)
        for name in names - {"get_tiers", "flush_stall_s"}:
            assert isinstance(dbm[name], int), name

    def test_key_set_is_the_one_callers_read(self):
        """The runner, ``format_report`` and operators' scripts read
        these by name: a refactor of the layers beneath may not add,
        drop or rename one."""
        (dbm, _), _ = _run_and_collect()
        sections = {
            "local_cache": "entries bytes hits misses evictions",
            "remote_cache": "entries bytes hits misses",
            "block_cache": "entries bytes capacity_bytes hits misses "
                           "evictions inserts low_priority_inserts "
                           "invalidations",
        }
        for name, keys in sections.items():
            assert set(dbm[name]) == set(keys.split()), name
        assert set(dbm["latency"]) == {"put", "get"}
        # ("race_detect" joins only while the detector is enabled)
        assert set(dbm) - {"race_detect"} == (
            {f.name for f in dataclasses.fields(DbStats)} | set(sections)
            | set("name rank sstables memtable_bytes remote_memtable_bytes "
                  "compaction_busy_s dispatcher_busy_s flush_build_busy_s "
                  "flush_sync_busy_s latency".split())
        )
        assert len(dataclasses.fields(DbStats)) == 39

    def test_get_tiers_sum(self):
        (dbm, _), _ = _run_and_collect()
        assert sum(dbm["get_tiers"].values()) == dbm["gets"]


class TestMachineMetrics:
    def test_nvm_devices_counted(self):
        (_, mm), _ = _run_and_collect()
        dom = mm["nvm"]["domain0"]
        assert dom["write"]["bytes"] > 0  # flushed SSTables
        assert dom["write"]["ops"] > 0

    def test_lustre_untouched_without_checkpoint(self):
        (_, mm), _ = _run_and_collect()
        assert mm["lustre"]["write"]["bytes"] == 0


class TestReport:
    def test_format_report(self):
        (dbm, _), _ = _run_and_collect()
        text = format_report(dbm)
        assert "database 'met'" in text
        assert "flushes" in text
        assert "get tiers" in text
        # the replication line only renders when the plane saw traffic
        assert "replication:" not in text
        dbm["replica_msgs"] = 9
        dbm["rank_deaths"] = 2
        text = format_report(dbm)
        assert "replication: 9 fan-out msgs" in text
        assert "2 deaths declared" in text
