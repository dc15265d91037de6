"""Latency tracking tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Papyrus, spmd_run
from repro.core.latency import LatencyReservoir, LatencyTracker
from tests.conftest import small_options


class TestReservoir:
    def test_empty(self):
        r = LatencyReservoir()
        assert r.mean == 0.0
        assert r.percentile(50) == 0.0
        assert r.count == 0

    def test_basic_stats(self):
        r = LatencyReservoir()
        for v in (1.0, 2.0, 3.0, 4.0):
            r.observe(v)
        assert r.count == 4
        assert r.mean == pytest.approx(2.5)
        assert r.max_seen == 4.0
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 4.0

    def test_median(self):
        r = LatencyReservoir()
        for v in range(1, 102):  # 1..101
            r.observe(float(v))
        assert r.percentile(50) == pytest.approx(51.0)

    def test_invalid_inputs(self):
        r = LatencyReservoir()
        with pytest.raises(ValueError):
            r.observe(-1.0)
        with pytest.raises(ValueError):
            r.percentile(101)
        with pytest.raises(ValueError):
            LatencyReservoir(0)

    def test_reservoir_bounds_memory(self):
        r = LatencyReservoir(capacity=64)
        for v in range(10_000):
            r.observe(float(v))
        assert len(r._samples) == 64
        assert r.count == 10_000
        # the sample median should be in the right neighbourhood
        assert 2_000 < r.percentile(50) < 8_000

    def test_summary_keys(self):
        r = LatencyReservoir()
        r.observe(1.0)
        s = r.summary()
        assert set(s) == {"count", "mean_s", "p50_s", "p95_s", "p99_s",
                          "max_s"}


class TestTracker:
    def test_per_op_isolation(self):
        t = LatencyTracker()
        t.observe("put", 1.0)
        t.observe("get", 2.0)
        s = t.summary()
        assert s["put"]["mean_s"] == 1.0
        assert s["get"]["mean_s"] == 2.0
        assert set(s) == {"put", "get"}

    def test_summary(self):
        t = LatencyTracker()
        t.observe("put", 1.0)
        assert set(t.summary()) == {"put"}


class TestDatabaseIntegration:
    def test_ops_recorded(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("lat", small_options())
                for i in range(40):
                    db.put(f"k{i}".encode(), b"v")
                db.barrier()
                for i in range(20):
                    db.get(f"k{i}".encode())
                db.delete(b"k0")
                summary = db.latency.summary()
                db.close()
                return summary

        s = spmd_run(2, app)[0]
        assert s["put"]["count"] == 40
        assert s["get"]["count"] == 20
        assert s["delete"]["count"] == 1
        assert s["get"]["p99_s"] >= s["get"]["p50_s"] >= 0

    def test_remote_gets_slower_than_local(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("lat", small_options())
                keys = [f"k{i}".encode() for i in range(200)]
                local = [k for k in keys if db.owner_of(k) == ctx.world_rank]
                remote = [k for k in keys if db.owner_of(k) != ctx.world_rank]
                for k in keys:
                    db.put(k, b"v" * 16)
                db.barrier()
                t_local = LatencyTracker()
                for k in local[:30]:
                    t0 = ctx.clock.now
                    db.get(k)
                    t_local.observe("get", ctx.clock.now - t0)
                t_remote = LatencyTracker()
                for k in remote[:30]:
                    t0 = ctx.clock.now
                    db.get(k)
                    t_remote.observe("get", ctx.clock.now - t0)
                db.close()
                return (t_local.summary()["get"]["mean_s"],
                        t_remote.summary()["get"]["mean_s"])

        local_mean, remote_mean = spmd_run(2, app)[0]
        assert remote_mean > local_mean


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_percentiles_bracket_data(values):
    r = LatencyReservoir(capacity=1000)
    for v in values:
        r.observe(v)
    assert min(values) <= r.percentile(50) <= max(values)
    assert r.percentile(0) == min(values)
    assert r.percentile(100) == max(values)
    assert r.max_seen == max(values)
