"""YCSB workload-suite tests."""

from __future__ import annotations

import pytest

from repro.mpi.launcher import spmd_run
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    WORKLOAD_A,
    WORKLOAD_D,
    YcsbWorkload,
    ZipfianGenerator,
    run_ycsb,
)
from tests.conftest import small_options


class TestZipfian:
    def test_range(self):
        z = ZipfianGenerator(100, seed=1)
        for _ in range(1000):
            assert 0 <= z.next() < 100

    def test_skew_toward_head(self):
        z = ZipfianGenerator(1000, seed=2)
        draws = [z.next() for _ in range(5000)]
        head = sum(1 for d in draws if d < 100)  # hottest 10%
        assert head > 2500  # far more than the uniform 10%

    def test_deterministic(self):
        a = ZipfianGenerator(50, seed=3)
        b = ZipfianGenerator(50, seed=3)
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)


class TestWorkloadDefinitions:
    def test_core_set(self):
        assert set(CORE_WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_mixes_sum_to_100(self):
        for w in CORE_WORKLOADS.values():
            assert (w.read_pct + w.update_pct + w.insert_pct
                    + w.rmw_pct + w.scan_pct) == 100

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbWorkload("bad", 50, 10, 0, 0)
        with pytest.raises(ValueError):
            YcsbWorkload("bad", 0, 0, 5, 0, scan_pct=95, max_scan_len=0)

    def test_d_reads_latest(self):
        assert WORKLOAD_D.distribution == "latest"

    def test_e_is_scan_heavy(self):
        from repro.workloads.ycsb import WORKLOAD_E

        assert WORKLOAD_E.scan_pct == 95
        assert WORKLOAD_E.insert_pct == 5
        assert WORKLOAD_E.max_scan_len > 0


class TestRunYcsb:
    @pytest.mark.parametrize("name", ["A", "C", "F"])
    def test_workload_runs(self, name):
        w = CORE_WORKLOADS[name]

        def app(ctx):
            return run_ycsb(ctx, w, record_count=40, op_count=40,
                            value_size=128, options=small_options())

        res = spmd_run(2, app, timeout=240)
        for r in res:
            assert r.ops == 40
            assert r.reads + r.updates + r.inserts + r.rmws == 40
            assert r.run_time > 0

    def test_workload_c_is_read_only(self):
        def app(ctx):
            return run_ycsb(ctx, CORE_WORKLOADS["C"], record_count=30,
                            op_count=30, value_size=64,
                            options=small_options())

        res = spmd_run(2, app, timeout=240)
        assert all(r.updates == r.inserts == r.rmws == 0 for r in res)

    def test_workload_d_inserts(self):
        def app(ctx):
            return run_ycsb(ctx, WORKLOAD_D, record_count=30, op_count=60,
                            value_size=64, options=small_options(), seed=5)

        res = spmd_run(2, app, timeout=240)
        assert sum(r.inserts for r in res) > 0

    def test_mix_fractions_roughly_honoured(self):
        def app(ctx):
            return run_ycsb(ctx, WORKLOAD_A, record_count=50, op_count=200,
                            value_size=64, options=small_options())

        res = spmd_run(1, app, timeout=240)[0]
        assert 0.35 < res.reads / res.ops < 0.65
        assert 0.35 < res.updates / res.ops < 0.65
