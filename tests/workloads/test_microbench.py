"""Microbenchmark application tests (the artifact's basic/workload/cr)."""

from __future__ import annotations

from repro.mpi.launcher import spmd_run
from repro.simtime.profiles import CORI, SUMMITDEV
from repro.workloads import basic_app, cr_app, workload_app
from tests.conftest import small_options


class TestBasicApp:
    def test_phases_timed(self):
        def app(ctx):
            return basic_app(ctx, 16, 256, 40, small_options())

        res = spmd_run(2, app, timeout=240)
        for r in res:
            assert r.put_time > 0
            assert r.barrier_time > 0
            assert r.get_time > 0
            assert r.iters == 40

    def test_lustre_repository_slower_get(self):
        """Figure 6's core contrast: gets on NVM beat gets on Lustre."""

        def nvm(ctx):
            return basic_app(ctx, 16, 4096, 30, small_options(),
                             repository="nvm")

        def lustre(ctx):
            return basic_app(ctx, 16, 4096, 30, small_options(),
                             repository="lustre")

        r_nvm = spmd_run(2, nvm, system=SUMMITDEV, timeout=240)[0]
        r_lustre = spmd_run(2, lustre, system=SUMMITDEV, timeout=240)[0]
        assert r_nvm.get_time < r_lustre.get_time

    def test_skip_barrier(self):
        def app(ctx):
            return basic_app(ctx, 16, 128, 10, small_options(),
                             skip_barrier=True)

        r = spmd_run(1, app, timeout=240)[0]
        assert r.barrier_time == 0


class TestWorkloadApp:
    def test_mixed_ratio_counted(self):
        def app(ctx):
            return workload_app(ctx, 16, 256, 40, update_pct=50,
                                options=small_options())

        res = spmd_run(2, app, timeout=240)
        for r in res:
            assert r.reads + r.updates == 40
            assert r.reads > 0 and r.updates > 0
            assert r.mixed_time > 0

    def test_read_only_ratio(self):
        def app(ctx):
            return workload_app(ctx, 16, 256, 30, update_pct=0,
                                options=small_options())

        r = spmd_run(2, app, timeout=240)[0]
        assert r.updates == 0 and r.reads == 30

    def test_protected_variant_faster_or_equal(self):
        """100/0+P (remote cache on) should not be slower than 100/0.

        Virtual time is only interleaving-independent up to shared
        device horizons (``TimedResource.available`` advances in
        wall-clock access order), and with the block-cached read path
        the measured phase is cheap enough that scheduling jitter can
        skew any single run by tens of percent.  Two noise filters keep
        the assertion's direction intact: each prot run is *paired*
        with an immediately-following plain run (so slow-machine phases
        hit both sides of the ratio), and the assertion is on the
        median of five paired ratios — robust to two outliers in either
        direction.
        """

        def plain(ctx):
            return workload_app(ctx, 16, 2048, 200, 0,
                                options=small_options())

        def prot(ctx):
            return workload_app(ctx, 16, 2048, 200, 0,
                                options=small_options(),
                                protect_readonly=True)

        def measure(fn):
            return max(r.mixed_time
                       for r in spmd_run(2, fn, system=CORI, timeout=240))

        ratios = sorted(measure(prot) / measure(plain) for _ in range(5))
        assert ratios[2] <= 1.1, ratios


class TestCrApp:
    def test_all_three_phases(self):
        def app(ctx):
            return cr_app(ctx, 16, 512, 30, small_options())

        res = spmd_run(2, app, timeout=300)
        for r in res:
            assert r.checkpoint_time > 0
            assert r.restart_time > 0
            assert r.restart_rd_time > 0

    def test_redistribution_slower_than_plain_restart(self):
        """Figure 10: restart+RD pays put-path work on top of the I/O."""

        def app(ctx):
            return cr_app(ctx, 16, 2048, 40, small_options())

        res = spmd_run(2, app, timeout=300)
        r = res[0]
        assert r.restart_rd_time > r.restart_time
