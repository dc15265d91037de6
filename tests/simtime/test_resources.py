"""Timed resource tests: serialization, striping, background workers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.resources import BackgroundWorker, StripedResource, TimedResource
from tests.conftest import assert_free_windows_sorted_disjoint


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_concurrent_reads_do_not_depend_on_call_order(data):
    """Requests that never overlap in virtual time leave the device idle
    at each one's arrival, so each is served on arrival whichever
    thread's call reached the device first.  (Non-empty transfers, hence
    distinct arrival times: a tie at one instant is broken by call
    order, as it must be.)"""
    dev = TimedResource("d", 1e-4, 1e9)
    requests, t = [], 0.0
    for gap, nbytes in data.draw(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e-3, allow_nan=False),
        st.integers(min_value=1, max_value=1_000_000),
    ), max_size=dev.MAX_FREE_WINDOWS // 2)):
        t += gap
        requests.append((t, nbytes))
        t += nbytes / dev.bandwidth_Bps
    for t_req, nbytes in data.draw(st.permutations(requests)):
        end = dev.access_concurrent(t_req, nbytes)
        assert end == pytest.approx(t_req + dev.service_time(nbytes),
                                    rel=0, abs=1e-12)
        assert_free_windows_sorted_disjoint(dev)


class TestTimedResource:
    def test_service_time(self):
        r = TimedResource("d", latency_s=0.001, bandwidth_Bps=1000.0)
        assert r.service_time(0) == pytest.approx(0.001)
        assert r.service_time(1000) == pytest.approx(1.001)

    def test_access_serializes(self):
        r = TimedResource("d", 0.0, 1000.0)
        end1 = r.access(0.0, 1000)  # 1s transfer
        end2 = r.access(0.0, 1000)  # queued behind the first
        assert end1 == pytest.approx(1.0)
        assert end2 == pytest.approx(2.0)
        assert r.available == pytest.approx(2.0)

    def test_access_after_idle(self):
        r = TimedResource("d", 0.0, 1000.0)
        r.access(0.0, 1000)
        end = r.access(5.0, 1000)  # arrives after the device went idle
        assert end == pytest.approx(6.0)

    def test_counters(self):
        r = TimedResource("d", 0.0, 1000.0)
        r.access(0.0, 500)
        r.access(0.0, 500)
        assert r.ops == 2
        assert r.bytes_moved == 1000
        assert r.busy_time == pytest.approx(1.0)

    def test_concurrent_access_shares_bandwidth(self):
        r = TimedResource("d", 0.1, 1000.0)
        end1 = r.access_concurrent(0.0, 1000)
        # second op only queues behind the transfer share, not the latency
        end2 = r.access_concurrent(0.0, 1000)
        assert end1 == pytest.approx(1.1)
        assert end2 == pytest.approx(2.1)
        assert end2 - end1 == pytest.approx(1.0)  # bandwidth-bound spacing

    def test_concurrent_burst_is_bandwidth_bound(self):
        """N reads issued at one instant cannot beat the device: the
        last finishes no earlier than total_bytes / bandwidth later."""
        r = TimedResource("d", 0.1, 1000.0)
        r.access(0.0, 500)  # leaves nothing idle before t=5
        ends = [r.access_concurrent(5.0, 250) for _ in range(8)]
        assert min(ends) == pytest.approx(5.0 + 0.1 + 0.25)
        assert max(ends) == pytest.approx(5.0 + 0.1 + 8 * 0.25)

    def test_concurrent_read_behind_the_horizon_uses_the_idle_window(self):
        """A reader whose thread ran late is charged at its own virtual
        time when the device was idle then, not at the horizon a faster
        thread's later requests pushed out."""
        r = TimedResource("d", 0.1, 1000.0)
        assert r.access_concurrent(10.0, 1000) == pytest.approx(11.1)
        assert r.access_concurrent(2.0, 1000) == pytest.approx(3.1)
        # ... and the window it used is gone: the next one queues
        assert r.access_concurrent(2.0, 8000) == pytest.approx(19.1)
        assert r.available == pytest.approx(19.0)

    @pytest.mark.parametrize("read", ["access", "access_concurrent"])
    def test_call_burst_length_does_not_leak_into_virtual_time(self, read):
        """Two closed-loop "ranks" on one device, replayed with the
        interpreter switching between them every call or every 32
        calls (one rank a whole scheduler slice ahead): the device
        sees the same requests at the same virtual times, so both
        ranks finish when they did — the ``ycsb_c`` leak."""
        def replay(burst: int) -> list:
            dev = TimedResource("nvme", 20e-6, 2e9)
            clocks = [0.0, 0.0]
            for _ in range(512 // burst):
                for rank in (0, 1):
                    for _ in range(burst):
                        clocks[rank] = getattr(dev, read)(
                            clocks[rank] + 100e-6, 64 * 1024)
            return clocks

        for fine, coarse in zip(replay(1), replay(32)):
            assert coarse == pytest.approx(fine, rel=0.05)

    def test_overflow_drops_the_window_furthest_in_the_past(self):
        r = TimedResource("d", 0.0, 1000.0)
        r.MAX_FREE_WINDOWS = 3
        for i in range(1, 6):  # each request leaves [2i-1, 2i] idle behind it
            r.access(2.0 * i, 1000)
        assert r._free == [[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]
        # splitting a window keeps the list sorted, so index 0 is still
        # the oldest window at the next overflow
        r.access(7.25, 500)
        assert r._free == [[5.0, 6.0], [7.0, 7.25], [7.75, 8.0], [9.0, 10.0]]
        r.access(12.0, 1000)
        assert r._free == [[7.0, 7.25], [7.75, 8.0], [9.0, 10.0],
                           [11.0, 12.0]]

    def test_aggregate_saturation(self):
        """N clients hammering one device see ~device bandwidth, not N×."""
        r = TimedResource("nvme", 0.0, 1_000_000.0)
        clients_end = [r.access(0.0, 100_000) for _ in range(10)]
        # total 1 MB at 1 MB/s: last completion ≈ 1s
        assert max(clients_end) == pytest.approx(1.0)


class TestStripedResource:
    def test_invalid_stripes(self):
        with pytest.raises(ValueError):
            StripedResource("s", 0, 0.0, 1.0)

    def test_striped_transfer_parallel(self):
        s = StripedResource("lustre", 4, 0.0, 1000.0)
        end = s.access(0.0, 4000)  # 1000 B per stripe at 1000 B/s
        assert end == pytest.approx(1.0)

    def test_small_op_pays_one_stripe_latency(self):
        s = StripedResource("lustre", 4, 0.5, 1e9)
        assert s.access_one(0.0, 10) == pytest.approx(0.5, abs=1e-6)

    def test_access_one_round_robins(self):
        s = StripedResource("l", 2, 0.1, 1e9)
        s.access_one(0.0, 0)
        s.access_one(0.0, 0)
        assert s.stripes[0].ops == 1
        assert s.stripes[1].ops == 1

    def test_counters_and_reset(self):
        s = StripedResource("l", 2, 0.0, 1000.0)
        s.access(0.0, 2000)
        assert s.ops == 2
        assert s.bytes_moved == 2000

    def test_striping_beats_single_device_at_size(self):
        """Large transfers: the striped store wins (Figure 6's crossover)."""
        single = TimedResource("nvme", 1e-5, 2e9)
        striped = StripedResource("lustre", 8, 5e-3, 1e9)
        small = 4096
        large = 512 * 1024 * 1024
        assert single.service_time(small) < striped.service_time(small)
        assert striped.service_time(large) < single.service_time(large)


class TestBackgroundWorker:
    def test_submit_serializes(self):
        w = BackgroundWorker("bg")
        assert w.schedule(0.0, lambda t: t + 1.0) == pytest.approx(1.0)
        assert w.schedule(0.0, lambda t: t + 1.0) == pytest.approx(2.0)
        assert w.jobs == 2

    def test_submit_after_idle(self):
        w = BackgroundWorker("bg")
        w.schedule(0.0, lambda t: t + 1.0)
        assert w.schedule(10.0, lambda t: t + 1.0) == pytest.approx(11.0)

    def test_schedule_runs_job_with_start(self):
        w = BackgroundWorker("bg")
        seen = []

        def job(start):
            seen.append(start)
            return start + 2.0

        assert w.schedule(1.0, job) == pytest.approx(3.0)
        assert seen == [1.0]
        assert w.available == pytest.approx(3.0)

    def test_schedule_rejects_backwards_job(self):
        w = BackgroundWorker("bg")
        with pytest.raises(ValueError):
            w.schedule(5.0, lambda start: start - 1.0)

    def test_idle_until(self):
        w = BackgroundWorker("bg")
        w.idle_until(4.0)
        assert w.schedule(0.0, lambda t: t + 1.0) == pytest.approx(5.0)

    def test_booked_job_runs_in_an_earlier_idle_window(self):
        """Jobs reach the worker in call order: one enqueued at t=1 after
        a job booked at [10, 12] is served at its own arrival, in the
        idle window before that job, not behind it."""
        w = BackgroundWorker("bg")
        assert w.book(10.0, 2.0) == pytest.approx(10.0)
        assert w.book(1.0, 3.0) == pytest.approx(1.0)
        assert w.available == pytest.approx(12.0)
        assert w.busy_time == pytest.approx(5.0) and w.jobs == 2
        assert_free_windows_sorted_disjoint(w)

    def test_booked_job_that_fits_no_window_goes_to_the_horizon(self):
        w = BackgroundWorker("bg")
        w.book(10.0, 2.0)
        assert w.book(1.0, 20.0) == pytest.approx(12.0)  # [0, 10] too short
        assert w.available == pytest.approx(32.0)

    def test_horizon_job_leaves_its_idle_window_to_booked_ones(self):
        """A job whose length only its run finds out starts at the
        horizon; the gap it leaves behind takes a later booking."""
        w = BackgroundWorker("bg")
        assert w.schedule(5.0, lambda t: t + 1.0) == pytest.approx(6.0)
        assert w.book(0.0, 4.0) == pytest.approx(0.0)
        assert w.schedule(0.0, lambda t: t + 1.0) == pytest.approx(7.0)

    def test_overlap_with_main_timeline(self):
        """Background work does not consume the enqueuer's time."""
        w = BackgroundWorker("bg")
        main_time = 0.5
        end = w.schedule(main_time, lambda t: t + 10.0)
        assert end == pytest.approx(10.5)
        # the main timeline stays where it was; only a full-drain wait
        # (e.g. barrier(SSTABLE)) would advance it to w.available
        assert main_time == 0.5
