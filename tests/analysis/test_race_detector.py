"""Synthetic two-thread programs: each HB edge, triggering and not."""

from __future__ import annotations

import threading
from types import SimpleNamespace

from repro.analysis import runtime as rt


class Shared:
    """A plain object carrying annotated shared state."""


def _run(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return threads


def _races(det):
    return [f for f in det.findings() if f.rule == "RACE"]


class TestLockEdge:
    def test_unsynchronized_writes_race(self, detector):
        obj = Shared()

        def writer():
            rt.annotate_write(obj, "x")

        _run(writer, writer)
        (f,) = _races(detector)
        assert "data race on x" in f.message

    def test_lock_synchronized_writes_clean(self, detector):
        obj = Shared()
        lock = rt.make_lock("db.readers")

        def writer():
            with lock:
                rt.annotate_write(obj, "x")

        _run(writer, writer)
        assert _races(detector) == []

    def test_read_write_race(self, detector):
        obj = Shared()

        def writer():
            rt.annotate_write(obj, "x")

        def reader():
            rt.annotate_read(obj, "x")

        _run(writer, reader)
        assert len(_races(detector)) == 1

    def test_concurrent_reads_clean(self, detector):
        obj = Shared()

        def reader():
            rt.annotate_read(obj, "x")

        _run(reader, reader)
        assert _races(detector) == []

    def test_distinct_locations_independent(self, detector):
        obj = Shared()

        def writer_x():
            rt.annotate_write(obj, "x")

        def writer_y():
            rt.annotate_write(obj, "y")

        _run(writer_x, writer_y)
        assert _races(detector) == []


class TestJoinEdge:
    def test_join_orders_child_before_parent(self, detector):
        obj = Shared()

        def child():
            rt.annotate_write(obj, "x")
            detector.finalize_thread()

        t = threading.Thread(target=child)
        t.start()
        t.join()
        detector.absorb_thread(t)
        rt.annotate_write(obj, "x")
        assert _races(detector) == []

    def test_missing_join_edge_races(self, detector):
        obj = Shared()

        def child():
            rt.annotate_write(obj, "x")
            detector.finalize_thread()

        t = threading.Thread(target=child)
        t.start()
        t.join()
        # no absorb_thread: the physical join is invisible to HB
        rt.annotate_write(obj, "x")
        assert len(_races(detector)) == 1


class TestMessageEdge:
    def test_send_recv_orders_accesses(self, detector):
        obj = Shared()
        env = SimpleNamespace()
        handed = threading.Event()

        def sender():
            rt.annotate_write(obj, "x")
            detector.on_send(env)
            handed.set()

        def receiver():
            handed.wait(5)
            detector.on_recv(env)
            rt.annotate_read(obj, "x")

        _run(sender, receiver)
        assert _races(detector) == []

    def test_without_recv_edge_races(self, detector):
        obj = Shared()
        env = SimpleNamespace()
        handed = threading.Event()

        def sender():
            rt.annotate_write(obj, "x")
            detector.on_send(env)
            handed.set()

        def receiver():
            handed.wait(5)
            rt.annotate_read(obj, "x")

        _run(sender, receiver)
        assert len(_races(detector)) == 1


class TestBarrierEdge:
    def test_barrier_orders_phases(self, detector):
        obj = Shared()
        bar = threading.Barrier(2)
        key = object()

        def writer():
            rt.annotate_write(obj, "x")
            detector.on_barrier_arrive(key)
            bar.wait(5)
            detector.on_barrier_depart(key)

        def reader():
            detector.on_barrier_arrive(key)
            bar.wait(5)
            detector.on_barrier_depart(key)
            rt.annotate_read(obj, "x")

        _run(writer, reader)
        assert _races(detector) == []

    def test_without_barrier_hooks_races(self, detector):
        obj = Shared()
        bar = threading.Barrier(2)

        def writer():
            rt.annotate_write(obj, "x")
            bar.wait(5)

        def reader():
            bar.wait(5)
            rt.annotate_read(obj, "x")

        _run(writer, reader)
        assert len(_races(detector)) == 1
