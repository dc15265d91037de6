"""Lock-order and lock-graph deadlock findings on synthetic programs."""

from __future__ import annotations

from repro.analysis import runtime as rt
from repro.analysis.deadlock import LockGraph


def _rules(det):
    return [f.rule for f in det.findings()]


class TestLockOrderCheck:
    def test_inverted_acquisition_flags(self, detector):
        low = rt.make_rlock("db.state")      # level 10
        high = rt.make_lock("sstable.reader")  # level 65
        with high:
            with low:
                pass
        fs = [f for f in detector.findings() if f.rule == "LOCK_ORDER"]
        (f,) = fs
        assert "db.state" in f.message and "sstable.reader" in f.message

    def test_canonical_acquisition_clean(self, detector):
        low = rt.make_rlock("db.state")
        high = rt.make_lock("sstable.reader")
        with low:
            with high:
                pass
        assert "LOCK_ORDER" not in _rules(detector)
        assert "DEADLOCK" not in _rules(detector)

    def test_reentrant_rlock_not_flagged(self, detector):
        lock = rt.make_rlock("db.state")
        with lock:
            with lock:
                pass
        assert detector.findings() == []


class TestDeadlockCycles:
    def test_abba_same_class_flags(self, detector):
        # two sstable.reader instances: equal level, so no LOCK_ORDER noise,
        # but the per-instance graph still sees the ABBA cycle
        a = rt.make_lock("sstable.reader")
        b = rt.make_lock("sstable.reader")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        fs = [f for f in detector.findings() if f.rule == "DEADLOCK"]
        assert len(fs) == 1
        assert a.label in fs[0].message and b.label in fs[0].message
        # both acquisition stacks are attached for debugging
        assert len(fs[0].details) >= 2

    def test_consistent_order_clean(self, detector):
        a = rt.make_lock("sstable.reader")
        b = rt.make_lock("sstable.reader")
        for _ in range(2):
            with a:
                with b:
                    pass
        assert "DEADLOCK" not in _rules(detector)

    def test_three_way_cycle(self):
        g = LockGraph()
        g.add_edge("a", "b", "sa", "sb")
        g.add_edge("b", "c", "sb", "sc")
        g.add_edge("c", "a", "sc", "sa")
        (cycle,) = g.find_cycles()
        assert set(cycle) == {"a", "b", "c"}

    def test_cycle_reported_once(self):
        g = LockGraph()
        g.add_edge("a", "b", "s1", "s2")
        g.add_edge("b", "a", "s3", "s4")
        g.add_edge("a", "b", "s5", "s6")  # duplicate edge, first site wins
        assert len(g.find_cycles()) == 1
        assert len(g.deadlock_findings()) == 1
