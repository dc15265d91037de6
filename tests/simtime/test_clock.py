"""Virtual clock tests."""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro import SEQUENTIAL, SSTABLE, Papyrus
from repro.mpi.launcher import spmd_run
from repro.simtime.clock import VirtualClock
from tests.conftest import small_options


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.advance(0.5) == 2.0
        assert c.now == 2.0

    def test_negative_advance_rejected(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            c.advance(-1)

    def test_advance_to_forward_only(self):
        c = VirtualClock(10.0)
        assert c.advance_to(5.0) == 10.0  # never backwards
        assert c.advance_to(15.0) == 15.0

    def test_zero_advance_allowed(self):
        c = VirtualClock(1.0)
        assert c.advance(0.0) == 1.0


class TestOneWriterPerClock:
    """A clock is advanced only by the thread that owns it (a rank's
    main thread, its handler's own clock), so it needs no lock."""

    def test_every_clock_has_one_writer(self, monkeypatch):
        writers = defaultdict(set)   # id(clock) -> writer thread names
        clocks = {}                  # id(clock) -> clock (kept alive)
        mu = threading.Lock()
        advance, advance_to = VirtualClock.advance, VirtualClock.advance_to

        def record(clock):
            with mu:
                clocks[id(clock)] = clock
                writers[id(clock)].add(threading.current_thread().name)

        def spy_advance(self, dt):
            record(self)
            return advance(self, dt)

        def spy_advance_to(self, t):
            record(self)
            return advance_to(self, t)

        monkeypatch.setattr(VirtualClock, "advance", spy_advance)
        monkeypatch.setattr(VirtualClock, "advance_to", spy_advance_to)

        def app(ctx):
            r, other = ctx.world_rank, 1 - ctx.world_rank
            tiers = set()
            with Papyrus(ctx) as env:
                # group_size=2: both ranks in one storage group, so a get
                # of the other rank's flushed keys walks its tables
                db = env.open("one-writer", small_options(group_size=2))
                for i in range(300):        # relaxed puts, flushes
                    db.put(f"k{r}-{i:03d}".encode(), bytes([65 + r]) * 64)
                db.barrier(SSTABLE)
                db.set_consistency(SEQUENTIAL)
                for i in range(40):         # sequential puts
                    db.put(f"s{r}-{i:02d}".encode(), b"s" * 32)
                db.barrier()
                for i in range(0, 300, 7):  # local and peer-walk gets
                    tiers.add(db.get_ex(f"k{r}-{i:03d}".encode()).tier)
                    tiers.add(db.get_ex(f"k{other}-{i:03d}".encode()).tier)
                for i in range(40):         # remote gets (MemTable)
                    tiers.add(db.get_ex(f"s{other}-{i:02d}".encode()).tier)
                db.flush()
                scanned = sum(1 for _ in db.scan_global())
                compactions = db.stats.compactions
                db.close()
                rep = env.open("one-writer-r2",
                               small_options(replicas=2, write_quorum=2))
                for i in range(60):
                    rep.put(f"r{r}-{i:02d}".encode(), b"r" * 16)
                rep.fence()
                rep.barrier()
                got = [rep.get(f"r{other}-{i:02d}".encode())
                       for i in range(60)]
                rep.close()
            return tiers, scanned, compactions, got

        out = spmd_run(2, app)
        tiers = set().union(*(o[0] for o in out))
        assert {"local_mt", "sstable", "shared_sstable"} <= tiers, tiers
        assert "remote" in tiers or "remote_mt" in tiers, tiers
        assert all(o[1] == 2 * 340 for o in out)
        assert sum(o[2] for o in out) > 0   # a compaction ran
        assert all(o[3] == [b"r" * 16] * 60 for o in out)
        shared = {clocks[k].label: sorted(v) for k, v in writers.items()
                  if len(v) > 1}
        assert shared == {}, shared
