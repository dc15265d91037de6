"""Write-path overhaul: group commit, pipelined flush, compaction, and
the WriteBatch surface.

Covers the write API's contract: commit-window coalescing and its cost
model, the two-stage flush pipeline (persistence across reopen, stage
overlap, non-blocking flush, worker accounting), the virtual-time
order of back-pressure, flush retirement and the non-blocking ack drain
against a handler that runs ahead, what a relaxed migration costs and
carries, incremental compaction (one fresh-SSID table per round, correctness, precise
invalidation, major merges dropping tombstones, duty-cycle pacing),
batch durability levels and auto-flush, and the streaming scan_collect
merge.
"""

from __future__ import annotations

import time

import pytest

from repro import FaultPlan, Papyrus, SSTABLE, spmd_run
from repro.core import api, handler
from repro.core.db import (
    COMPACTION_DUTY_CYCLE,
    COMPACTION_MAJOR_EVERY,
    GROUP_COMMIT_BYTES,
    GROUP_COMMIT_INTERVAL,
)
from repro.errors import InvalidOptionError
from repro.mpi.launcher import RankFailure
from repro.nvm.storage import Machine
from repro.simtime.clock import VirtualClock
from repro.simtime.profiles import SUMMITDEV
from repro.sstable.reader import list_ssids
from tests.conftest import small_options


def run1(fn, **kw):
    return spmd_run(1, fn, **kw)[0]


def _record_rounds(db):
    """Spy on ``db``'s compaction rounds: each call appends the SSIDs it
    took out of the table set and the ones it put in."""
    rounds = []
    inner = db._schedule_compaction

    def spy(t_enqueue):
        before = set(db.ssids)
        inner(t_enqueue)
        after = set(db.ssids)
        rounds.append((before - after, after - before))

    db._schedule_compaction = spy
    return rounds


def _fill(db, n, tag="w", vlen=48):
    for i in range(n):
        db.put(f"{tag}{i:04d}".encode(), f"v{i}".encode().ljust(vlen, b"."))


def _check(db, n, tag="w", vlen=48):
    for i in range(n):
        assert db.get(f"{tag}{i:04d}".encode()) == \
            f"v{i}".encode().ljust(vlen, b".")


class TestGroupCommit:
    def test_counters_and_coalescing(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gc", small_options(memtable_capacity=1 << 20))
                _fill(db, 200)
                s = db.stats
                assert s.group_commits >= 1
                assert s.group_commit_coalesced >= 1
                assert s.group_commits + s.group_commit_coalesced == 200
                _check(db, 200)
                db.close()

        run1(app)

    def test_rider_shares_the_openers_durability_charge(self):
        """A put riding an open window pays the CPU op and its memcpy;
        only the opener pays the DRAM durability latency."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gctime", small_options(
                    memtable_capacity=1 << 20))
                t0 = ctx.clock.now
                db.put(b"k0", b"v" * 32)
                t1 = ctx.clock.now
                db.put(b"k1", b"v" * 32)
                t2 = ctx.clock.now
                assert db.stats.group_commits == 1
                assert db.stats.group_commit_coalesced == 1
                cpu = ctx.system.cpu
                assert (t1 - t0) - (t2 - t1) == \
                    pytest.approx(cpu.dram_latency_s)
                db.close()

        run1(app)

    def test_interval_expiry_reopens_window(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gcint", small_options(
                    memtable_capacity=1 << 20))
                for i in range(5):
                    db.put(f"k{i}".encode(), b"v" * 16)
                    ctx.clock.advance(GROUP_COMMIT_INTERVAL)
                assert db.stats.group_commits == 5
                assert db.stats.group_commit_coalesced == 0
                db.close()

        run1(app)

    def test_bytes_budget_reopens_window(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gcbytes", small_options(
                    memtable_capacity=1 << 20))
                # each put overflows the byte budget alone, so every put
                # opens its own window
                _fill(db, 8, vlen=GROUP_COMMIT_BYTES)
                assert db.stats.group_commits == 8
                assert db.stats.group_commit_coalesced == 0
                db.close()

        run1(app)

    def test_bulk_batch_counts_as_one_window(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("gcbulk", small_options())
                with db.batch() as b:
                    for i in range(30):
                        b.put(f"bk{i}".encode(), b"v" * 16)
                assert db.stats.group_commits == 1
                assert db.stats.group_commit_coalesced == 29
                db.close()

        run1(app)


class TestPipelinedFlush:
    def test_flushed_data_survives_reopen(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))

        def writer(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pf", small_options())
                _fill(db, 300)
                db.barrier(SSTABLE)
                db.close()

        def reader(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pf", small_options())
                _check(db, 300)
                n = len(db.scan_local())
                db.close()
                return n

        spmd_run(1, writer, machine=machine)
        assert spmd_run(1, reader, machine=machine)[0] == 300
        machine.close()

    def test_stage_workers_charged(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pfw", small_options())
                _fill(db, 300)
                db.flush()
                assert db.flush_build_worker.busy_time > 0
                assert db.flush_sync_busy_s > 0
                db.close()

        run1(app)

    def test_build_and_sync_stages_overlap(self):
        """Every flush runs one build job (none on the compaction
        worker), and the train finishes sooner than the two stages' busy
        times laid end to end."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pft", small_options(compaction_interval=0))
                t0 = ctx.clock.now
                _fill(db, 400)
                db.flush()
                elapsed = ctx.clock.now - t0
                build = db.flush_build_worker
                assert db.stats.flushes >= 2
                assert build.jobs == db.stats.flushes
                assert db.compaction_worker.jobs == 0
                assert elapsed < build.busy_time + db.flush_sync_busy_s
                db.close()

        run1(app)

    def test_flush_nowait_enqueues_only(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pfnw", small_options(
                    memtable_capacity=1 << 20, compaction_interval=0))
                _fill(db, 50)
                t0 = ctx.clock.now
                db.flush(wait=False)
                t_nowait = ctx.clock.now
                assert db.ssids  # the table was enqueued
                db.flush(wait=True)
                assert ctx.clock.now > t_nowait  # waiting costs time
                assert t_nowait - t0 < ctx.clock.now - t_nowait
                _check(db, 50)
                db.close()

        run1(app)

    def test_api_flush_veneer(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pfapi", small_options())
                db.put(b"k", b"v")
                assert api.papyruskv_flush(db) == 0
                assert db.ssids
                db.close()

        run1(app)


class TestVirtualOrder:
    """A rank's handler runs ahead of its main thread in virtual time
    and leaves work in the flush queue and the mailboxes in call order;
    the rank must not wait for what its own clock has not reached."""

    @staticmethod
    def _rotate_ahead(db, ctx, dt=0.01):
        """Rotate the local MemTable the way the handler would, on a
        clock ``dt`` ahead of the rank's."""
        with db._lock:
            db._rotate_local(VirtualClock(ctx.clock.now + dt))

    def test_a_future_rotation_does_not_stall_the_rank(self):
        """With room for one flush in flight, a handler-side flush
        dated after the rank's now is queued but not in flight on the
        rank's clock, so a rank-main rotation goes through at once; the
        next one stalls exactly until the rank's own flush is durable."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("vostall", small_options(
                    memtable_capacity=1 << 20, flush_queue_capacity=1,
                    compaction_interval=0))
                db.put(b"h", b"x" * 64)
                self._rotate_ahead(db, ctx)
                db.put(b"m", b"y" * 64)
                t0 = ctx.clock.now
                db.flush(wait=False)
                assert ctx.clock.now == t0
                assert db.stats.flush_stalls == 0
                ahead, mine = db.flushing
                assert mine.enqueued == t0 < mine.durable < ahead.enqueued
                db.put(b"n", b"z" * 64)
                db.flush(wait=False)
                assert ctx.clock.now == mine.durable
                assert db.stats.flush_stalls == 1
                db.close()

        run1(app)

    def test_flushes_retire_by_durable_time_reads_stay_newest_first(self):
        """The rank's flush of the newer write is built in the idle
        window before the handler's older, future-dated one, so it is
        durable first and leaves the in-flight count while the older one
        is still queued ahead of it.  A get of the key both hold reads
        the newer value at every point of that timeline."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("voretire", small_options(
                    memtable_capacity=1 << 20, compaction_interval=0))
                db.put(b"k", b"old")
                self._rotate_ahead(db, ctx)
                db.put(b"k", b"new")
                db.flush(wait=False)
                older, newer = db.flushing
                assert newer.durable < older.enqueued
                assert db._in_flight(newer.enqueued) == [newer]
                assert db._in_flight(older.enqueued) == [older]
                for t in (ctx.clock.now, newer.durable, older.enqueued,
                          older.durable):
                    ctx.clock.advance_to(t)
                    assert db.get(b"k") == b"new", t
                    assert db.stats.get_tiers.get("sstable", 0) == (
                        t == older.durable)
                assert db.flushing == []
                db.close()

        run1(app)

    def test_a_non_blocking_drain_takes_only_arrived_acks(self):
        """An ack already in the mailbox but stamped after the rank's
        clock stays there; once the clock has passed its arrival a
        non-blocking drain takes it for the software overhead alone."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("vodrain", small_options())
                db._send_pairs({ctx.world_rank: {b"k": (b"k", b"v", False)}})
                box = db.ack_comm._box(ctx.world_rank)
                deadline = time.monotonic() + 10
                while not box._items:  # the handler acks on its thread
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                arrival = box._items[0].arrival
                t0 = ctx.clock.now
                assert arrival > t0
                db._drain_acks(blocking=False)
                assert ctx.clock.now == t0 and db._unacked
                ctx.clock.advance_to(arrival)
                db._drain_acks(blocking=False)
                assert not db._unacked
                assert ctx.clock.now - arrival == pytest.approx(
                    ctx.system.network.sw_overhead_s, rel=1e-9)
                db.close()

        run1(app)


class TestMigration:
    def test_a_migration_hands_over_the_owners_buffer(self, monkeypatch):
        """Rank 0 stages keys rank 1 owns, two of them twice, until its
        remote MemTable is full.  The dispatcher books packing the
        payload at memcpy rate plus one send overhead — no per-pair
        work — the one carrier holds each key once with its last value,
        in put order, and rank 1's handler starts applying it as it
        lands."""
        served = []
        inner = handler._serve_pairs

        def spy(db, m, source, hclock, cpu):
            served.append((db.rank, hclock.now))
            inner(db, m, source, hclock, cpu)

        monkeypatch.setattr(handler, "_serve_pairs", spy)
        pair_bytes = 4 + 20
        opts = small_options(remote_memtable_capacity=8 * pair_bytes)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("mig", opts)
                if ctx.world_rank == 0:
                    keys = [k for k in (f"m{i:03d}".encode()
                                        for i in range(199, 0, -1))
                            if db.owner_of(k) == 1][:8]
                    sent = []
                    send_at = db.srv_comm.send_at

                    def spy_send(obj, dest, tag, t_send):
                        arrival = send_at(obj, dest, tag, t_send)
                        sent.append((obj, dest, t_send, arrival))
                        return arrival

                    db.srv_comm.send_at = spy_send
                    want = {}
                    for key in keys[:6]:
                        db.put(key, b"x" * 20)
                        want[key] = (key, b"x" * 20, False)
                    for key in keys[1:4:2]:
                        db.put(key, b"y" * 20)
                        want[key] = (key, b"y" * 20, False)
                    assert not sent and db.stats.migrations == 0
                    for key in keys[6:]:
                        db.put(key, b"x" * 20)
                        want[key] = (key, b"x" * 20, False)
                    now = ctx.clock.now
                    pack = 8 * pair_bytes / ctx.system.cpu.memcpy_Bps
                    sw = ctx.system.network.sw_overhead_s
                    assert db.stats.migrations == 1
                    assert db.dispatcher_worker.busy_time == \
                        pytest.approx(pack + sw, rel=1e-9)
                    [(carrier, dest, t_send, arrival)] = sent
                    assert dest == 1
                    assert carrier.pairs == list(want.values())
                    assert t_send == pytest.approx(now + pack, rel=1e-12)
                    db.barrier()
                    out = (arrival, [db.get(k) for k in keys])
                else:
                    db.barrier()
                    out = None
                db.close()
                return out

        (arrival, values), _ = spmd_run(2, app)
        assert values == [b"x" * 20, b"y" * 20, b"x" * 20, b"y" * 20]\
            + [b"x" * 20] * 4
        [(rank, start)] = served
        assert rank == 1
        assert start == pytest.approx(arrival + SUMMITDEV.cpu.kv_op_s,
                                      rel=1e-12)


class TestCompaction:
    def test_one_table_per_round_and_correctness(self):
        """Every round that merged two or more inputs left exactly one
        new table, under an SSID above every input's."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pc", small_options(compaction_interval=2))
                rounds = _record_rounds(db)
                _fill(db, 400)
                db.flush()
                merged = [(i, o) for i, o in rounds if len(i) >= 2]
                assert len(merged) == db.stats.compactions >= 1
                for inputs, outputs in merged:
                    assert len(outputs) == 1
                    assert min(outputs) > max(inputs)
                _check(db, 400)
                db.close()

        run1(app)

    def test_minor_merge_leaves_older_tables(self):
        """A minor pass merges only the L0 delta; tables from earlier
        generations stay on disk untouched."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcminor", small_options(
                    compaction_interval=2))
                rounds = _record_rounds(db)
                _fill(db, 500)
                db.flush()
                assert 2 <= db.stats.compactions < COMPACTION_MAJOR_EVERY
                assert db.stats.compaction_majors == 0
                # several generations of round outputs stay live
                outputs = set().union(*(o for _, o in rounds))
                assert len(outputs & set(db.ssids)) >= 2
                _check(db, 500)
                db.close()

        run1(app)

    def test_empty_major_installs_no_table(self):
        """A major round whose merge drops every record writes no table
        and takes no SSID; the inputs are gone all the same."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcempty", small_options(
                    compaction_interval=0))
                _fill(db, 50)
                db.flush()
                for i in range(50):
                    db.delete(f"w{i:04d}".encode())
                db.flush()
                assert len(db.ssids) == 2
                next_ssid = db._next_ssid
                db._minor_gens = COMPACTION_MAJOR_EVERY - 1  # major due
                db._schedule_compaction(ctx.clock.now)
                assert db.stats.compaction_majors == 1
                assert db.ssids == []
                assert db._next_ssid == next_ssid
                assert list_ssids(db.store, db.rank_dir) == []
                assert all(db.get_or_none(f"w{i:04d}".encode()) is None
                           for i in range(50))
                assert db.scan_local() == []
                db.close()

        run1(app)

    def test_major_merge_drops_tombstones(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcmajor", small_options(
                    compaction_interval=2))
                _fill(db, 200)
                for i in range(0, 200, 2):
                    db.delete(f"w{i:04d}".encode())
                # churn until a major pass has consumed the tombstones
                _fill(db, 1200, tag="x")
                db.flush()
                s = db.stats
                assert s.compaction_majors >= 1
                assert s.compaction_majors == \
                    s.compactions // COMPACTION_MAJOR_EVERY
                live = db.scan_local()
                keys = {k for k, _ in live}
                assert not any(
                    f"w{i:04d}".encode() in keys for i in range(0, 200, 2)
                )
                assert all(
                    f"w{i:04d}".encode() in keys for i in range(1, 200, 2)
                )
                db.close()

        run1(app)

    def test_precise_reader_invalidation(self):
        """Compaction drops cached readers for its inputs only; survivor
        tables keep their cached readers."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcinv", small_options(
                    compaction_interval=0))
                _fill(db, 400)
                db.flush()
                # touch every table so readers get cached
                _check(db, 400)
                cached_before = dict(db.block_cache._readers)
                inputs, tables = list(db._l0), set(db.ssids)
                db._schedule_compaction(ctx.clock.now)
                cached_after = dict(db.block_cache._readers)
                # inputs' readers are gone; the survivors keep theirs, and
                # the only new one is the output's, resolved at install
                assert not ({s for _, s in cached_after} & set(inputs))
                assert {s for _, s in cached_after.keys() - cached_before
                        } == set(db.ssids) - tables
                assert all(cached_after[k] is rd
                           for k, rd in cached_before.items()
                           if k in cached_after)
                _check(db, 400)
                db.close()

        run1(app)

    def test_duty_cycle_paces_worker(self):
        """Each round is followed by an idle gap sized to the duty
        cycle, so the compaction worker is busy for at most that
        fraction of its timeline."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcrate", small_options(
                    compaction_interval=2))
                _fill(db, 400)
                db.flush()
                w = db.compaction_worker
                assert w.jobs > 0
                assert w.busy_time <= w.available * COMPACTION_DUTY_CYCLE
                db.close()

        run1(app)

    def test_multirank_compaction_visibility(self):
        """Peers still resolve keys after compactions churn
        the owner's table set (fresh-SSID invariant)."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("pcmr", small_options(compaction_interval=2))
                me = ctx.world_rank
                for i in range(200):
                    db.put(f"r{me}:{i:04d}".encode(), b"v" * 32)
                db.barrier(SSTABLE)
                other = (me + 1) % ctx.nranks
                for i in range(0, 200, 10):
                    assert db.get(f"r{other}:{i:04d}".encode()) == b"v" * 32
                db.barrier()
                db.close()

        spmd_run(4, app, timeout=120)


class TestWriteBatch:
    def test_durability_flush_persists(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("wbf", small_options(
                    memtable_capacity=1 << 20))
                with db.batch(durability="flush") as b:
                    for i in range(40):
                        b.put(f"d{i}".encode(), b"v" * 16)
                assert db.ssids  # local shard hit the SSTable tier
                assert b.written == 40
                db.close()

        run1(app)

    def test_durability_fence_acks_remote(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("wbfe", small_options())
                me = ctx.world_rank
                with db.batch(durability="fence") as b:
                    for i in range(40):
                        b.put(f"f{me}:{i}".encode(), b"v" * 16)
                assert not db._unacked  # fence drained them
                db.barrier()
                other = (me + 1) % ctx.nranks
                for i in range(40):
                    assert db.get(f"f{other}:{i}".encode()) == b"v" * 16
                db.barrier()
                db.close()

        spmd_run(2, app, timeout=120)

    def test_max_bytes_autoflush(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("wbmb", small_options())
                with db.batch(max_bytes=256) as b:
                    for i in range(64):
                        b.put(f"a{i:02d}".encode(), b"v" * 28)
                        assert b._bytes < 256 + 32  # bounded buffer
                assert db.stats.bulk_batches > 1  # flushed mid-stream
                assert b.written == 64
                db.close()

        run1(app)

    def test_delete_parity_and_written(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("wbd", small_options())
                with db.batch() as b:
                    b.put(b"keep", b"v")
                    b.put(b"gone", b"v")
                with db.batch() as b:
                    b.delete(b"gone")
                    del b[b"never-there"]
                assert b.written == 2
                assert db.get_or_none(b"keep") == b"v"
                assert db.get_or_none(b"gone") is None
                db.close()

        run1(app)

    def test_invalid_arguments(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("wbinv", small_options())
                with pytest.raises(InvalidOptionError):
                    db.batch(durability="eventually")
                with pytest.raises(InvalidOptionError):
                    db.batch(max_bytes=0)
                db.close()

        run1(app)


class TestScanCollectStreaming:
    def test_streamed_merge_equals_sorted_union(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scs", small_options())
                me = ctx.world_rank
                mine = {}
                for i in range(60):
                    k = f"s{me}:{i:04d}".encode()
                    mine[k] = f"val{me}-{i}".encode()
                    db.put(k, mine[k])
                db.barrier(SSTABLE)
                # tiny chunk: force several broadcast rounds per rank
                got = db.scan_collect(chunk=7)
                keys = [k for k, _ in got]
                assert keys == sorted(keys)
                assert len(got) == 60 * ctx.nranks
                for k, v in mine.items():
                    assert dict(got)[k] == v
                # bounded scans agree with the full merge
                lo, hi = keys[10], keys[-10]
                window = db.scan_collect(lo, hi, chunk=7)
                assert window == [kv for kv in got if lo <= kv[0] < hi]
                db.barrier()
                db.close()

        spmd_run(4, app, timeout=120)

    def test_empty_scan(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("scse", small_options())
                assert db.scan_collect() == []
                db.close()

        spmd_run(2, app, timeout=120)


class TestFlushCrashPoints:
    """Kill a rank at each pipeline stage boundary; on restart no
    acknowledged durable state may be wrong and no partial table may be
    admitted silently."""

    SITES = ["flush.freeze", "flush.build", "flush.sync", "flush.retire"]

    def test_crash_at_each_stage_recovers(self, tmp_path):
        model = {
            f"fc{i:03d}".encode(): f"fv{i:03d}".encode() * 6
            for i in range(120)
        }

        def workload(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flcrash", small_options())
                for k, v in sorted(model.items()):
                    db.put(k, v)
                db.barrier(SSTABLE)
                db.close()

        # record the pipeline sites rank 1 actually visits
        recorder = FaultPlan(seed=11, record_sites=True)
        m0 = Machine(SUMMITDEV, 2, base_dir=str(tmp_path / "rec"))
        spmd_run(2, workload, machine=m0, faults=recorder, timeout=120)
        m0.close()
        seen = recorder.sites_seen
        picks = []
        for stage in self.SITES:
            match = [
                s for s in seen
                if s.startswith(stage) and ("rank1" in s)
            ]
            assert match, f"no {stage} site recorded: {seen[:10]}"
            # crash the *second* visit where one exists, so a completed
            # first flush is already durable when the crash lands
            picks.append(match[min(1, len(match) - 1)])

        def audit(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flcrash", small_options())
                db.coll_comm.barrier()
                wrong = []
                if ctx.world_rank == 0:
                    for k, v in model.items():
                        got = db.get_or_none(k)
                        if got is not None and got != v:
                            wrong.append(k)
                db.barrier()
                db.close()
                return wrong

        for i, site in enumerate(picks):
            machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path / f"c{i}"))
            plan = FaultPlan(seed=11).crash(site, rank=1)
            with pytest.raises(RankFailure) as ei:
                spmd_run(2, workload, machine=machine, faults=plan,
                         timeout=120)
            kinds = {type(e).__name__ for _, e in ei.value.failures}
            assert "RankCrashError" in kinds, (site, kinds)
            assert spmd_run(2, audit, machine=machine, timeout=120)[0] == [], \
                f"wrong value after crash at {site}"
            machine.close()

    def test_no_partial_table_after_sync_crash(self, tmp_path):
        """A crash mid-sync leaves either no table or a repairable one —
        reopen must admit or rebuild, never serve a torn table."""

        def workload(ctx):
            with Papyrus(ctx) as env:
                db = env.open("torn", small_options())
                _fill(db, 150)
                db.barrier(SSTABLE)
                db.close()

        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        plan = FaultPlan(seed=13).crash("flush.sync", rank=0)
        with pytest.raises(RankFailure):
            spmd_run(1, workload, machine=machine, faults=plan, timeout=120)

        def reopen(ctx):
            with Papyrus(ctx) as env:
                db = env.open("torn", small_options())
                # every admitted table answers point gets coherently
                ok = 0
                for i in range(150):
                    got = db.get_or_none(f"w{i:04d}".encode())
                    if got is not None:
                        assert got == f"v{i}".encode().ljust(48, b".")
                        ok += 1
                db.close()
                return ok

        assert spmd_run(1, reopen, machine=machine, timeout=120)[0] >= 0
        machine.close()
