"""Failure injection: storage corruption, protocol violations, aborts.

A production KVS must fail loudly and precisely, not silently return
wrong data.  These tests damage on-disk state and runtime invariants
and assert the failure surfaces as the right exception.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import FaultPlan, Papyrus, SEQUENTIAL, SSTABLE, spmd_run
from repro.core import handler
from repro.core import messages as msg
from repro.errors import CorruptionError, RemoteTimeoutError, StorageError
from repro.faults import RankCrashError
from repro.mpi.launcher import RankFailure
from repro.nvm.posixfs import PosixStore
from repro.nvm.storage import Machine
from repro.simtime.profiles import SUMMITDEV
from repro.sstable.reader import SSTableReader
from repro.sstable.format import Record, parse_index
from repro.simtime.resources import TimedResource
from tests.conftest import flip_byte, small_options, write_table
from tests.core.test_replication import _survivor_close

#: CI's fault matrix re-runs this module under several seeds
FAULT_SEED = int(os.environ.get("PKV_FAULT_SEED", "7"))


@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))


class TestStorageCorruption:
    def _write_table(self, store):
        recs = [Record(f"k{i:02d}".encode(), b"v" * 8) for i in range(20)]
        write_table(store, "t", 1, recs)
        return recs

    def test_missing_data_file(self, store):
        self._write_table(store)
        os.remove(store.path("t/0000000001.ssd"))
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(StorageError):
            rd.get(b"k00", 0.0)

    def test_missing_index_file_binary_search(self, store):
        self._write_table(store)
        os.remove(store.path("t/0000000001.ssi"))
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(StorageError):
            rd.get(b"k00", 0.0)

    def test_truncated_bloom(self, store):
        self._write_table(store)
        p = store.path("t/0000000001.bf")
        blob = open(p, "rb").read()
        with open(p, "wb") as f:
            f.write(blob[:10])
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(ValueError):
            rd.get(b"k00", 0.0)

    def test_corrupt_index_magic(self, store):
        self._write_table(store)
        p = store.path("t/0000000001.ssi")
        with open(p, "r+b") as f:
            f.write(b"\x00\x00\x00\x00")
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(ValueError):
            rd.get(b"k00", 0.0)

    def test_db_get_survives_foreign_junk_files(self, tmp_path):
        """Unrelated files in the rank directory are ignored."""
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("junk", small_options())
                db.put(b"k", b"v")
                db.barrier(SSTABLE)
                # drop junk into the rank dir
                db.store.write(f"{db.rank_dir}/notes.txt", b"junk", 0.0)
                db.store.write(f"{db.rank_dir}/12345.ssd", b"junk", 0.0)
                db.close()
                db2 = env.open("junk", small_options())
                assert db2.get(b"k") == b"v"
                db2.close()

        spmd_run(1, app, machine=machine)
        machine.close()


class TestRankFailures:
    def test_exception_in_one_rank_reported_precisely(self):
        class AppError(RuntimeError):
            pass

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("fail", small_options())
                db.put(b"k", b"v")
                if ctx.world_rank == 1:
                    raise AppError("injected")
                db.barrier()
                db.close()

        with pytest.raises(RankFailure) as ei:
            spmd_run(3, app, timeout=60)
        kinds = {type(e).__name__ for _, e in ei.value.failures}
        assert "AppError" in kinds

    def test_failure_before_collective_open(self):
        def app(ctx):
            if ctx.world_rank == 0:
                raise ValueError("early death")
            with Papyrus(ctx) as env:
                env.open("never", small_options())

        with pytest.raises(RankFailure):
            spmd_run(2, app, timeout=60)

    def test_timeout_reported(self):
        import threading

        def app(ctx):
            if ctx.world_rank == 0:
                # simulate a wedged rank (never participates again)
                threading.Event().wait(20)
            ctx.comm.barrier()

        with pytest.raises((TimeoutError, RankFailure)):
            spmd_run(2, app, timeout=3)


class TestHandlerCrash:
    def test_handler_crash_aborts_run_loudly(self, capfd):
        """A poisoned request that kills a handler must fail the whole
        run instead of hanging the requesters — by the handler's own
        abort, with its traceback on stderr, not by the launcher's
        watchdog (which raises the same RankFailure after the timeout
        when a handler skips the message and the requester hangs)."""
        from repro.core import messages as msg

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("crash", small_options())
                db.coll_comm.barrier()
                if ctx.world_rank == 0:
                    # protocol violation: an object the handler rejects
                    db.srv_comm.send(object(), 1, tag=0)
                    # now try a real request against the dead handler
                    db.put(b"k", b"v")
                    key = next(
                        f"k{i}".encode() for i in range(200)
                        if db.owner_of(f"k{i}".encode()) == 1
                    )
                    db.set_consistency(2)  # keep relaxed
                    db._put_sync({1: [(key, b"v", False)]})  # would hang
                db.barrier()
                db.close()

        with pytest.raises(RankFailure):
            spmd_run(2, app, timeout=20)
        err = capfd.readouterr().err
        assert "TypeError: handler got unexpected message" in err, err


class TestPersistentReservation:
    def test_cori_zero_copy_across_jobs(self, tmp_path):
        """§4.1: with a persistent burst-buffer reservation (no trim),
        a database created in one job is reopened zero-copy by the next."""
        from repro.simtime.profiles import CORI

        machine = Machine(CORI, 2, base_dir=str(tmp_path))

        def job1(ctx):
            with Papyrus(ctx) as env:
                db = env.open("reserved", small_options())
                for i in range(40):
                    db.put(f"k{i}".encode(), b"v" * 16)
                db.barrier()
                db.close()

        def job2(ctx):
            with Papyrus(ctx) as env:
                db = env.open("reserved", small_options())
                for i in range(40):
                    assert db.get(f"k{i}".encode()) == b"v" * 16
                db.close()

        spmd_run(2, job1, system=CORI, machine=machine)
        # NO trim_nvm(): the reservation persists across jobs
        spmd_run(2, job2, system=CORI, machine=machine)
        machine.close()


class TestSnapshotDamage:
    def test_restart_with_deleted_snapshot_rank_dir(self, tmp_path):
        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def create(ctx):
            with Papyrus(ctx) as env:
                db = env.open("snapdmg", small_options())
                for i in range(30):
                    db.put(f"k{i}".encode(), b"v" * 16)
                db.barrier()
                db.checkpoint("dmg").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)

        spmd_run(2, create, machine=machine)
        # damage: remove one rank's snapshot directory entirely
        lustre_root = machine.lustre_store().root
        import shutil

        shutil.rmtree(
            os.path.join(lustre_root, "ckpt/dmg/db_snapdmg/gen1/rank1"),
            ignore_errors=True,
        )

        def restart(ctx):
            with Papyrus(ctx) as env:
                db, ev = env.restart("dmg", "snapdmg", small_options())
                ev.wait(ctx.clock)
                db.coll_comm.barrier()
                # rank 1's shard is gone; rank 0's survives
                present = sum(
                    1 for i in range(30)
                    if db.get_or_none(f"k{i}".encode()) is not None
                )
                db.close()
                return present

        res = spmd_run(2, restart, machine=machine, timeout=120)
        assert 0 < res[0] < 30  # partial recovery, no crash, no wrong data
        machine.close()

    def test_restart_missing_manifest(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                with pytest.raises(StorageError):
                    env.restart("never-existed", "nodb", small_options())

        spmd_run(1, app, machine=machine)
        machine.close()


class TestFaultPlanStorage:
    """Silent storage damage must surface as typed errors, never as a
    wrong value, and the recovery ladder must win it back."""

    def _write_db(self, machine, faults=None, name="flt", n=300, nranks=1):
        # big enough to flush several SSTables through a 4 KB memtable,
        # so quarantine poisons a *range*, not the whole keyspace
        model = {
            f"fk{i:03d}".encode(): f"fv{i:03d}".encode() * 12
            for i in range(n)
        }

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open(name, small_options())
                for k, v in sorted(model.items()):
                    db.put(k, v)
                db.barrier(SSTABLE)
                db.close()

        spmd_run(nranks, app, machine=machine, faults=faults, timeout=120)
        return model

    def test_missing_sidecars_rebuilt_on_reopen(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        model = self._write_db(machine)

        def damage_and_read(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                victim = next(
                    f for f in db.store.listdir(db.rank_dir)
                    if f.endswith(".ssi")
                )
                base = victim[:-4]
                db.close()

                def block_index():
                    blob, _ = db.store.read(f"{db.rank_dir}/{base}.ssi", 0.0)
                    footer = parse_index(blob)[1]
                    return footer.block_keys, footer.block_first

                written = block_index()
                assert written[0] and written[1][0] == 0
                os.remove(db.store.path(f"{db.rank_dir}/{base}.ssi"))
                os.remove(db.store.path(f"{db.rank_dir}/{base}.bf"))
                db2 = env.open("flt", small_options())
                assert db2.stats.tables_rebuilt >= 1
                # the rebuild re-derives the index through encode_table,
                # so it names the same first key for every block
                assert block_index() == written
                for k, v in model.items():
                    assert db2.get(k) == v
                db2.close()

        spmd_run(1, damage_and_read, machine=machine)
        machine.close()

    def test_bit_flip_never_returns_wrong_value(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        plan = FaultPlan(seed=FAULT_SEED).bit_flip(".ssd", nth=1)
        # single-table workload: the damaged table is never re-read (by
        # compaction) inside the writer run itself
        model = self._write_db(machine, faults=plan, n=80)
        assert any("bit_flip" in f for f in plan.fired)

        def read(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                detected = 0
                for k, v in model.items():
                    try:
                        got = db.get_or_none(k)
                    except CorruptionError:
                        detected += 1
                        continue
                    assert got is None or got == v, "silent wrong value!"
                db._closed = True  # skip collective close bookkeeping
                return detected

        res = spmd_run(1, read, machine=machine)
        assert res[0] >= 1  # the damaged block was detected, not served
        machine.close()

    def test_verify_quarantines_then_degrades_precisely(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        model = self._write_db(machine)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                # flip one byte of the newest table's data file on disk
                victim = sorted(
                    f for f in db.store.listdir(db.rank_dir)
                    if f.endswith(".ssd")
                )[-1]
                p = db.store.path(f"{db.rank_dir}/{victim}")
                blob = bytearray(open(p, "rb").read())
                blob[len(blob) // 2] ^= 0x10
                with open(p, "wb") as f:
                    f.write(bytes(blob))
                report = db.verify()  # no checkpoint: quarantine rung
                assert report["quarantined"], report
                assert db.stats.corruptions_detected >= 1
                assert db.stats.tables_quarantined >= 1
                hits = degraded = 0
                for k, v in model.items():
                    try:
                        got = db.get_or_none(k)
                    except CorruptionError:
                        degraded += 1
                        continue
                    if got is not None:
                        assert got == v
                        hits += 1
                # keys outside the damaged table still serve; keys that
                # would have reached it degrade loudly
                assert degraded > 0
                assert hits > 0
                # quarantined files are renamed, not deleted
                assert any(
                    f.endswith(".quar") for f in db.store.listdir(db.rank_dir)
                )
                db._closed = True

        spmd_run(1, app, machine=machine)
        machine.close()

    def test_verify_restores_from_checkpoint(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))

        def app(ctx):
            model = {
                f"ck{i:03d}".encode(): f"cv{i:03d}".encode() * 4
                for i in range(60)
            }
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                for k, v in sorted(model.items()):
                    db.put(k, v)
                db.barrier(SSTABLE)
                db.checkpoint("fixit").wait(ctx.clock)
                db.coll_comm.barrier()
                victim = sorted(
                    f for f in db.store.listdir(db.rank_dir)
                    if f.endswith(".ssd")
                )[-1]
                p = db.store.path(f"{db.rank_dir}/{victim}")
                blob = bytearray(open(p, "rb").read())
                blob[len(blob) // 3] ^= 0x20
                with open(p, "wb") as f:
                    f.write(bytes(blob))
                report = db.verify()  # ladder ends at the checkpoint rung
                assert report["rebuilt"], report
                assert not report["quarantined"]
                assert db.stats.tables_rebuilt >= 1
                for k, v in model.items():
                    assert db.get(k) == v
                db.close()

        spmd_run(1, app, machine=machine, timeout=120)
        machine.close()

    @pytest.mark.parametrize("suffix", [".ssd", ".ssi"])
    def test_torn_flush_write_never_serves_an_older_value(self, tmp_path,
                                                          suffix):
        """A flush whose SSData or index write tears (the write returns,
        half the bytes persist), then a restart: a get of one of the
        table's keys raises — never returns the value the table
        overwrote — and a scrub quarantines it (one rank, no checkpoint:
        no rung can rebuild it), after which its whole range raises."""
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        keys = [f"tk{i:02d}".encode() for i in range(30)]
        # the second flush tears: table 2 overwrites every key of table 1
        plan = FaultPlan(seed=FAULT_SEED).torn_write(suffix, nth=2)

        def write(ctx):
            with Papyrus(ctx) as env:
                db = env.open("torn", small_options())
                for gen in (b"old", b"new"):
                    for k in keys:
                        db.put(k, gen + k * 8)
                    db.barrier(SSTABLE)
                assert db.ssids == [1, 2]
                db.close()

        spmd_run(1, write, machine=machine, faults=plan, timeout=120)
        assert any(f.startswith("torn_write ") and suffix in f
                   for f in plan.fired), plan.fired

        def read(ctx):
            with Papyrus(ctx) as env:
                db = env.open("torn", small_options())

                def newest_or_raise():
                    served = 0
                    for k in keys:
                        try:
                            got = db.get_or_none(k)
                        except CorruptionError:  # TornWriteError included
                            continue
                        assert got == b"new" + k * 8, (k, got)
                        served += 1
                    return served

                before = newest_or_raise()
                report = db.verify()  # no peer, no checkpoint
                after = newest_or_raise()
                db._closed = True
                return before, report, after

        before, report, after = spmd_run(1, read, machine=machine)[0]
        assert before < len(keys)  # the torn table was detected
        assert report == {"ok": [1], "rebuilt": [], "quarantined": [2]}
        assert after == 0          # its whole range degrades loudly
        machine.close()

    def test_verify_on_open_quarantines_a_flipped_table(self, tmp_path):
        """``Options(verify_on_open=True)`` checks every retained table
        at open: a bit flipped on disk since the last run is found
        before any get, the table is quarantined and its range raises."""
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        model = self._write_db(machine)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                victim = sorted(
                    f for f in db.store.listdir(db.rank_dir)
                    if f.endswith(".ssd")
                )[-1]
                db.close()
                flip_byte(db.store, f"{db.rank_dir}/{victim}",
                          offset=1000 + FAULT_SEED)
                db = env.open("flt", small_options(verify_on_open=True))
                opened = (db.stats.corruptions_detected,
                          db.stats.tables_quarantined,
                          db.store.exists(f"{db.rank_dir}/{victim}.quar"))
                served = raised = 0
                for k, v in model.items():
                    try:
                        got = db.get_or_none(k)
                    except CorruptionError:
                        raised += 1
                        continue
                    assert got == v, k
                    served += 1
                db._closed = True
                return opened, served, raised

        (detected, quarantined, moved), served, raised = spmd_run(
            1, app, machine=machine)[0]
        assert (detected, quarantined, moved) == (1, 1, True)
        assert raised > 0 and served > 0
        machine.close()

    def test_transient_read_error_heals_on_retry(self, tmp_path):
        machine = Machine(SUMMITDEV, 1, base_dir=str(tmp_path))
        model = self._write_db(machine)
        # exactly one read of a data file fails, then the device recovers
        plan = FaultPlan(seed=FAULT_SEED).io_error(".ssd", op="read", count=1)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("flt", small_options())
                report = db.verify()
                assert not report["quarantined"], report
                for k, v in model.items():
                    assert db.get(k) == v
                db.close()

        spmd_run(1, app, machine=machine, faults=plan)
        machine.close()


class TestFaultPlanMessages:
    """Lost, duplicated, and delayed runtime messages."""

    def _pick_remote_key(self, db, owner):
        return next(
            f"mk{i}".encode() for i in range(500)
            if db.owner_of(f"mk{i}".encode()) == owner
        )

    def test_dropped_reply_is_retried(self):
        plan = FaultPlan(seed=FAULT_SEED).drop("GetReply", nth=1)
        opts = small_options(remote_timeout=0.2, remote_retries=2)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("msg", opts)
                key = self._pick_remote_key(db, owner=1)
                if ctx.world_rank == 1:
                    db.put(key, b"remote-value")
                db.barrier()
                retries = 0
                if ctx.world_rank == 0:
                    assert db.get(key) == b"remote-value"
                    retries = db.stats.remote_retries
                    assert db.stats.remote_timeouts >= 1
                db.barrier()
                db.close()
                return retries

        res = spmd_run(2, app, faults=plan, timeout=120)
        assert res[0] >= 1

    def test_dropped_reply_zero_retries_raises(self):
        plan = FaultPlan(seed=FAULT_SEED).drop("GetReply", nth=1, count=99)
        opts = small_options(remote_timeout=0.2, remote_retries=0)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("msg", opts)
                key = self._pick_remote_key(db, owner=1)
                if ctx.world_rank == 1:
                    db.put(key, b"v")
                db.barrier()
                if ctx.world_rank == 0:
                    db.get(key)  # reply always dropped: must time out
                db.barrier()
                db.close()

        with pytest.raises(RankFailure) as ei:
            spmd_run(2, app, faults=plan, timeout=120)
        kinds = {type(e).__name__ for _, e in ei.value.failures}
        assert "RemoteTimeoutError" in kinds

    def test_dropped_ack_retransmits_idempotently(self):
        plan = FaultPlan(seed=FAULT_SEED).drop("AckMsg", nth=1)
        opts = small_options(remote_timeout=0.2, remote_retries=2)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("msg", opts)
                keys = [
                    f"ak{i}".encode() for i in range(200)
                    if db.owner_of(f"ak{i}".encode()) != ctx.world_rank
                ][:30]
                for k in keys:
                    db.put(k, b"migrated")
                db.fence()  # blocks on acks; the dropped one retransmits
                db.barrier()
                for k in keys:
                    assert db.get(k) == b"migrated"
                db.barrier()
                db.close()
                return db.stats.remote_retries

        res = spmd_run(2, app, faults=plan, timeout=120)
        assert sum(res) >= 1

    def test_duplicate_migrate_applied_once(self):
        plan = FaultPlan(seed=FAULT_SEED).duplicate("PairsMsg", nth=1)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("msg", small_options())
                keys = [
                    f"dk{i}".encode() for i in range(200)
                    if db.owner_of(f"dk{i}".encode()) != ctx.world_rank
                ][:20]
                for k in keys:
                    db.put(k, b"once")
                db.fence()
                db.barrier()
                for k in keys:
                    assert db.get(k) == b"once"
                db.barrier()
                db.close()

        spmd_run(2, app, faults=plan, timeout=120)
        assert any("duplicate" in f for f in plan.fired)

    def test_delayed_message_still_delivered(self):
        plan = FaultPlan(seed=FAULT_SEED).delay("PairsMsg", 0.005, nth=1)

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("msg", small_options())
                key = self._pick_remote_key(db, owner=1)
                if ctx.world_rank == 0:
                    db.put(key, b"late")
                db.barrier()
                assert db.get(key) == b"late"
                db.barrier()
                db.close()

        spmd_run(2, app, faults=plan, timeout=120)


class _RouteFaults(FaultPlan):
    """Message rules that see one route's traffic only: the PairsMsgs
    sent after :meth:`arm` and the acks that answer them.

    By class name alone "the first ack" is not a schedule: under
    replication a heartbeat pong is an AckMsg and a load phase's
    fan-outs are PairsMsgs, and which comes first is thread timing.
    ``applied`` is the handlers' apply log (the ``applied`` fixture);
    ``mark`` is its length at arming time.
    """

    def __init__(self, applied):
        super().__init__(seed=FAULT_SEED)
        self.applied = applied
        self.mark = None
        self._seqs = set()

    def arm(self):
        self.mark = len(self.applied)

    def on_message(self, obj, src, dst):
        if not isinstance(obj, (msg.PairsMsg, msg.AckMsg)):
            return None
        if isinstance(obj, msg.PairsMsg) and self.mark is not None:
            self._seqs.add(obj.seq)
        if obj.seq not in self._seqs:
            return None
        return super().on_message(obj, src, dst)


class TestMutationPlane:
    """One carrier, one ack, one ledger: every route a pair takes to
    another rank survives a lost carrier, a lost ack and a duplicated
    carrier the same way — applied exactly once, caller completes,
    nothing left in the ledger."""

    KEYS = [f"mp{i:02d}".encode() for i in range(16)]

    #: route -> (ranks, options); rank 0 acts, the others only serve
    ROUTES = {
        "migrate": (2, dict()),
        "put_sync": (2, dict(consistency=SEQUENTIAL)),
        "fanout": (3, dict(replicas=2, write_quorum=2)),
        "rereplicate": (3, dict(replicas=2, write_quorum=1,
                                compaction_interval=0)),
    }

    @pytest.fixture()
    def applied(self, monkeypatch):
        """Every ``(rank, key)`` a handler applies, in order."""
        log = []
        apply_pairs = handler._apply_pairs

        def recording(db, pairs, hclock, cpu):
            log.extend((db.rank, key) for key, _value, _tomb in pairs)
            apply_pairs(db, pairs, hclock, cpu)

        monkeypatch.setattr(handler, "_apply_pairs", recording)
        return log

    def _run(self, route, plan, body):
        """``body(db)`` on rank 0; checks what it says it delivered —
        ``(target, key)`` pairs — against the apply log since arming."""
        nranks, opts = self.ROUTES[route]
        options = small_options(remote_timeout=0.2, remote_retries=2, **opts)
        done = threading.Barrier(nranks)

        def app(ctx):
            env = Papyrus(ctx)
            db = env.open("plane", options)
            try:
                if ctx.world_rank == 0:
                    delivered = body(db)
                    db.fence()
                    assert not db._unacked and not db._quorum_due
                    return delivered, db.stats.remote_retries
            finally:
                done.wait(60)
                _survivor_close(db)

        delivered, retries = spmd_run(nranks, app, faults=plan,
                                      timeout=120)[0]
        assert delivered
        assert sorted(plan.applied[plan.mark:]) == sorted(delivered)
        return retries

    def _drive(self, route, db, plan):
        """Send pairs down one route; returns the deliveries it owes."""
        keys = self.KEYS
        if route == "migrate":
            remote = [k for k in keys if db.owner_of(k) == 1]
            plan.arm()
            for k in remote:
                db.put(k, b"v")  # staged; the fence ships one chunk
            return [(1, k) for k in remote]
        if route == "put_sync":
            remote = [k for k in keys if db.owner_of(k) == 1]
            plan.arm()
            with db.batch() as b:
                for k in remote:
                    b.put(k, b"v")
            return [(1, k) for k in remote]
        if route == "fanout":
            plan.arm()
            for k in keys[:4]:
                db.put(k, b"v")
            return [(r, k) for k in keys[:4]
                    for r in db._replica_group(k) if r != 0]
        for k in keys:
            db.put(k, b"v")
        db.fence()
        plan.arm()
        db.membership.declare_dead(2)  # in this view only: nobody dies
        db._rereplicate()
        pushed = [
            (r, k) for k in keys
            for group in [db._replica_group(k, check=False)]
            if group[0] == 0 for r in group[1:]
        ]
        assert db.stats.rereplicated_pairs == len(pushed)
        return pushed

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("fault", ["drop_carrier", "drop_ack",
                                       "duplicate_carrier"])
    def test_applied_exactly_once(self, route, fault, applied):
        plan = _RouteFaults(applied)
        if fault == "drop_carrier":
            plan.drop("PairsMsg", nth=1)
        elif fault == "drop_ack":
            plan.drop("AckMsg", nth=1)
        else:
            plan.duplicate("PairsMsg", nth=1)
        retries = self._run(route, plan,
                            lambda db: self._drive(route, db, plan))
        assert len(plan.fired) == 1
        if fault.startswith("drop"):
            assert retries >= 1  # resent from the ledger

    def test_retransmit_carries_the_stamp_current_at_resend(self, applied):
        plan = _RouteFaults(applied).drop("PairsMsg", nth=1)

        def body(db):
            key = next(k for k in self.KEYS
                       if db._replica_group(k) == [0, 1])
            plan.arm()
            db.put(key, b"v")
            db._ship_window()  # the window closes; dropped on the way
            (seq,) = db._unacked
            db.membership.declare_dead(2)  # the view moves on: epoch 1
            sent, send = [], db.srv_comm.send

            def spy(payload, dest, tag=0):
                sent.append((payload, dest))
                return send(payload, dest, tag=tag)

            db.srv_comm.send = spy
            db.fence()
            db.srv_comm.send = send
            (resent, dest), = [(m, d) for m, d in sent
                               if isinstance(m, msg.PairsMsg)]
            assert (resent.seq, dest) == (seq, 1)
            assert (resent.epoch, resent.dead) == (1, (2,))
            assert (resent.epoch, resent.dead) == db.membership.wire()
            return [(1, key)]

        assert self._run("fanout", plan, body) == 1

    def test_unacked_pairs_serve_gets_and_die_with_their_target(
            self, applied):
        plan = _RouteFaults(applied).drop("PairsMsg", nth=1, count=2)

        def body(db):
            key = next(k for k in self.KEYS
                       if db._replica_group(k) == [1, 2])
            plan.arm()
            db.put(key, b"v")
            assert db.get_ex(key).tier == "inflight" and not db._unacked
            db._ship_window()  # the window closes; both copies dropped
            assert sorted(e.target for e in db._unacked.values()) == [1, 2]
            # no ack can arrive: the ledger is all this rank has of it
            got = db.get_ex(key)
            assert (got.value, got.tier) == (b"v", "inflight")
            db._forget_dead_rank(2)
            assert [e.target for e in db._unacked.values()] == [1]
            return [(1, key)]  # the fence resends what is left

        self._run("fanout", plan, body)


class TestCrashPointProperty:
    """Kill a rank at every durable-write site; after restart the store
    must equal a prefix-consistent model: absent or correct, never wrong."""

    def test_crash_at_every_write_site_recovers(self, tmp_path):
        model = {
            f"cp{i:03d}".encode(): f"pv{i:03d}".encode() * 3
            for i in range(50)
        }

        def workload(ctx):
            with Papyrus(ctx) as env:
                db = env.open("crashdb", small_options())
                for k, v in sorted(model.items()):
                    db.put(k, v)
                db.barrier(SSTABLE)
                db.close()

        # 1. recording run: enumerate rank 1's durable-write sites
        recorder = FaultPlan(seed=FAULT_SEED, record_sites=True)
        m0 = Machine(SUMMITDEV, 2, base_dir=str(tmp_path / "record"))
        spmd_run(2, workload, machine=m0, faults=recorder, timeout=120)
        m0.close()
        sites = [s for s in recorder.sites_seen if "rank1/" in s]
        assert sites, "no rank-1 write sites recorded"
        sites = sites[:8]  # keep the matrix affordable

        def recover(ctx):
            with Papyrus(ctx) as env:
                db = env.open("crashdb", small_options())
                db.coll_comm.barrier()
                wrong = []
                if ctx.world_rank == 0:
                    for k, v in model.items():
                        try:
                            got = db.get_or_none(k)
                        except CorruptionError:
                            continue  # loud degradation is acceptable
                        if got is not None and got != v:
                            wrong.append((k, got))
                db.barrier()
                db.close()
                return wrong

        # 2. for each site: crash rank 1 there, then restart and audit
        for i, site in enumerate(sites):
            machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path / f"s{i}"))
            plan = FaultPlan(seed=FAULT_SEED).crash(site, rank=1)
            with pytest.raises(RankFailure) as ei:
                spmd_run(2, workload, machine=machine, faults=plan,
                         timeout=120)
            kinds = {type(e).__name__ for _, e in ei.value.failures}
            assert "RankCrashError" in kinds, (site, kinds)
            res = spmd_run(2, recover, machine=machine, timeout=120)
            assert res[0] == [], f"wrong values after crash at {site}"
            machine.close()


class TestSeqWindow:
    def test_dedup_window(self):
        from repro.core.db import _SeqWindow

        w = _SeqWindow()
        assert w.check_and_add(5) is False
        assert w.check_and_add(5) is True
        assert w.check_and_add(9) is False
        assert w.check_and_add(5) is True

    def test_window_is_bounded(self):
        from repro.core.db import _SeqWindow

        w = _SeqWindow()
        for i in range(_SeqWindow.CAPACITY + 100):
            w.check_and_add(i)
        assert len(w._seen) <= _SeqWindow.CAPACITY
