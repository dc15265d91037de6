"""Checkpoint/restart/redistribution tests (§4)."""

from __future__ import annotations

import pytest

from repro import Papyrus
from repro.core.checkpoint import CHECKPOINT_FORMAT, read_manifest
from repro.errors import CorruptionError, StorageError
from repro.mpi.launcher import spmd_run
from repro.nvm.storage import Machine
from repro.simtime.profiles import SUMMITDEV
from tests.conftest import small_options


def _populate(db, rank, n=60):
    for i in range(n):
        db.put(f"x-{rank}-{i:03d}".encode(), f"y-{rank}-{i:03d}".encode() * 3)
    db.barrier()


def _verify(db, nranks, n=60):
    for rr in range(nranks):
        for i in range(0, n, 5):
            assert (
                db.get(f"x-{rr}-{i:03d}".encode())
                == f"y-{rr}-{i:03d}".encode() * 3
            )


class TestCheckpoint:
    def test_checkpoint_creates_snapshot_on_lustre(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank)
                ev = db.checkpoint("snap1")
                ev.wait(ctx.clock)
                db.coll_comm.barrier()
                lustre = ctx.machine.lustre_store()
                files = lustre.listdir(
                    f"ckpt/snap1/db_db/gen1/rank{ctx.world_rank}"
                )
                assert files, "rank snapshot dir is empty"
                assert "MANIFEST.json" in files  # per-rank checksum record
                if ctx.world_rank == 0:
                    m = read_manifest(ctx.machine, "snap1", "db")
                    assert m["nranks"] == ctx.nranks
                    assert m["generation"] == 1
                    assert m["format"] == CHECKPOINT_FORMAT == 4
                db.close()

        spmd_run(3, app)

    def test_checkpoint_is_asynchronous(self):
        """The event completes on the background timeline; the main clock
        does not pay the transfer until wait()."""

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=80)
                ev = db.checkpoint("snap2")
                t_issue = ctx.clock.now
                assert ev.done_time >= t_issue
                overlap = ev.done_time - t_issue
                ev.wait(ctx.clock)
                assert ctx.clock.now >= ev.done_time
                db.close()
                return overlap

        overlaps = spmd_run(2, app)
        assert all(o >= 0 for o in overlaps)

    def test_updates_after_checkpoint_do_not_touch_snapshot(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=40)
                ev = db.checkpoint("snap3")
                # keep writing while the transfer "runs"
                for i in range(40):
                    db.put(f"late-{ctx.world_rank}-{i}".encode(), b"new")
                ev.wait(ctx.clock)
                db.barrier()
                db.destroy().wait(ctx.clock)
                db2, rev = env.restart("snap3", "db", small_options())
                rev.wait(ctx.clock)
                db2.coll_comm.barrier()
                _verify(db2, ctx.nranks, n=40)
                # post-checkpoint writes are NOT in the snapshot
                assert db2.get_or_none(
                    f"late-{ctx.world_rank}-0".encode()
                ) is None
                db2.close()

        spmd_run(2, app, timeout=240)


class TestRestart:
    def test_restart_same_ranks_round_trip(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank)
                db.checkpoint("rt").wait(ctx.clock)
                db.destroy().wait(ctx.clock)
                db2, ev = env.restart("rt", "db", small_options())
                ev.wait(ctx.clock)
                db2.coll_comm.barrier()
                _verify(db2, ctx.nranks)
                db2.close()

        spmd_run(3, app, timeout=240)

    def test_restart_missing_snapshot_raises(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                with pytest.raises(StorageError):
                    env.restart("no-such-snap", "db", small_options())

        spmd_run(1, app)

    def test_restart_preserves_deletes(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=30)
                if ctx.world_rank == 0:
                    db.delete(b"x-0-000")
                db.barrier()
                db.checkpoint("deltest").wait(ctx.clock)
                db.destroy().wait(ctx.clock)
                db2, ev = env.restart("deltest", "db", small_options())
                ev.wait(ctx.clock)
                db2.coll_comm.barrier()
                assert db2.get_or_none(b"x-0-000") is None
                assert db2.get(b"x-0-001") is not None
                db2.close()

        spmd_run(2, app, timeout=240)


class TestRedistribution:
    def _machine(self, tmp_path):
        return Machine(SUMMITDEV, 8, base_dir=str(tmp_path))

    def test_restart_with_different_rank_count(self, tmp_path):
        """The headline persistence feature: a snapshot taken with N ranks
        restarts correctly on M ranks through redistribution."""
        machine = self._machine(tmp_path)

        def writer(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=40)
                db.checkpoint("resize").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)

        spmd_run(4, writer, machine=machine)

        def reader(ctx):
            with Papyrus(ctx) as env:
                db, ev = env.restart("resize", "db", small_options())
                ev.wait(ctx.clock)
                db.barrier()
                for rr in range(4):  # writer ran with 4 ranks
                    for i in range(0, 40, 5):
                        assert (
                            db.get(f"x-{rr}-{i:03d}".encode())
                            == f"y-{rr}-{i:03d}".encode() * 3
                        )
                db.close()

        spmd_run(2, reader, machine=machine, timeout=240)
        machine.close()

    def test_forced_redistribution_same_ranks(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=30)
                db.checkpoint("forced").wait(ctx.clock)
                db.destroy().wait(ctx.clock)
                db2, ev = env.restart(
                    "forced", "db", small_options(), force_redistribute=True
                )
                ev.wait(ctx.clock)
                db2.barrier()
                _verify(db2, ctx.nranks, n=30)
                db2.close()

        spmd_run(3, app, timeout=240)

    def test_redistribution_preserves_newest_version(self, tmp_path):
        machine = self._machine(tmp_path)

        def writer(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                db.put(b"versioned", b"old")
                db.barrier(level=1)
                db.put(b"versioned", b"new")
                db.barrier()
                db.checkpoint("vers").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)

        spmd_run(2, writer, machine=machine)

        def reader(ctx):
            with Papyrus(ctx) as env:
                db, ev = env.restart("vers", "db", small_options())
                ev.wait(ctx.clock)
                db.barrier()
                assert db.get(b"versioned") == b"new"
                db.close()

        spmd_run(3, reader, machine=machine, timeout=240)
        machine.close()


class TestRestartDecision:
    """restart() reports the redistribute decision on the event."""

    def test_copy_path_reports_no_redistribution(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=20)
                db.checkpoint("dec1").wait(ctx.clock)
                db.destroy().wait(ctx.clock)
                db2, ev = env.restart("dec1", "db", small_options())
                assert ev.redistributed is False
                assert ev.redistribute_reason == "none"
                ev.wait(ctx.clock)
                db2.barrier()
                _verify(db2, ctx.nranks, n=20)
                db2.close()

        spmd_run(2, app, timeout=240)

    def test_forced_reports_forced(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=20)
                db.checkpoint("dec2").wait(ctx.clock)
                db.destroy().wait(ctx.clock)
                db2, ev = env.restart(
                    "dec2", "db", small_options(), force_redistribute=True
                )
                assert ev.redistributed is True
                assert ev.redistribute_reason == "forced"
                ev.wait(ctx.clock)
                db2.barrier()
                _verify(db2, ctx.nranks, n=20)
                db2.close()

        spmd_run(2, app, timeout=240)

    def test_rank_count_change_warns_despite_force_false(self, tmp_path):
        """A changed rank count overrides force_redistribute=False: the
        event says so and rank 0 gets a RuntimeWarning instead of a
        silent redistribution."""
        import warnings

        machine = Machine(SUMMITDEV, 8, base_dir=str(tmp_path))

        def writer(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=20)
                db.checkpoint("dec3").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)

        spmd_run(2, writer, machine=machine)

        def reader(ctx):
            with Papyrus(ctx) as env:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    db, ev = env.restart("dec3", "db", small_options())
                assert ev.redistributed is True
                assert ev.redistribute_reason == "rank count changed 2->1"
                assert any(
                    issubclass(w.category, RuntimeWarning)
                    and "force_redistribute=False" in str(w.message)
                    for w in caught
                ), "expected a RuntimeWarning about the overridden flag"
                ev.wait(ctx.clock)
                for rr in range(2):  # writer ran with 2 ranks
                    assert (
                        db.get(f"x-{rr}-000".encode())
                        == f"y-{rr}-000".encode() * 3
                    )
                db.close()

        spmd_run(1, reader, machine=machine, timeout=240)
        machine.close()


class TestDestroy:
    def test_destroy_removes_data(self):
        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=20)
                store, rank_dir = db.store, db.rank_dir
                ev = db.destroy()
                ev.wait(ctx.clock)
                assert store.listdir(rank_dir) == []
                # the database can be recreated fresh afterwards
                db2 = env.open("db", small_options())
                assert db2.get_or_none(b"x-0-000") is None
                db2.close()

        spmd_run(2, app)


class TestGenerations:
    """Re-checkpointing to the same name must never overwrite the last
    good snapshot in place; restart prefers the newest COMPLETE one."""

    def test_second_checkpoint_is_new_generation(self, tmp_path):
        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=20)
                db.checkpoint("gens").wait(ctx.clock)
                db.coll_comm.barrier()
                db.put(f"extra-{ctx.world_rank}".encode(), b"late")
                db.barrier()
                db.checkpoint("gens").wait(ctx.clock)
                db.coll_comm.barrier()
                if ctx.world_rank == 0:
                    lustre = ctx.machine.lustre_store()
                    gens = sorted(
                        f for f in lustre.listdir("ckpt/gens/db_db")
                        if f.startswith("gen")
                    )
                    assert gens == ["gen1", "gen2"]
                    m = read_manifest(ctx.machine, "gens", "db")
                    assert m["generation"] == 2
                db.close()

        spmd_run(2, app, machine=machine, timeout=240)
        machine.close()

    def test_restart_falls_back_to_newest_complete_generation(self, tmp_path):
        import os

        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                db.put(f"g-{ctx.world_rank}".encode(), b"old")
                db.barrier()
                db.checkpoint("fall").wait(ctx.clock)
                db.coll_comm.barrier()
                db.put(f"g-{ctx.world_rank}".encode(), b"new")
                db.barrier()
                db.checkpoint("fall").wait(ctx.clock)
                db.coll_comm.barrier()
                db.destroy().wait(ctx.clock)
                # gen2 loses a rank manifest: incomplete, must be skipped
                if ctx.world_rank == 0:
                    lustre = ctx.machine.lustre_store()
                    os.remove(lustre.path(
                        "ckpt/fall/db_db/gen2/rank0/MANIFEST.json"
                    ))
                ctx.comm.barrier()
                db2, ev = env.restart("fall", "db", small_options())
                ev.wait(ctx.clock)
                db2.coll_comm.barrier()
                for rr in range(ctx.nranks):
                    assert db2.get(f"g-{rr}".encode()) == b"old"
                db2.close()

        spmd_run(2, app, machine=machine, timeout=240)
        machine.close()

    def test_other_layout_version_is_refused_by_number(self, tmp_path):
        """A generation stamped ``format: 2`` holds checksums this build
        cannot verify, one stamped ``format: 3`` tables it cannot read:
        restart names the version instead of skipping every file as a
        mismatch."""
        import json

        machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

        def app(ctx):
            with Papyrus(ctx) as env:
                db = env.open("db", small_options())
                _populate(db, ctx.world_rank, n=10)
                db.checkpoint("old").wait(ctx.clock)
                db.coll_comm.barrier()
                db.close()
                for version in (2, 3):
                    if ctx.world_rank == 0:
                        path = ctx.machine.lustre_store().path(
                            "ckpt/old/db_db/gen1/manifest.json"
                        )
                        with open(path) as f:
                            manifest = json.load(f)
                        manifest["format"] = version
                        with open(path, "w") as f:
                            json.dump(manifest, f)
                    ctx.comm.barrier()
                    with pytest.raises(
                            CorruptionError,
                            match=f"layout version {version} is not supported"):
                        env.restart("old", "db", small_options())
                    ctx.comm.barrier()

        spmd_run(2, app, machine=machine, timeout=240)
        machine.close()
