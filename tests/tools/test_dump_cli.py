"""Repository inspector and CLI tests."""

from __future__ import annotations

import os

import pytest

from repro import Options, Papyrus, SSTABLE, spmd_run
from repro.nvm.storage import Machine
from repro.simtime.profiles import SUMMITDEV
from repro.tools.cli import main as cli_main
from repro.tools.dump import dump_sstable, inspect_repository, verify_sstable
from tests.conftest import small_options


@pytest.fixture()
def populated_machine(tmp_path):
    machine = Machine(SUMMITDEV, 2, base_dir=str(tmp_path))

    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("insp", small_options())
            for i in range(60):
                db.put(f"key{i:03d}".encode(), f"val{i}".encode())
            if ctx.world_rank == 0:
                db.delete(b"key000")
            db.barrier(SSTABLE)
            db.close()

    spmd_run(2, app, machine=machine)
    yield machine
    machine.close()


def _nvm_root(machine):
    return machine.nvm_store(0).root


class TestInspect:
    def test_summary_fields(self, populated_machine):
        summaries = inspect_repository(_nvm_root(populated_machine))
        assert len(summaries) == 1
        db = summaries[0]
        assert db.name == "insp"
        assert db.nranks == 2
        assert set(db.ranks) == {0, 1}
        assert db.total_records >= 60  # data + tombstone
        assert db.total_bytes > 0
        assert db.total_sstables >= 2

    def test_table_key_ranges_sorted(self, populated_machine):
        summaries = inspect_repository(_nvm_root(populated_machine))
        for tables in summaries[0].ranks.values():
            for t in tables:
                assert t.min_key <= t.max_key

    def test_missing_root_raises(self):
        with pytest.raises(FileNotFoundError):
            inspect_repository("/nonexistent/path")

    def test_empty_root(self, tmp_path):
        assert inspect_repository(str(tmp_path)) == []


class TestDumpVerify:
    def _first_table(self, machine):
        root = _nvm_root(machine)
        summaries = inspect_repository(root)
        rank, tables = next(
            (r, ts) for r, ts in summaries[0].ranks.items() if ts
        )
        return os.path.join(root, "db_insp", f"rank{rank}"), tables[0].ssid

    def test_dump_records(self, populated_machine):
        rank_dir, ssid = self._first_table(populated_machine)
        recs = list(dump_sstable(rank_dir, ssid))
        assert recs
        keys = [r.key for r in recs]
        assert keys == sorted(keys)

    def test_dump_limit(self, populated_machine):
        rank_dir, ssid = self._first_table(populated_machine)
        assert len(list(dump_sstable(rank_dir, ssid, limit=3))) <= 3

    def test_verify_clean_table(self, populated_machine):
        rank_dir, ssid = self._first_table(populated_machine)
        assert verify_sstable(rank_dir, ssid) == []

    def test_verify_detects_corruption(self, populated_machine):
        rank_dir, ssid = self._first_table(populated_machine)
        index_path = os.path.join(rank_dir, f"{ssid:010d}.ssi")
        with open(index_path, "r+b") as f:
            f.seek(14)  # inside the first entry's offset field
            f.write(b"\xff\xff")
        assert verify_sstable(rank_dir, ssid) != []


class TestCli:
    def test_inspect_command(self, populated_machine, capsys):
        rc = cli_main(["inspect", _nvm_root(populated_machine)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "database 'insp'" in out
        assert "SSTables" in out
        # every non-empty table lists its block keys: block, ordinal, key
        tables = [t for ts in inspect_repository(
            _nvm_root(populated_machine))[0].ranks.values() for t in ts]
        assert all(t.block_keys[0] == (0, 0, t.min_key) for t in tables)
        assert out.count("block    0 from entry      0  b'key") == len(tables)

    def test_inspect_empty(self, tmp_path, capsys):
        rc = cli_main(["inspect", str(tmp_path)])
        assert rc == 1

    def test_dump_command(self, populated_machine, capsys):
        root = _nvm_root(populated_machine)
        summaries = inspect_repository(root)
        rank, tables = next(
            (r, ts) for r, ts in summaries[0].ranks.items() if ts
        )
        rc = cli_main([
            "dump", os.path.join(root, "db_insp", f"rank{rank}"),
            str(tables[0].ssid), "--limit", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "->" in out

    def test_verify_command(self, populated_machine, capsys):
        root = _nvm_root(populated_machine)
        summaries = inspect_repository(root)
        rank, tables = next(
            (r, ts) for r, ts in summaries[0].ranks.items() if ts
        )
        rc = cli_main([
            "verify", os.path.join(root, "db_insp", f"rank{rank}"),
            str(tables[0].ssid),
        ])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        rc = cli_main(["demo", "--ranks", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified" in out

    def test_systems_command(self, capsys):
        rc = cli_main(["systems"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("summitdev", "stampede", "cori"):
            assert name in out

    def test_figure_unknown_name(self, capsys):
        rc = cli_main(["figure", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_report_command(self, capsys):
        rc = cli_main(["report"])
        out = capsys.readouterr().out
        # results exist in this checkout from prior bench runs
        assert rc in (0, 1)
        if rc == 0:
            assert "==" in out


class TestFsck:
    """``papyruskv fsck``: exit 0 on a clean repository, 1 and one line
    per problem when a table is damaged or quarantined."""

    def _table(self, machine):
        root = _nvm_root(machine)
        rank, tables = next(
            (r, ts) for r, ts in inspect_repository(root)[0].ranks.items()
            if ts
        )
        return root, f"insp/rank{rank}", os.path.join(
            root, "db_insp", f"rank{rank}", f"{tables[0].ssid:010d}")

    def test_clean_repository(self, populated_machine, capsys):
        root, _, _ = self._table(populated_machine)
        assert cli_main(["fsck", root]) == 0
        assert "all tables verify clean" in capsys.readouterr().out

    def test_damaged_table(self, populated_machine, capsys):
        root, where, base = self._table(populated_machine)
        with open(base + ".ssd", "r+b") as f:  # the last value byte
            f.seek(-1, os.SEEK_END)
            byte = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([byte[0] ^ 0x04]))
        assert cli_main(["fsck", root]) == 1
        out = capsys.readouterr().out.splitlines()
        ssid = int(os.path.basename(base))
        assert f"{where}/{ssid}: SSData block checksum mismatch " \
            "(corruption)" in out
        assert out[-1] == "1 damaged table(s)"

    def test_quarantined_file(self, populated_machine, capsys):
        root, where, base = self._table(populated_machine)
        os.rename(base + ".ssd", base + ".ssd.quar")
        assert cli_main(["fsck", root]) == 1
        out = capsys.readouterr().out
        name = os.path.basename(base) + ".ssd.quar"
        assert f"{where}/{name}: quarantined (moved out of the search " \
            "order)" in out
