"""Costed POSIX store tests."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.faults import FaultPlan, RankCrashError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import StripedResource, TimedResource


@pytest.fixture()
def store(tmp_path):
    dev = TimedResource("d", latency_s=0.001, bandwidth_Bps=1_000_000.0)
    return PosixStore(str(tmp_path / "root"), dev)


class TestReadWrite:
    def test_write_read_roundtrip(self, store):
        end = store.write("a/b.bin", b"hello", 0.0)
        assert end > 0
        data, end2 = store.read("a/b.bin", end)
        assert data == b"hello"
        assert end2 > end

    def test_partial_read(self, store):
        store.write("f", b"0123456789", 0.0)
        data, _ = store.read("f", 0.0, offset=3, length=4)
        assert data == b"3456"

    def test_read_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.read("nope", 0.0)

    def test_overwrite(self, store):
        store.write("f", b"old", 0.0)
        store.write("f", b"new!", 0.0)
        assert store.read("f", 0.0)[0] == b"new!"

    def test_size_and_exists(self, store):
        assert not store.exists("f")
        store.write("f", b"12345", 0.0)
        assert store.exists("f")
        assert store.size("f") == 5

    def test_size_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.size("missing")


class TestListingAndDelete:
    def test_listdir(self, store):
        store.write("d/x", b"1", 0.0)
        store.write("d/a", b"2", 0.0)
        assert store.listdir("d") == ["a", "x"]
        assert store.listdir("empty-or-missing") == []

    def test_delete(self, store):
        store.write("f", b"x", 0.0)
        store.delete("f", 0.0)
        assert not store.exists("f")
        store.delete("f", 0.0)  # idempotent

    def test_delete_tree(self, store):
        for i in range(3):
            store.write(f"tree/sub/f{i}", b"x", 0.0)
        store.delete_tree("tree", 0.0)
        assert store.listdir("tree") == []


class TestPathSafety:
    def test_escape_rejected(self, store):
        with pytest.raises(StorageError):
            store.path("../outside")

    def test_makedirs(self, store):
        p = store.makedirs("a/b/c")
        assert store.listdir("a/b") == ["c"]
        assert p.endswith("a/b/c")


class TestCosting:
    def test_write_charges_device(self, store):
        end = store.write("f", b"x" * 1_000_000, 0.0)
        # 1 MB at 1 MB/s + 1 ms latency
        assert end == pytest.approx(1.001, rel=0.01)

    def test_small_read_cheaper_than_big_read(self, store):
        store.write("f", b"x" * 1_000_000, 0.0)
        _, t_small = store.read("f", 100.0, offset=0, length=64)
        _, t_big = store.read("f", 200.0)
        assert (t_small - 100.0) < (t_big - 200.0)

    def test_extra_latency_applied(self, tmp_path):
        dev = TimedResource("d", 0.0, 1e9)
        near = PosixStore(str(tmp_path / "n"), dev, extra_latency_s=0.0)
        far = PosixStore(str(tmp_path / "f"), dev, extra_latency_s=0.5)
        t_near = near.write("f", b"x", 0.0)
        t_far = far.write("f", b"x", 0.0)
        assert t_far - t_near >= 0.4

    def test_striped_large_read_uses_all_stripes(self, tmp_path):
        dev = StripedResource("l", 4, 0.0, 1_000_000.0)
        s = PosixStore(str(tmp_path / "s"), dev)
        s.write("f", b"x" * 4_000_000, 0.0)
        for stripe in dev.stripes:
            assert stripe.bytes_moved > 0

    def test_separate_read_device(self, tmp_path):
        w = TimedResource("w", 0.0, 1e6)
        r = TimedResource("r", 0.0, 1e6)
        s = PosixStore(str(tmp_path / "rw"), w, read_device=r)
        s.write("f", b"x" * 1000, 0.0)
        s.read("f", 0.0)
        assert w.bytes_moved == 1000
        assert r.bytes_moved == 1000


class TestAtomicWrite:
    """tmp file + fsync + rename: nothing but the published file is left
    behind, whether the write lands, fails or crashes at a site."""

    def _files(self, store):
        return sorted(os.path.relpath(os.path.join(d, f), store.root)
                      for d, _, fs in os.walk(store.root) for f in fs)

    def test_a_landed_write_leaves_only_the_file(self, store):
        store.write_ordered([("t/a", b"1"), ("t/b", b"22")], 0.0)
        assert self._files(store) == ["t/a", "t/b"]

    @pytest.mark.parametrize("site", ["posix.rename:t/b", "posix.write:t/b"])
    def test_a_crash_site_drops_the_tmp_file(self, store, site):
        store.faults = FaultPlan().crash(site)
        with pytest.raises(RankCrashError):
            store.write_ordered([("t/a", b"1"), ("t/b", b"22")], 0.0)
        assert self._files(store) == ["t/a"]

    def test_an_io_error_is_a_storage_error_and_drops_the_tmp_file(
            self, store, monkeypatch):
        def fail(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(StorageError, match="injected rename"):
            store.write("t/a", b"1", 0.0)
        monkeypatch.undo()
        assert self._files(store) == []

    def test_write_ordered_creates_each_directory_once(self, store,
                                                       monkeypatch):
        made = []
        real = os.makedirs
        monkeypatch.setattr(os, "makedirs", lambda p, **kw: (
            made.append(os.path.relpath(p, store.root)), real(p, **kw)))
        store.write_ordered([("x/a", b"1"), ("x/b", b"2"), ("y/c", b"3")],
                            0.0)
        assert sorted(made) == ["x", "y"]
        assert self._files(store) == ["x/a", "x/b", "y/c"]
