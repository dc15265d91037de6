"""Bulk streaming transfer tests (checkpoint/restart staging path)."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource


@pytest.fixture()
def store(tmp_path):
    return PosixStore(
        str(tmp_path), TimedResource("d", latency_s=0.01,
                                     bandwidth_Bps=1_000_000.0)
    )


class TestBulkRead:
    def test_reads_all_files(self, store):
        for i in range(5):
            store.write(f"d/f{i}", bytes([i]) * 100, 0.0)
        blobs, end = store.bulk_read([f"d/f{i}" for i in range(5)], 0.0)
        assert len(blobs) == 5
        assert blobs["d/f3"] == b"\x03" * 100

    def test_single_latency_for_many_files(self, store):
        for i in range(10):
            store.write(f"d/f{i}", b"x" * 10, 0.0)
        t0 = store.read_device.available  # after the writes
        _, end = store.bulk_read([f"d/f{i}" for i in range(10)], t0)
        # one streamed op: ~1 latency + 100 bytes, NOT 10 latencies
        assert end - t0 < 0.02

    def test_missing_file_raises(self, store):
        with pytest.raises(StorageError):
            store.bulk_read(["nope"], 0.0)

    def test_empty_list(self, store):
        blobs, end = store.bulk_read([], 0.0)
        assert blobs == {}


class TestBulkWrite:
    def test_writes_all_files(self, store):
        end = store.bulk_write({"o/a": b"1", "o/b": b"22"}, 0.0)
        assert store.read("o/a", 0.0)[0] == b"1"
        assert store.read("o/b", 0.0)[0] == b"22"
        assert end > 0

    def test_aggregate_bandwidth_charged(self, store):
        blobs = {f"o/f{i}": b"x" * 500_000 for i in range(4)}  # 2 MB
        end = store.bulk_write(blobs, 0.0)
        # 2 MB at 1 MB/s + one latency
        assert end == pytest.approx(2.01, rel=0.05)

    def test_roundtrip_via_bulk(self, store):
        src = {f"s/f{i}": bytes([i]) * 64 for i in range(8)}
        store.bulk_write(src, 0.0)
        blobs, _ = store.bulk_read(sorted(src), 0.0)
        assert blobs == src
