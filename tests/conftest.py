"""Shared fixtures and helpers for the PapyrusKV reproduction tests."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest

from repro.analysis import runtime
from repro.config import Options
from repro.core.memtable import MemTable
from repro.mpi.launcher import spmd_run
from repro.simtime.clock import VirtualClock
from repro.simtime.profiles import CORI, STAMPEDE, SUMMITDEV
from repro.sstable.compaction import merge_newest
from repro.sstable.format import DATA_BLOCK_SIZE
from repro.sstable.writer import encode_table, write_sstable_blobs


def small_options(**kw) -> Options:
    """Options sized so a few hundred ops exercise flush/migration."""
    base = dict(
        memtable_capacity=1 << 12,
        remote_memtable_capacity=1 << 11,
        cache_local_capacity=1 << 14,
        cache_remote_capacity=1 << 14,
        compaction_interval=4,
        flush_queue_capacity=2,
    )
    base.update(kw)
    return Options(**base)


def run4(fn, *, nranks: int = 4, system=SUMMITDEV, timeout: float = 120.0):
    """Run an SPMD function with test-friendly defaults."""
    return spmd_run(nranks, fn, system=system, timeout=timeout)


def assert_free_windows_sorted_disjoint(dev):
    """A timeline's (device or worker) idle windows are sorted and disjoint below
    the horizon: ``_reserve`` bisects ``_free`` and evicts index 0 as
    the oldest window, and both are right only while this holds."""
    prev_end = 0.0
    for lo, hi in dev._free:
        assert prev_end <= lo < hi
        prev_end = hi
    assert prev_end <= dev.available


class LockSpy:
    """Acquisitions per canonical lock name of every lock the store made
    through :func:`lock_spy`'s factory — tracked ones, whether or not
    the detector is on — counted while ``active()`` holds on the
    acquiring thread (by default: while ``counting`` is set)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.counting = threading.Event()
        self.active = self.counting.is_set
        self._mu = threading.Lock()

    def factory(self, base):
        spy = self

        class Counted(base):
            def acquire(self, *args, **kw):
                if spy.active():
                    with spy._mu:
                        spy.counts[self.name] += 1
                return super().acquire(*args, **kw)

        return Counted


@pytest.fixture
def lock_spy(monkeypatch) -> LockSpy:
    """Make every ``make_lock``/``make_rlock`` of the store return a
    counting tracked lock for the test (a plain lock counts nothing)."""
    spy = LockSpy()
    factories = {runtime.make_lock: spy.factory(runtime.TrackedLock),
                 runtime.make_rlock: spy.factory(runtime.TrackedRLock)}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr in ("make_lock", "make_rlock"):
            made = factories.get(getattr(module, attr, None))
            if made is not None:
                monkeypatch.setattr(module, attr, made)
    return spy


@pytest.fixture(params=["summitdev", "stampede", "cori"])
def any_system(request):
    return {"summitdev": SUMMITDEV, "stampede": STAMPEDE, "cori": CORI}[
        request.param
    ]


def flip_byte(store, rel, offset=100):
    """Flip one bit of a stored file in place (silent media damage)."""
    p = store.path(rel)
    blob = bytearray(open(p, "rb").read())
    blob[offset % len(blob)] ^= 0x40
    with open(p, "wb") as f:
        f.write(bytes(blob))


def write_table(store, directory, ssid, records, block_size=DATA_BLOCK_SIZE):
    """Write one SSTable; ``block_size`` re-cuts the SSData CRC/cache
    blocks (the reader takes the size from the footer), so block
    boundaries can be put anywhere without megabytes of payload.
    Returns ``(bytes_written, virtual_completion_time)``."""
    blobs = encode_table(records, block_size=block_size)
    return write_sstable_blobs(store, directory, ssid, blobs, 0.0)


def merge_scan(tiers, start=None, end=None):
    """What a scan of ``[start, end)`` yields over newest-first tiers of
    ``(key, value, tombstone)``: each tier through the real MemTable
    runs (bisected to ``start`` and ``end``), the runs through
    ``merge_newest`` — the way ``ScanIterator`` wires them."""
    tables = []
    for tier in tiers:
        mt = MemTable(1 << 30)
        for key, value, tombstone in tier:
            mt.put(key, value, tombstone)
        tables.append(mt.runs(start, end))
    return [(key, value) for key, value, _
            in chain.from_iterable(merge_newest(tables))]


def cursor_window(reader, start=None, end=None, keys_only=False):
    """One table's share of a scan window, pulled through the real
    tier (``SSTableReader.runs``) on a fresh clock; a keys-only scan's
    values are dropped, as ``ScanIterator`` drops them.

    Returns ``(triples, blocks_read, clock_delta)``.
    """
    clock, stats = VirtualClock(), SimpleNamespace(scan_blocks_read=0)
    triples = [
        (key, b"" if keys_only else value, tombstone)
        for run in reader.runs(start, end, clock, stats, keys_only)
        for key, value, tombstone in run
    ]
    return triples, stats.scan_blocks_read, clock.now


def window_triples(records, start=None, end=None, keys_only=False):
    """What a cursor over ``records`` owes for ``[start, end)``."""
    return [
        (r.key, b"" if keys_only else r.value, r.tombstone) for r in records
        if (start is None or r.key >= start) and (end is None or r.key < end)
    ]
