"""Shared fixtures and helpers for the PapyrusKV reproduction tests."""

from __future__ import annotations

import pytest

from repro.config import Options
from repro.mpi.launcher import spmd_run
from repro.simtime.profiles import CORI, STAMPEDE, SUMMITDEV


def small_options(**kw) -> Options:
    """Options sized so a few hundred ops exercise flush/migration."""
    base = dict(
        memtable_capacity=1 << 12,
        remote_memtable_capacity=1 << 11,
        cache_local_capacity=1 << 14,
        cache_remote_capacity=1 << 14,
        compaction_interval=4,
        flush_queue_capacity=2,
        migration_queue_capacity=2,
    )
    base.update(kw)
    return Options(**base)


def run4(fn, *, nranks: int = 4, system=SUMMITDEV, timeout: float = 120.0):
    """Run an SPMD function with test-friendly defaults."""
    return spmd_run(nranks, fn, system=system, timeout=timeout)


def assert_free_windows_sorted_disjoint(dev):
    """A ``TimedResource``'s idle windows are sorted and disjoint below
    the horizon: ``_reserve`` bisects ``_free`` and evicts index 0 as
    the oldest window, and both are right only while this holds."""
    prev_end = 0.0
    for lo, hi in dev._free:
        assert prev_end <= lo < hi
        prev_end = hi
    assert prev_end <= dev.available


@pytest.fixture(params=["summitdev", "stampede", "cori"])
def any_system(request):
    return {"summitdev": SUMMITDEV, "stampede": STAMPEDE, "cori": CORI}[
        request.param
    ]
