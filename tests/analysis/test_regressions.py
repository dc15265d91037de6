"""Regression: the races this PR fixed stay fixed.

Each test re-installs the *pre-fix* body of a fixed code path and
asserts the detector flags it on the stress workload — proving both
that the fix is load-bearing and that the detector would catch a
reintroduction.
"""

from __future__ import annotations

from repro.analysis.runtime import annotate_read, annotate_write
from repro.analysis.stress import run_stress
from repro.sstable.block_cache import BlockCache
from repro.sstable.reader import SSTableReader


def _old_unlocked_readers(self, store, directory, ssids):
    """The reader registry as it was when it was ``Database._readers``
    and no lock guarded it: handler and rank-main threads (now of every
    rank on the device, publishing their views and resolving their
    peers') mutate the dict with no common lock."""
    out = []
    for ssid in ssids:
        annotate_read(self, "readers")
        rd = self._readers.get((directory, ssid))
        if rd is None:
            rd = SSTableReader(store, directory, ssid, block_cache=self)
            annotate_write(self, "readers")
            self._readers[(directory, ssid)] = rd
        out.append(rd)
    return out


def test_unlocked_reader_cache_is_flagged(monkeypatch):
    monkeypatch.setattr(BlockCache, "readers", _old_unlocked_readers)
    # FastTrack keeps last-access epochs, not full history, so one
    # scheduling-lucky interleaving can mask the race; a few attempts
    # make the verdict about the code, not the scheduler (three still
    # failed about one run in 25, at this commit's parent too)
    report = None
    for _attempt in range(6):
        report = run_stress()
        races = [f for f in report["findings"]
                 if f["rule"] == "RACE" and "on readers" in f["message"]]
        if races:
            return
    raise AssertionError(f"unlocked reader cache never flagged: {report}")
