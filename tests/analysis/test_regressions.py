"""Regression: the races this PR fixed stay fixed.

Each test re-installs the *pre-fix* body of a fixed code path and
asserts the detector flags it on the stress workload — proving both
that the fix is load-bearing and that the detector would catch a
reintroduction.
"""

from __future__ import annotations

from repro.analysis.runtime import annotate_read, annotate_write
from repro.analysis.stress import run_stress
from repro.core.db import Database
from repro.sstable.reader import SSTableReader


def _old_unlocked_reader(self, ssid):
    """``Database._reader`` as it was before `db.readers` existed:
    handler and rank-main threads mutate the dict with no common lock."""
    annotate_read(self, "db.readers")
    rd = self._readers.get(ssid)
    if rd is None:
        rd = SSTableReader(self.store, self.rank_dir, ssid)
        annotate_write(self, "db.readers")
        self._readers[ssid] = rd
    return rd


def test_unlocked_reader_cache_is_flagged(monkeypatch):
    monkeypatch.setattr(Database, "_reader", _old_unlocked_reader)
    # FastTrack keeps last-access epochs, not full history, so one
    # scheduling-lucky interleaving can mask the race; a few attempts
    # make the verdict about the code, not the scheduler (three still
    # failed about one run in 25, at this commit's parent too)
    report = None
    for _attempt in range(6):
        report = run_stress()
        races = [f for f in report["findings"]
                 if f["rule"] == "RACE" and "db.readers" in f["message"]]
        if races:
            return
    raise AssertionError(f"unlocked reader cache never flagged: {report}")
