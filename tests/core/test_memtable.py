"""MemTable tests: replacement, tombstones, freezing, owner grouping,
and the sorted views a dict must build on its own."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.memtable import Entry, MemTable


def _sorted_model(model):
    """``to_records()`` of a MemTable holding ``model``: key ->
    (value, tombstone, ...), in ascending key order."""
    return [(k, v[0], v[1]) for k, v in sorted(model.items())]


class TestPutGet:
    def test_put_get(self):
        mt = MemTable(1024)
        mt.put(b"k", b"v")
        e = mt.get(b"k")
        assert e == Entry(b"v", False, -1)
        assert len(mt) == 1

    def test_replace_updates_size(self):
        mt = MemTable(1024)
        mt.put(b"k", b"vvvv")
        assert mt.size_bytes == 5
        mt.put(b"k", b"v")
        assert mt.size_bytes == 2
        assert len(mt) == 1

    def test_tombstone_put(self):
        mt = MemTable(1024)
        mt.put(b"k", b"ignored-value", tombstone=True)
        e = mt.get(b"k")
        assert e.tombstone
        assert e.value == b""  # tombstones carry no value

    def test_missing_key(self):
        mt = MemTable(1024)
        assert mt.get(b"missing") is None

    def test_owner_recorded(self):
        mt = MemTable(1024)
        mt.put(b"k", b"v", owner=3)
        assert mt.get(b"k").owner == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemTable(0)


class TestCapacityAndFreeze:
    def test_full_flag(self):
        mt = MemTable(10)
        assert not mt.full
        mt.put(b"abc", b"0123456")  # 10 bytes
        assert mt.full

    def test_freeze_blocks_writes(self):
        mt = MemTable(100)
        mt.put(b"k", b"v")
        mt.freeze()
        with pytest.raises(RuntimeError):
            mt.put(b"x", b"y")
        with pytest.raises(RuntimeError):
            mt.put(b"k", b"", tombstone=True)

    def test_frozen_still_readable(self):
        mt = MemTable(100)
        mt.put(b"k", b"v")
        mt.freeze()
        assert mt.get(b"k").value == b"v"


class TestExport:
    def test_to_records_sorted(self):
        mt = MemTable(1024)
        for k in (b"m", b"a", b"z"):
            mt.put(k, k.upper())
        recs = mt.to_records()
        assert [r.key for r in recs] == [b"a", b"m", b"z"]
        assert recs[0].value == b"A"

    def test_to_records_includes_tombstones(self):
        mt = MemTable(1024)
        mt.put(b"dead", b"", tombstone=True)
        recs = mt.to_records()
        assert recs[0].tombstone

    def test_by_owner_grouping(self):
        mt = MemTable(1024)
        mt.put(b"c", b"3", owner=2)
        mt.put(b"b", b"2", owner=1)
        mt.put(b"a", b"1", owner=2)
        groups = mt.by_owner()
        assert set(groups) == {1, 2}
        assert [k for k, _, _ in groups[2]] == [b"a", b"c"]

    def test_shuffled_writes_come_out_sorted(self):
        """Keys inserted in shuffled order, then overwritten (some with
        a new owner) and deleted in another shuffled order: every view
        is in ascending key order, as a flush, a migration carrier and
        a scan need it."""
        rng = random.Random(int(os.environ.get("PKV_FAULT_SEED", "7")))
        keys = [b"k%03d" % i for i in range(200)]
        rng.shuffle(keys)
        mt, model = MemTable(1 << 20), {}
        for i, key in enumerate(keys):
            mt.put(key, b"v%d" % i, owner=i % 3)
            model[key] = (b"v%d" % i, False, i % 3)
        rng.shuffle(keys)
        for i, key in enumerate(keys[:120]):
            tomb, owner = i % 2 == 0, rng.randrange(3)
            mt.put(key, b"w%d" % i, tombstone=tomb, owner=owner)
            model[key] = (b"" if tomb else b"w%d" % i, tomb, owner)
        assert mt.to_records() == _sorted_model(model)
        groups = mt.by_owner()
        assert set(groups) == {0, 1, 2}
        for owner, pairs in groups.items():
            assert pairs == [(k, v, t) for k, (v, t, o)
                             in sorted(model.items()) if o == owner]

    def test_one_snapshot_between_writes(self):
        """Readers between two writes share one list; a write (a
        tombstone too) leaves it as it was and starts the next."""
        mt = MemTable(1024)
        for k in (b"b", b"d"):
            mt.put(k, k)
        first = mt.to_records()
        assert mt.to_records() is first
        mt.put(b"c", b"c")
        second = mt.to_records()
        assert second is not first and [r.key for r in first] == [b"b", b"d"]
        mt.put(b"b", b"", tombstone=True)
        assert mt.to_records() is not second
        assert not second[0].tombstone
        assert mt.freeze().to_records() is mt.to_records()

    @pytest.mark.parametrize("start,end,want", [
        (None, None, b"abcde"), (b"b", b"d", b"bc"), (b"bb", None, b"cde"),
        (None, b"a", b""), (b"d", b"b", b""), (b"z", None, b""),
    ])
    def test_runs_are_the_window_of_this_snapshot(self, start, end, want):
        mt = MemTable(1 << 20)
        for k in b"edcba":
            mt.put(bytes([k]), b"v")
        runs = mt.runs(start, end)
        mt.put(b"bc", b"later")  # after the call: not in its runs
        assert b"".join(r.key for run in runs for r in run) == want

    def test_runs_grow_from_8_to_128(self):
        mt = MemTable(1 << 20)
        for i in range(500):
            mt.put(b"%03d" % i, b"")
        assert [len(run) for run in mt.runs()] == [8, 16, 32, 64, 128, 128,
                                                   124]


@seed(int(os.environ.get("PKV_FAULT_SEED", "7")))
@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(
    st.binary(min_size=1, max_size=8),
    st.binary(max_size=24),
    st.booleans(),
))))
def test_memtable_matches_dict_model(batches):
    """put/tombstone sequences track a reference dict exactly, and after
    every batch the snapshot is the model in key order."""
    mt = MemTable(1 << 30)
    model: dict = {}
    for ops in batches:
        for key, value, tomb in ops:
            mt.put(key, value, tombstone=tomb)
            model[key] = (b"" if tomb else value, tomb)
        assert mt.to_records() == _sorted_model(model)
    assert len(mt) == len(model)
    for key, (value, tomb) in model.items():
        e = mt.get(key)
        assert e.value == value and e.tombstone == tomb
    expected_bytes = sum(len(k) + len(v) for k, (v, _) in model.items())
    assert mt.size_bytes == expected_bytes
