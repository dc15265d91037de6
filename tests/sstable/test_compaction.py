"""Compaction tests: newest-SSID-wins merge, tombstone handling."""

from __future__ import annotations

import heapq
import os
from itertools import chain

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.compaction import merge_newest, read_and_merge
from repro.sstable.format import Record
from repro.sstable.reader import SSTableReader, list_ssids
from repro.sstable.writer import encode_table, write_sstable_blobs
from tests.conftest import write_table


@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))


def merge_records(runs, drop_tombstones=False):
    """``merge_newest`` the way ``read_and_merge`` calls it: decoded
    tables oldest→newest in, one run each, the merged list out."""
    tiers = [[run] for run in reversed(runs)]
    return list(chain.from_iterable(merge_newest(tiers, not drop_tombstones)))


class TestMergeRecords:
    def test_disjoint_runs_interleave(self):
        a = [Record(b"a", b"1"), Record(b"c", b"3")]
        b = [Record(b"b", b"2"), Record(b"d", b"4")]
        assert [r.key for r in merge_records([a, b])] == [b"a", b"b", b"c", b"d"]

    def test_newest_run_wins(self):
        old = [Record(b"k", b"old")]
        new = [Record(b"k", b"new")]
        merged = merge_records([old, new])
        assert merged == [Record(b"k", b"new")]

    def test_three_way_duplicate(self):
        runs = [[Record(b"k", f"v{i}".encode())] for i in range(3)]
        assert merge_records(runs)[0].value == b"v2"

    def test_tombstone_kept_by_default(self):
        runs = [[Record(b"k", b"v")], [Record(b"k", b"", True)]]
        merged = merge_records(runs)
        assert merged[0].tombstone

    def test_drop_tombstones(self):
        runs = [[Record(b"k", b"v")], [Record(b"k", b"", True)]]
        assert merge_records(runs, drop_tombstones=True) == []

    def test_drop_tombstones_keeps_live(self):
        runs = [
            [Record(b"a", b"1"), Record(b"b", b"2")],
            [Record(b"a", b"", True)],
        ]
        assert merge_records(runs, drop_tombstones=True) == [Record(b"b", b"2")]

    def test_empty_runs(self):
        assert merge_records([]) == []
        assert merge_records([[], []]) == []


def _reference_merge(tiers, tombstones):
    """Newest version per key (``tiers[0]`` newest), sorted."""
    newest: dict = {}
    for tier in reversed(list(tiers)):
        for item in tier:
            newest[item[0]] = item
    return [it for _, it in sorted(newest.items()) if tombstones or not it[2]]


def _heap_merge(tiers, tombstones):
    """The record-at-a-time heap merge ``merge_newest`` was before it
    took runs: flat sorted tiers in, items out — the oracle the run
    merge must equal, item for item."""
    iters = [iter(tier) for tier in tiers]
    heap = []
    for ti, it in enumerate(iters):
        item = next(it, None)
        if item is not None:
            heap.append((item[0], ti, item))
    heapq.heapify(heap)
    last_key = None
    while heap:
        key, ti, item = heap[0]
        if key != last_key:
            last_key = key
            if tombstones or not item[2]:
                yield item
        nxt = next(iters[ti], None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt[0], ti, nxt))


def _item(draw, key):
    tomb = draw(st.booleans())
    return (key, b"" if tomb else draw(st.binary(max_size=4)), tomb)


@st.composite
def _shaped_tiers(draw):
    """Up to 6 newest-first tiers whose keys interleave (short keys,
    random membership), are disjoint (contiguous ranges in any tier
    order) or both (disjoint ranges plus one tier across them all)."""
    shape = draw(st.sampled_from(["interleaved", "disjoint", "mixed"]))
    keys = sorted(draw(st.sets(st.binary(min_size=1, max_size=2),
                               max_size=60)))
    n = draw(st.integers(1, 6))
    if shape == "interleaved":
        tiers = [[_item(draw, k) for k in keys if draw(st.booleans())]
                 for _ in range(n)]
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(keys)),
                                    min_size=n - 1, max_size=n - 1)))
        bounds = list(zip([0, *cuts], [*cuts, len(keys)]))
        order = draw(st.permutations(range(n)))
        tiers = [[_item(draw, k) for k in keys[slice(*bounds[i])]]
                 for i in order]
        if shape == "mixed":
            across = [_item(draw, k) for k in keys if draw(st.booleans())]
            tiers.insert(draw(st.integers(0, n)), across)
    return tiers


def _cut_into_runs(draw, tier):
    """One tier as a list of runs, cut anywhere (empty runs included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(tier)), max_size=5)))
    return [tier[a:b] for a, b in zip([0, *cuts], [*cuts, len(tier)])]


class TestMergeNewest:
    """The one newest-wins merge against a reference kept here."""

    @seed(int(os.environ.get("PKV_FAULT_SEED", "7")))
    @settings(max_examples=300, deadline=None)
    @given(_shaped_tiers(), st.booleans(), st.data())
    def test_equals_reference(self, tiers, tombstones, data):
        """== the dict reference and the heap merge, tiers cut into runs
        anywhere."""
        want = _reference_merge(tiers, tombstones)
        assert list(_heap_merge(tiers, tombstones)) == want
        cut = [_cut_into_runs(data.draw, tier) for tier in tiers]
        out = list(merge_newest(cut, tombstones))
        assert all(out) and list(chain.from_iterable(out)) == want
        # lazy tiers and Records merge the same, and come out as given
        lazy = [iter([[Record(*it) for it in run] for run in runs])
                for runs in cut]
        got = list(chain.from_iterable(merge_newest(lazy, tombstones)))
        assert got == want
        assert all(isinstance(it, Record) for it in got)

    @pytest.mark.parametrize("tombstones", [False, True])
    def test_failing_tier_delivers_everything_before_it(self, tombstones):
        def failing():
            yield [(b"b", b"new", False), (b"d", b"", True)]
            raise OSError("block gone")

        older = [(b"a", b"1", False), (b"b", b"old", False),
                 (b"c", b"3", False), (b"e", b"5", False)]
        merged = merge_newest([failing(), [older]], tombstones)
        got = []
        with pytest.raises(OSError):
            for run in merged:
                got.extend(run)
        # the failure surfaces only when the merge needs the tier's next
        # run — after d, the last item it delivered, has been emitted
        want = [(b"a", b"1", False), (b"b", b"new", False),
                (b"c", b"3", False)]
        if tombstones:
            want.append((b"d", b"", True))
        assert got == want


class TestReadMergeWrite:
    """The round the database runs: read_and_merge the inputs, land the
    one output table with one write_sstable_blobs commit."""

    def _write(self, store, ssid, pairs):
        recs = [
            Record(k, v, v == b"") for k, v in sorted(pairs.items())
        ]
        write_table(store, "t", ssid, recs)

    def _round(self, store, ssids, new_ssid, t, drop_tombstones=False):
        merged, readers, t = read_and_merge(
            store, "t", ssids, t, drop_tombstones=drop_tombstones
        )
        _, t = write_sstable_blobs(
            store, "t", new_ssid, encode_table(merged), t
        )
        return merged, readers, t

    def test_newest_wins(self, store):
        self._write(store, 1, {b"a": b"1", b"b": b"2"})
        self._write(store, 2, {b"b": b"22", b"c": b"3"})
        merged, readers, _ = self._round(store, [1, 2], 3, 0.0)
        assert len(merged) == 3
        assert [rd.ssid for rd in readers] == [1, 2]
        assert list_ssids(store, "t") == [1, 2, 3]  # caller retires inputs
        rd = SSTableReader(store, "t", 3)
        assert rd.get(b"b", 0.0)[0].value == b"22"
        assert rd.get(b"a", 0.0)[0].value == b"1"

    def test_tombstones_dropped_on_major(self, store):
        self._write(store, 1, {b"a": b"1", b"b": b"2"})
        self._write(store, 2, {b"a": b""})  # tombstone
        self._round(store, [1, 2], 3, 0.0, drop_tombstones=True)
        rd = SSTableReader(store, "t", 3)
        assert rd.get(b"a", 0.0)[0] is None
        assert rd.get(b"b", 0.0)[0].value == b"2"

    def test_empty_input(self, store):
        merged, readers, t = read_and_merge(store, "t", [], 5.0)
        assert merged == [] and readers == [] and t == 5.0

    def test_charges_time(self, store):
        slow = PosixStore(
            store.root + "-slow", TimedResource("s", 0.01, 1e6)
        )
        self._write(slow, 1, {b"a": b"x" * 1000})
        self._write(slow, 2, {b"b": b"y" * 1000})
        _, _, end = self._round(slow, [1, 2], 3, 0.0)
        assert end > 0.05  # several latency-charged file ops


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.dictionaries(st.binary(min_size=1, max_size=8),
                    st.binary(max_size=24), max_size=20),
    min_size=1, max_size=5,
))
def test_compaction_equals_dict_overlay(tmp_path_factory, generations):
    """Merging N generations == applying the dicts oldest→newest."""
    store = PosixStore(
        str(tmp_path_factory.mktemp("cmp")), TimedResource("d", 0.0, 1e9)
    )
    expected: dict = {}
    ssids = []
    for i, gen in enumerate(generations, start=1):
        if not gen:
            continue
        recs = [Record(k, v) for k, v in sorted(gen.items())]
        write_table(store, "t", i, recs)
        ssids.append(i)
        expected.update(gen)
    if not ssids:
        return
    out, _, _ = read_and_merge(store, "t", ssids, 0.0)
    assert {r.key: r.value for r in out} == expected
