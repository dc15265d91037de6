"""SSTable writer/reader tests: lookups, bloom gating, search modes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import DATA_BLOCK_SIZE, Record
from repro.sstable.reader import SSTableReader, list_ssids
from tests.conftest import (
    cursor_window, flip_byte, window_triples, write_table,
)


@pytest.fixture()
def store(tmp_path):
    return PosixStore(
        str(tmp_path), TimedResource("d", 1e-5, 1e9)
    )


def make_table(store, ssid=1, n=50, directory="t"):
    recs = [
        Record(f"key-{i:04d}".encode(), f"value-{i:04d}".encode() * 2)
        for i in range(n)
    ]
    write_table(store, directory, ssid, recs)
    return recs


class TestWriter:
    def test_creates_three_files(self, store):
        make_table(store)
        assert store.listdir("t") == [
            "0000000001.bf", "0000000001.ssd", "0000000001.ssi"
        ]

    def test_rejects_unsorted(self, store):
        recs = [Record(b"b", b"1"), Record(b"a", b"2")]
        with pytest.raises(ValueError):
            write_table(store, "t", 1, recs)

    def test_rejects_duplicates(self, store):
        recs = [Record(b"a", b"1"), Record(b"a", b"2")]
        with pytest.raises(ValueError):
            write_table(store, "t", 1, recs)

    def test_empty_table(self, store):
        nbytes, end = write_table(store, "t", 1, [])
        assert nbytes > 0  # index + bloom headers exist
        rd = SSTableReader(store, "t", 1)
        rec, _ = rd.get(b"anything", 0.0)
        assert rec is None

    def test_returns_bytes_and_time(self, store):
        nbytes, end = write_table(
            store, "t", 1, [Record(b"k", b"v" * 1000)]
        )
        assert nbytes > 1000
        assert end > 0


class TestReaderLookup:
    def test_finds_all_keys(self, store):
        recs = make_table(store)
        rd = SSTableReader(store, "t", 1)
        for rec in recs:
            out, _ = rd.get(rec.key, 0.0)
            assert out == rec

    def test_missing_key(self, store):
        make_table(store)
        rd = SSTableReader(store, "t", 1)
        out, _ = rd.get(b"zzz-not-there", 0.0)
        assert out is None

    def test_tombstone_returned_not_skipped(self, store):
        recs = [Record(b"alive", b"v"), Record(b"dead", b"", True)]
        write_table(store, "t", 1, recs)
        rd = SSTableReader(store, "t", 1)
        out, _ = rd.get(b"dead", 0.0)
        assert out is not None and out.tombstone

    def test_sequential_search_agrees_with_binary(self, store):
        recs = make_table(store, n=80)
        rd = SSTableReader(store, "t", 1)
        for rec in recs[::7] + [Record(b"nope", b"")]:
            b, _ = rd.get(rec.key, 0.0, binary_search=True)
            s, _ = rd.get(rec.key, 0.0, binary_search=False)
            assert b == s

    def test_bloom_skips_absent_key_cheaply(self, store):
        make_table(store, n=200)
        rd = SSTableReader(store, "t", 1)
        rd.load_bloom(0.0)
        dev_ops_before = store.read_device.ops
        hit, _ = rd.may_contain(b"definitely-not-present-key", 0.0)
        # cached bloom: no extra device op for the membership test
        assert store.read_device.ops == dev_ops_before

    def test_binary_cheaper_than_sequential_at_depth(self, store):
        recs = make_table(store, n=400)
        rd = SSTableReader(store, "t", 1)
        key = recs[350].key
        _, t_bin = rd.get(key, 0.0, binary_search=True)
        rd2 = SSTableReader(store, "t", 1)
        _, t_seq = rd2.get(key, 0.0, binary_search=False)
        assert t_bin < t_seq

    def test_read_all_in_order(self, store):
        recs = make_table(store, n=30)
        rd = SSTableReader(store, "t", 1)
        out, _ = rd.read_all(0.0)
        assert out == recs

    def test_nbytes_and_delete(self, store):
        make_table(store)
        rd = SSTableReader(store, "t", 1)
        assert rd.nbytes() > 0
        rd.delete(0.0)
        assert store.listdir("t") == []
        assert rd.nbytes() == 0


#: real 64KB blocks, every edge the block-unit cursor has: a key cut by
#: the 0/1 boundary, a tombstone, a value over blocks 1..4 between small
#: records, a value cut by one boundary, a short last block
EDGE_RECS = [
    Record(b"a", b"x" * (DATA_BLOCK_SIZE - 23)),
    Record(b"b" * 10, b"v-b"),
    Record(b"c", b"", True),
    Record(b"d", b"y" * (200 * 1024)),
    Record(b"e", b"v-e"),
    Record(b"f", b"z" * 70_000),
    Record(b"g", b"v-g"),
]


@pytest.fixture(params=["cached", "direct"])
def edge_reader(request, store):
    write_table(store, "t", 1, EDGE_RECS)
    cache = BlockCache(1 << 22) if request.param == "cached" else None
    return SSTableReader(store, "t", 1, block_cache=cache)


class TestBlockCursor:
    """``find_ge`` + ``scan_from``: a block is fetched once and every
    record is sliced out of it, whatever a boundary cuts."""

    def test_layout_is_what_the_cases_need(self, edge_reader):
        index, _ = edge_reader.load_index(0.0)
        bs = DATA_BLOCK_SIZE
        key_cut, big, val_cut = index[1], index[3], index[5]
        assert key_cut.key_offset < bs < key_cut.key_offset + key_cut.keylen
        assert index[2].tombstone and index[2].offset // bs == 1
        assert (big.value_offset // bs,
                (big.value_offset + big.vallen - 1) // bs) == (1, 4)
        assert (val_cut.value_offset // bs
                != (val_cut.value_offset + val_cut.vallen - 1) // bs)

    def test_full_walk_reads_each_block_once(self, edge_reader):
        got, blocks, _ = cursor_window(edge_reader)
        assert got == window_triples(EDGE_RECS)
        footer, _ = edge_reader.footer(0.0)
        assert blocks == len(footer.block_crcs)

    @pytest.mark.parametrize("start,end", [
        (b"\x00", None),          # below the table's min
        (b"zz", None),            # above its max
        (b"d", None),             # equal to a key
        (b"bz", None),            # between keys
        (None, b"c"),             # window ends mid-block
        (b"b", b"e"),             # the big value inside the window
        (b"e", b"e"),             # empty window
    ])
    def test_windows(self, edge_reader, start, end):
        got, _, _ = cursor_window(edge_reader, start, end)
        assert got == window_triples(EDGE_RECS, start, end)

    def test_keys_only_touches_key_blocks_only(self, edge_reader):
        got, blocks, _ = cursor_window(edge_reader, keys_only=True)
        assert got == window_triples(EDGE_RECS, keys_only=True)
        index, _ = edge_reader.load_index(0.0)
        key_blocks = {
            b for e in index
            for b in range(e.key_offset // DATA_BLOCK_SIZE,
                           (e.key_offset + e.keylen - 1)
                           // DATA_BLOCK_SIZE + 1)
        }
        footer, _ = edge_reader.footer(0.0)
        assert blocks == len(key_blocks) < len(footer.block_crcs)

    def test_empty_table(self, store):
        write_table(store, "t", 1, [])
        rd = SSTableReader(store, "t", 1, block_cache=BlockCache(1 << 20))
        assert cursor_window(rd)[:2] == ([], 0)  # pays the index load
        assert cursor_window(rd, b"a", b"z") == ([], 0, 0.0)

    def test_fills_are_low_priority_and_second_pass_is_free(self, store):
        write_table(store, "t", 1, EDGE_RECS)
        cache = BlockCache(1 << 22)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        _, blocks, cold = cursor_window(rd)
        assert cold > 0
        assert (cache.low_priority_inserts, cache.inserts) == (blocks, 0)
        ops = store.read_device.ops
        got, _, warm = cursor_window(rd)
        assert got == window_triples(EDGE_RECS)
        assert (warm, store.read_device.ops) == (0.0, ops)


class TestPointGetEdges:
    """``get`` probes through the same ``_span`` the cursor uses, at
    point-get priority: whatever a 64KB boundary cuts, cached or not."""

    @pytest.mark.parametrize("binary_search", [True, False])
    def test_every_edge_record_and_the_gaps_between(self, edge_reader,
                                                    binary_search):
        edge_reader.load_index(0.0)  # a sequential get verifies only then
        for rec in EDGE_RECS:  # cut key, tombstone, 200KB and cut values
            got, _ = edge_reader.get(rec.key, 0.0, binary_search)
            assert got == rec
        for absent in (b"\x00", b"bz", b"dd", b"zz"):
            got, _ = edge_reader.get(absent, 0.0, binary_search,
                                     use_bloom=False)
            assert got is None

    def test_probes_inside_the_held_block_skip_the_cache(self, store):
        recs = make_table(store, n=80)  # one block, ~7 probes a get
        cache = BlockCache(1 << 20)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        got, _ = rd.get(recs[37].key, 0.0)
        assert got == recs[37]
        assert (cache.misses, cache.hits) == (1, 0)
        rd.get(recs[5].key, 0.0)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_fills_are_hot_and_a_repeat_costs_no_device_time(self, store):
        write_table(store, "t", 1, EDGE_RECS)
        cache = BlockCache(1 << 22)
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        _, cold = rd.get(b"d", 0.0)
        assert cold > 0
        assert cache.inserts >= 4 and cache.low_priority_inserts == 0
        ops = store.read_device.ops
        got, warm = rd.get(b"d", cold)
        assert got == EDGE_RECS[3]
        assert (warm, store.read_device.ops) == (cold, ops)

    def test_corrupt_block_inside_a_span_raises_and_is_never_cached(
            self, edge_reader):
        bad = 3  # inside d's value, which spans blocks 1..4
        flip_byte(edge_reader.store, "t/0000000001.ssd",
                  offset=bad * DATA_BLOCK_SIZE + 17)
        with pytest.raises(CorruptionError):
            edge_reader.get(b"d", 0.0)
        assert edge_reader.get(b"b" * 10, 0.0)[0] == EDGE_RECS[1]
        with pytest.raises(CorruptionError):  # the front-to-back walk too
            edge_reader.get(b"g", 0.0, binary_search=False)
        cache = edge_reader._cache
        if cache is not None:
            assert cache.get("t", 1, bad, promote=False) is None
            assert cache.get("t", 1, bad - 1, promote=False) is not None


class TestListSsids:
    def test_ascending(self, store):
        for ssid in (3, 1, 10):
            make_table(store, ssid=ssid, n=2)
        assert list_ssids(store, "t") == [1, 3, 10]

    def test_ignores_foreign_files(self, store):
        make_table(store, ssid=1, n=2)
        store.write("t/README.txt", b"not a table", 0.0)
        assert list_ssids(store, "t") == [1]

    def test_empty_dir(self, store):
        assert list_ssids(store, "none") == []


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.binary(min_size=1, max_size=16),
    st.tuples(st.binary(max_size=48), st.booleans()),
    min_size=1, max_size=60,
))
def test_write_read_property(tmp_path_factory, kv):
    """Any sorted record set round-trips through the three-file format."""
    store = PosixStore(
        str(tmp_path_factory.mktemp("prop")), TimedResource("d", 0.0, 1e9)
    )
    recs = [
        Record(k, b"" if tomb else v, tomb)
        for k, (v, tomb) in sorted(kv.items())
    ]
    write_table(store, "t", 1, recs)
    rd = SSTableReader(store, "t", 1)
    for rec in recs:
        for mode in (True, False):
            out, _ = rd.get(rec.key, 0.0, binary_search=mode)
            assert out == rec
