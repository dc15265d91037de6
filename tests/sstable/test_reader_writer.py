"""SSTable writer/reader tests: lookups, bloom gating, search modes."""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.db import Database
from repro.errors import CorruptionError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.block_cache import BlockCache
from repro.sstable.format import DATA_BLOCK_SIZE, RECORD_HEADER_LEN, Record
from repro.sstable.reader import SSTableReader, list_ssids
from tests.conftest import (
    cursor_window, flip_byte, window_triples, write_table,
)


@pytest.fixture()
def store(tmp_path):
    return PosixStore(
        str(tmp_path), TimedResource("d", 1e-5, 1e9)
    )


def _value_offset(e):
    """Where an index entry's value starts in SSData."""
    return e.key_offset + e.keylen


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
    """``find_ge`` + ``SSTableReader.runs``: a block is fetched once and
    every record is sliced out of it, whatever a boundary cuts."""

    def test_layout_is_what_the_cases_need(self, edge_reader):
        index, _ = edge_reader.load_index(0.0)
        bs = DATA_BLOCK_SIZE
        key_cut, big, val_cut = index[1], index[3], index[5]
        assert key_cut.key_offset < bs < key_cut.key_offset + key_cut.keylen
        assert index[2].tombstone and index[2].offset // bs == 1
        assert (_value_offset(big) // bs,
                (_value_offset(big) + big.vallen - 1) // bs) == (1, 4)
        assert (_value_offset(val_cut) // bs
                != (_value_offset(val_cut) + val_cut.vallen - 1) // bs)

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


def data_reads(store):
    """Make ``store`` log the path of every ``read`` of an SSData file."""
    log, read = [], store.read

    def logging_read(relpath, *args, **kw):
        if relpath.endswith(".ssd"):
            log.append(relpath)
        return read(relpath, *args, **kw)

    store.read = logging_read
    return log


def four_blocks(store, directory="t"):
    """250 records of 1 KB: SSData of three full blocks and a short one."""
    recs = [Record(f"key-{i:04d}".encode(), bytes([i]) * 1000)
            for i in range(250)]
    write_table(store, directory, 1, recs)
    return recs


class TestOneBlockPerLookup:
    """Format 4: the footer's block keys are bisected in memory, so a
    get, a peer's get and a scan's seek read exactly one SSData block."""

    @pytest.fixture(params=["cached", "direct"])
    def reader(self, request, store):
        self.recs = four_blocks(store)
        cache = BlockCache(1 << 22) if request.param == "cached" else None
        rd = SSTableReader(store, "t", 1, block_cache=cache)
        rd.load_bloom(0.0)
        _, self.t0 = rd.load_index(0.0)
        self.reads = data_reads(store)
        return rd

    def test_a_cold_get_is_one_read_and_one_block_of_virtual_time(
            self, reader, store):
        footer, _ = reader.footer(0.0)
        assert len(footer.block_crcs) == 4 == len(footer.block_keys)
        one_block = store.read_device.service_time(DATA_BLOCK_SIZE)
        # a cold block each: present, absent inside [min, max], present
        t = self.t0
        for n, (key, want) in enumerate([(self.recs[40].key, self.recs[40]),
                                         (b"key-0100\0", None),
                                         (self.recs[170].key, self.recs[170])]):
            rec, done = reader.get(key, t, use_bloom=False)
            assert rec == want
            assert (len(self.reads), done - t) == (
                n + 1, pytest.approx(one_block))
            t = done

    def test_what_the_block_keys_decide_costs_no_read(self, reader):
        index, _ = reader.load_index(0.0)
        assert reader.get(b"key", self.t0, use_bloom=False) == (None, self.t0)
        assert reader.find_ge(b"a", self.t0) == (0, self.t0)
        assert self.reads == []
        # in the gap past block 0's last record: block 1 is not needed
        # to learn that its first record is the answer
        footer, _ = reader.footer(0.0)
        nxt = footer.block_first[1]
        gap = self.recs[nxt - 1].key + b"\0"
        assert index[nxt - 1].offset // DATA_BLOCK_SIZE == 0
        assert reader.find_ge(gap, self.t0)[0] == nxt
        assert len(self.reads) == 1
        assert reader.get(gap, self.t0, use_bloom=False)[0] is None
        assert len(self.reads) == (1 if reader._cache is not None else 2)
        # above the table: the last block, once
        del self.reads[:]
        assert reader.find_ge(b"zzz", self.t0)[0] == len(index)
        assert len(self.reads) == 1

    def test_a_peer_reader_reads_the_owner_once(
            self, store):
        recs = four_blocks(store, "owner")
        reads = data_reads(store)
        db = SimpleNamespace(store=store, block_cache=BlockCache(1 << 22))
        peer = Database._peer_reader(db, "owner", 1)
        # the device's one file-built reader of the table — what the
        # owner searches with
        assert Database._peer_reader(db, "owner", 1) is peer
        assert db.block_cache.reader(store, "owner", 1) is peer
        ops = store.read_device.ops
        for _ in range(2):
            assert peer.get(recs[99].key, 0.0)[0] == recs[99]
        # one block, one index and one bloom load: the second get is
        # served from the reader and the device's block cache
        assert (reads, store.read_device.ops - ops) == (
            ["owner/0000000001.ssd"], 3)

    def test_a_corrupt_target_block_raises_and_is_never_cached(
            self, reader, store):
        flip_byte(store, "t/0000000001.ssd", offset=2 * DATA_BLOCK_SIZE + 99)
        index, _ = reader.load_index(0.0)
        victim = next(r for r, e in zip(self.recs, index)
                      if e.offset // DATA_BLOCK_SIZE == 2)
        for _ in range(2):  # the second try re-reads: nothing was cached
            with pytest.raises(CorruptionError, match="block 2"):
                reader.get(victim.key, 0.0)
        with pytest.raises(CorruptionError, match="block 2"):
            reader.find_ge(victim.key, 0.0)
        assert len(self.reads) == 3
        assert reader.get(self.recs[0].key, 0.0)[0] == self.recs[0]
        if reader._cache is not None:
            assert reader._cache.get("t", 1, 2, promote=False) is None


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


@st.composite
def _cut_tables(draw):
    """Records and a block size that cuts them anywhere: keys and values
    across block ends, tombstones, and (sometimes) a 200KB value that
    leaves thousands of blocks with no record starting in them."""
    kv = draw(st.dictionaries(
        st.binary(min_size=1, max_size=40),
        st.one_of(st.none(), st.binary(max_size=200)),
        min_size=1, max_size=50,
    ))
    recs = [Record(k, v or b"", v is None) for k, v in sorted(kv.items())]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(recs) - 1))
        recs[i] = Record(recs[i].key, b"L" * (200 * 1024))
    return recs, draw(st.sampled_from([64, 100, 257, 4096, DATA_BLOCK_SIZE]))


@seed(int(os.environ.get("PKV_FAULT_SEED", "7")))
@settings(max_examples=60, deadline=None)
@given(_cut_tables(), st.booleans())
def test_block_key_search_equals_the_oracles(tmp_path_factory, table, cached):
    """``get`` equals a dict, ``find_ge`` equals ``bisect_left`` over the
    decoded keys, and a get reads its key's block once plus whatever the
    record itself spills into — for any keys, sizes and block cut."""
    recs, bs = table
    store = PosixStore(
        str(tmp_path_factory.mktemp("cut")), TimedResource("d", 0.0, 1e9)
    )
    write_table(store, "t", 1, recs, block_size=bs)
    rd = SSTableReader(store, "t", 1,
                       block_cache=BlockCache(1 << 24) if cached else None)
    rd.verify(0.0)
    if cached:
        rd._cache.clear()  # verify's read_all filled it
    index, _ = rd.load_index(0.0)
    oracle = {r.key: r for r in recs}
    keys = sorted(oracle)
    reads = data_reads(store)
    for rec, entry in zip(recs, index):
        near = {rec.key, rec.key + b"\0", rec.key[:-1], rec.key[:-1] + b"\xff"}
        for k in near - {b""}:
            before = len(reads)
            assert rd.get(k, 0.0, use_bloom=False)[0] == oracle.get(k)
            if k == rec.key and not cached:
                spill = ((entry.offset + entry.record_len - 1) // bs
                         - entry.offset // bs)
                assert 1 <= len(reads) - before <= 1 + spill
            assert rd.find_ge(k, 0.0)[0] == bisect_left(keys, k)
    assert rd.find_ge(None, 0.0)[0] == 0
    if cached:  # every block was read at most once, whatever was asked
        assert len(reads) <= len(rd._footer.block_crcs)


def _blocks(start, length, bs):
    """The blocks SSData ``[start, start + length)`` touches."""
    return set(range(start // bs, (start + length - 1) // bs + 1)) if length else set()


def _probe_blocks(index, keys, footer, key, value):
    """The blocks the record-at-a-time binary search over SSData slices
    (format 4's first reader) touched for ``key``: the block its block
    key picks, each probe's key bytes and — for a get of a present key
    (``value``) — the record's value bytes.  With an ample cache that is
    every device read a cold lookup made; the decoded blocks must make
    the same ones."""
    bs = footer.block_size
    j = bisect_right(footer.block_keys, key) - 1
    if j < 0:
        return set()
    lo = footer.block_first[j]
    hi = footer.block_first[j + 1] if j + 1 < len(footer.block_first) \
        else len(index)
    touched, found = {index[lo].offset // bs}, footer.block_keys[j] == key
    while lo + 1 < hi and not found:
        mid = (lo + hi) // 2
        touched |= _blocks(index[mid].key_offset, index[mid].keylen, bs)
        if keys[mid] <= key:
            lo, found = mid, keys[mid] == key
        else:
            hi = mid
    if found and value:
        touched |= _blocks(_value_offset(index[lo]), index[lo].vallen, bs)
    return touched


def _check_against_read_all(store, recs, bs, windows):
    """``get``, ``find_ge`` and the run stream of a table cut by ``bs``
    byte blocks equal a filtered ``read_all`` — each from a cold cache,
    reading exactly the blocks the slice-at-a-time reader read."""
    write_table(store, "t", 1, recs, block_size=bs)
    assert SSTableReader(store, "t", 1).read_all(0.0)[0] == recs
    cache = BlockCache(1 << 24)
    rd = SSTableReader(store, "t", 1, block_cache=cache)
    index, _ = rd.load_index(0.0)
    footer, keys = rd._footer, [r.key for r in recs]
    reads = data_reads(store)

    def cold(fn):
        cache.clear()
        before = len(reads)
        return fn(), len(reads) - before

    probes = {k for r in recs for k in (r.key, r.key + b"\0", r.key[:-1])}
    for k in sorted(probes - {b""}):
        i = bisect_left(keys, k)
        want = recs[i] if i < len(keys) and keys[i] == k else None
        got, n = cold(lambda: rd.get(k, 0.0, use_bloom=False)[0])
        assert (got, n) == (want, len(_probe_blocks(index, keys, footer, k, True)))
        pos, n = cold(lambda: rd.find_ge(k, 0.0)[0])
        assert (pos, n) == (i, len(_probe_blocks(index, keys, footer, k, False)))
    for start, end, keys_only in windows:
        (got, _, _), n = cold(lambda: cursor_window(rd, start, end, keys_only))
        assert got == window_triples(recs, start, end, keys_only)
        lo = 0 if start is None else bisect_left(keys, start)
        touched = set() if start is None else _probe_blocks(
            index, keys, footer, start, False)
        for e, k in zip(index[lo:], keys[lo:]):
            touched |= _blocks(e.key_offset,
                               e.keylen + (0 if keys_only else e.vallen), bs)
            if end is not None and k >= end:
                break
        assert n == len(touched)
    return index


def _edge_table(bs):
    """Every cut a ``bs``-byte block boundary can make: a key, a header,
    a value over 4 blocks and one over 2, beside a tombstone and an
    empty value, and the key of a block's only record start."""
    recs, off = [], 0

    def add(key, value=b"", tombstone=False):
        nonlocal off
        recs.append(Record(key, value, tombstone))
        off += RECORD_HEADER_LEN + len(key) + len(value)

    def pad(key, to):  # a record ending at ``to``
        add(key, b"p" * (to - off - RECORD_HEADER_LEN - len(key)))

    pad(b"a", bs - 12)
    add(b"b" * 8, b"v-b")  # its key starts 3 bytes before the boundary
    add(b"c", tombstone=True)
    add(b"d")
    add(b"e", b"y" * (3 * bs + 5))
    pad(b"f", (off // bs + 2) * bs - 4)
    add(b"g", b"v-g")  # its header starts 4 bytes before a boundary
    add(b"h", b"z" * bs)
    add(b"i", b"v-i")
    pad(b"j", (off // bs + 2) * bs - 12)
    add(b"k" * 8, tombstone=True)  # a block's first record, key cut
    return recs


@pytest.mark.parametrize("bs", [64, 100, 4096])
def test_decoded_blocks_cover_every_cut(tmp_path, bs):
    recs = _edge_table(bs)
    store = PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))
    windows = [(None, None, False), (None, None, True), (b"b", b"g", False),
               (b"bb", b"h", True), (b"e", b"e\0", False), (b"g", None, False)]
    index = _check_against_read_all(store, recs, bs, windows)
    cut = [e.key_offset // bs != (e.key_offset + e.keylen - 1) // bs
           for e in index]
    header = [e.offset // bs != e.key_offset // bs for e in index]
    long = [(_value_offset(e) + e.vallen - 1) // bs - _value_offset(e) // bs
            for e in index]
    assert cut[1] and header[6] and long[4] >= 3 and long[7] >= 1
    assert cut[10] and index[10].offset // bs not in {
        e.offset // bs for e in index[:10]}
    assert recs[2].tombstone and recs[3] == (b"d", b"", False)


@st.composite
def _decoded_tables(draw):
    """Records and a 64, 100 or 4096-byte block: keys across block ends,
    empty values, tombstones and values of 3 blocks and more."""
    bs = draw(st.sampled_from([64, 100, 4096]))
    big = st.integers(3 * bs, 3 * bs + 300).map(lambda n: b"V" * n)
    kv = draw(st.dictionaries(
        st.binary(min_size=1, max_size=40),
        st.one_of(st.none(), st.just(b""), st.binary(max_size=150), big),
        min_size=1, max_size=30,
    ))
    recs = [Record(k, v or b"", v is None) for k, v in sorted(kv.items())]
    window = st.one_of(st.none(), st.sampled_from(sorted(kv)))
    windows = draw(st.lists(st.tuples(window, window, st.booleans()),
                            min_size=1, max_size=3))
    return recs, bs, windows


@seed(int(os.environ.get("PKV_FAULT_SEED", "7")))
@settings(max_examples=60, deadline=None)
@given(_decoded_tables())
def test_decoded_blocks_equal_read_all(tmp_path_factory, table):
    recs, bs, windows = table
    store = PosixStore(str(tmp_path_factory.mktemp("dec")),
                       TimedResource("d", 0.0, 1e9))
    _check_against_read_all(store, recs, bs, windows)
