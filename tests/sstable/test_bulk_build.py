"""A table is built and read back a table at a time, byte for byte as
the record-at-a-time code built it.

``encode_table`` joins SSData, packs the index and fills the bloom in a
few passes over the whole table; ``BloomFilter.update`` sets the bits of
a whole key list at once; ``read_all`` decodes a verified table through
its index.  The format does not change: every blob must equal what the
record-at-a-time reference below (the encoder these replaced, kept here
with its own bloom hashing and index serializer) produces, and two
fixed tables must hash to digests pinned from that encoder.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.format import (
    DATA_BLOCK_SIZE,
    Record,
    decode_records,
    encode_index,
    parse_index,
    sstable_paths,
)
from repro.sstable.reader import SSTableReader
from repro.sstable.writer import encode_table
from repro.util.bloom import BloomFilter, blake2b
from repro.util.checksum import crc32c
from tests.conftest import write_table

_MASK64 = (1 << 64) - 1


# ------------------------------------------------------------- reference
def _reference_bloom_bits(keys, nbits, nhashes, bits=None):
    """The bit vector ``add`` set one key and one probe at a time."""
    bits = bytearray((nbits + 7) // 8) if bits is None else bytearray(bits)
    for key in keys:
        h = int.from_bytes(blake2b(key, digest_size=16).digest(), "little")
        h1, h2 = h & _MASK64, h >> 64 | 1
        for i in range(nhashes):
            pos = ((h1 + i * h2) & _MASK64) % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
    return bytes(bits)


def reference_encode(records, fp_rate=0.01, block_size=DATA_BLOCK_SIZE):
    """The record-at-a-time table encoder, self-contained."""
    recs = list(records)
    assert all(a.key < b.key for a, b in zip(recs, recs[1:]))
    data, entries = bytearray(), []
    for r in recs:
        flags = 1 if r.tombstone else 0
        entries.append((len(data), len(r.key), len(r.value), flags))
        data += struct.pack("<IIB", len(r.key), len(r.value), flags)
        data += r.key + r.value
    n = max(1, len(recs))
    nbits = max(8, int(math.ceil(-n * math.log(fp_rate) / math.log(2) ** 2)))
    nhashes = max(1, int(round(nbits / n * math.log(2))))
    body = (struct.pack("<QIQ", nbits, nhashes, len(recs))
            + _reference_bloom_bits([r.key for r in recs], nbits, nhashes))
    bloom = struct.pack("<II", 0x34424B50, crc32c(body)) + body
    crcs = [crc32c(data[o:o + block_size])
            for o in range(0, len(data), block_size)] or [crc32c(b"")]
    first, blk = [], -1
    for i, (offset, *_rest) in enumerate(entries):
        if offset // block_size != blk:
            blk = offset // block_size
            first.append(i)
    index = bytearray(struct.pack("<IQ", 0x34564B50, len(entries)))
    for e in entries:
        index += struct.pack("<QIIB", *e)
    index += struct.pack("<QII", len(data), block_size, len(crcs))
    for c in crcs:
        index += struct.pack("<I", c)
    index += struct.pack("<II", crc32c(bloom), len(bloom))
    keys = [recs[0].key if recs else b"", recs[-1].key if recs else b""]
    for key in keys:
        index += struct.pack("<I", len(key)) + key
    index += struct.pack("<I", len(first))
    for i in first:
        index += struct.pack("<I", len(recs[i].key)) + recs[i].key
    index += struct.pack("<I", crc32c(index))
    return {"data": bytes(data), "index": bytes(index), "bloom": bloom}


def _table(n, vsize=24, tomb_every=7, klen=10):
    return [Record(b"k%0*d" % (klen, i), b"v" * (vsize + i % 5),
                   i % tomb_every == 0) for i in range(n)]


CASES = {
    "empty": [],
    "one": [Record(b"only", b"value")],
    "tombstones-only": [Record(b"a%03d" % i, b"", True) for i in range(40)],
    "long-keys": [Record(bytes([65 + i]) * 5000, b"x" * i, i == 3)
                  for i in range(8)],
    # ~30 KB records: several straddle each 64 KB block cut
    "straddling-64k": [Record(b"s%04d" % i, bytes([i]) * 30_001, i == 5)
                       for i in range(9)],
    "2000": _table(2000),
}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("block_size", [64, 100, 4096, DATA_BLOCK_SIZE])
def test_blobs_equal_the_record_at_a_time_encoder(name, block_size):
    recs = CASES[name]
    got = encode_table(recs, block_size=block_size)
    assert got == reference_encode(recs, block_size=block_size)


def test_blobs_are_bytes():
    # SSData is the one join's result, not a bytearray copied again
    assert all(type(blob) is bytes
               for blob in encode_table(CASES["2000"]).values())


def test_unsorted_or_duplicate_keys_are_refused():
    for recs in ([Record(b"b", b""), Record(b"a", b"")],
                 [Record(b"a", b"1"), Record(b"a", b"2")]):
        with pytest.raises(ValueError, match="strictly sorted"):
            encode_table(recs)


# ------------------------------------------------------- pinned digests
def _golden_a():
    return sorted(
        Record(b"user%d:%08d" % (i % 3, i * 7),
               b"v%05d|" % i + b"." * (i * 37 % 1100), i % 11 == 0)
        for i in range(600))


def _golden_b():
    return sorted(
        Record(bytes([97 + i % 26]) * (1 + i % 40) + b"%04d" % i,
               bytes(range(i % 256)) * 3, i % 5 == 0)
        for i in range(120))


#: SHA-256 of each blob, computed with the record-at-a-time encoder
GOLDEN = {
    "a": (_golden_a, DATA_BLOCK_SIZE, {
        "data": "860829a657428560eda9cdf24d7c3cebcd50f75d25535d6fd83b9dbddadd8ece",
        "index": "f4f7d0aa97cada2d03c552f205486220007c388df0e292f46fa70a3182b1fe91",
        "bloom": "cd0d514254fda8132595e62bae72ec7529b6344309ad19845e26fb2baa335ee0",
    }),
    "b": (_golden_b, 100, {
        "data": "4baf7ecd644b93a383460b84f5402e61805ed5a9511a2f85c04212e94c854558",
        "index": "6f2b0732f6e3b228e1bfde4d50b73f72e9658c42e11508f50c3af6128ebbd67e",
        "bloom": "907eb01cf008760c1d4d00e2e3cb32b480ded841991b2519fff87957c3ef2d24",
    }),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_pinned_digests(name):
    records, block_size, want = GOLDEN[name]
    blobs = encode_table(records(), block_size=block_size)
    assert {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()} == want


# ------------------------------------------------------------- the bloom
@seed(int(os.environ.get("PKV_FAULT_SEED", "7")))
@settings(max_examples=150, deadline=None)
@given(before=st.lists(st.binary(max_size=24), max_size=12),
       keys=st.lists(st.binary(max_size=24), max_size=60),
       nbits=st.integers(8, 3000), nhashes=st.integers(1, 12))
def test_update_sets_the_bits_add_sets(before, keys, nbits, nhashes):
    keys += keys[::3]  # duplicates: counted, their bits set again
    one_by_one, bulk = BloomFilter(nbits, nhashes), BloomFilter(nbits, nhashes)
    for f in (one_by_one, bulk):  # a fresh filter, or a non-empty one
        for key in before:
            f.add(key)
    for key in keys:
        one_by_one.add(key)
    bulk.update(keys)
    assert bulk.to_bytes() == one_by_one.to_bytes()
    assert bulk.count == len(before) + len(keys)
    assert bulk.to_bytes()[20:] == _reference_bloom_bits(
        before + keys, nbits, nhashes)
    assert all(key in bulk for key in before + keys)


# ------------------------------------------------------------- read_all
@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 1e-5, 1e9))


@pytest.mark.parametrize("block_size", [64, 4096])
def test_read_all_through_the_index_equals_decode_records(store, block_size):
    recs = _table(300, vsize=40)
    write_table(store, "t", 1, recs, block_size=block_size)
    got, _ = SSTableReader(store, "t", 1).read_all(0.0)
    data, _ = store.read(sstable_paths("t", 1)[0], 0.0)
    assert got == list(decode_records(data)) == recs
    assert all(type(r) is Record for r in got)


def _rewrite_index(store, entries_of):
    """Replace table 1's index by one with the same footer and a valid
    CRC, whose entries are ``entries_of(entries)``."""
    _, index_p, _ = sstable_paths("t", 1)
    entries, footer = parse_index(store.read(index_p, 0.0)[0])
    store.write(index_p, encode_index(entries_of(entries), footer), 0.0)


@pytest.mark.parametrize("damage", ["shifted", "short", "dropped"])
def test_an_index_that_does_not_tile_ssdata_is_corrupt(store, damage):
    write_table(store, "t", 1, _table(20))

    def entries_of(entries):
        e = entries[5]
        if damage == "shifted":  # one record starts a byte late
            entries[5] = e._replace(offset=e.offset + 1)
        elif damage == "short":  # the last record claims a byte less
            entries[-1] = entries[-1]._replace(vallen=entries[-1].vallen - 1)
        else:  # a record the index forgot
            del entries[-1]
        return entries

    _rewrite_index(store, entries_of)
    with pytest.raises(CorruptionError):
        SSTableReader(store, "t", 1).read_all(0.0)
    with pytest.raises(CorruptionError):
        SSTableReader(store, "t", 1).verify(0.0)


def test_verify_catches_an_index_flag_ssdata_does_not_carry(store):
    # lengths tile, so read_all trusts it; verify decodes the headers
    write_table(store, "t", 1, _table(20))
    recs = _table(20)
    assert not recs[1].tombstone
    _rewrite_index(store, lambda es: [es[0], es[1]._replace(tombstone=True),
                                      *es[2:]])
    assert SSTableReader(store, "t", 1).read_all(0.0)[0][1].tombstone
    with pytest.raises(CorruptionError, match="disagree"):
        SSTableReader(store, "t", 1).verify(0.0)


def test_missing_sidecars_still_decode_structurally(store):
    recs = _table(50)
    write_table(store, "t", 1, recs)
    _, index_p, bloom_p = sstable_paths("t", 1)
    for p in (index_p, bloom_p):
        os.remove(store.path(p))
    assert SSTableReader(store, "t", 1).read_all(0.0)[0] == recs
