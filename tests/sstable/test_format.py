"""SSTable binary format: round trips and the integrity promise.

The format's promise: no ``get`` ever silently returns a wrong value.
Every kind of single-byte damage to any of the three files must surface
as a typed error — and so must a footer whose block keys would steer a
lookup to the wrong block.  Formats 1 (footer-less index, raw bloom), 2
(Castagnoli CRC32C) and 3 (no block keys, FNV bloom hashes) are no
longer read: such a file is outside input and must be *rejected* by
version.
"""

from __future__ import annotations

import struct
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, StorageError, TornWriteError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.core.checkpoint import _resolved
from repro.sstable.format import (
    BLOOM_MAGIC_V2,
    BLOOM_MAGIC_V3,
    INDEX_ENTRY_LEN,
    MAGIC_V1,
    MAGIC_V2,
    MAGIC_V3,
    RECORD_HEADER_LEN,
    IndexEntry,
    Record,
    data_block_crcs,
    decode_bloom_file,
    decode_record_at,
    decode_records,
    encode_bloom_file,
    encode_index,
    make_footer,
    parse_index,
    sstable_filenames,
)
from repro.sstable.reader import SSTableReader
from repro.sstable.writer import encode_table
from repro.tools.dump import verify_sstable
from repro.util.bloom import BloomFilter
from repro.util.checksum import crc32c
from tests.conftest import flip_byte, write_table

#: a footer for index-only round trips (no data/bloom behind it)
FOOTER = make_footer(b"", b"")


def encode_record(rec):
    """One record in SSData layout: a one-record table's SSData."""
    return encode_table([rec])["data"]


class TestRecord:
    def test_encode_decode(self):
        rec = Record(b"key", b"value")
        blob = encode_record(rec)
        out, nxt = decode_record_at(blob, 0)
        assert out == rec
        assert nxt == len(blob)

    def test_tombstone_flag(self):
        rec = Record(b"dead", b"", tombstone=True)
        out, _ = decode_record_at(encode_record(rec), 0)
        assert out.tombstone
        assert out.value == b""

    def test_encoded_len(self):
        rec = Record(b"abc", b"01234")
        assert rec.encoded_len() == RECORD_HEADER_LEN + 8
        assert len(encode_record(rec)) == rec.encoded_len()

    def test_concatenated_stream(self):
        recs = [Record(f"k{i}".encode(), f"v{i}".encode()) for i in range(10)]
        blob = b"".join(encode_record(r) for r in recs)
        assert list(decode_records(blob)) == recs

    def test_empty_value(self):
        rec = Record(b"k", b"")
        out, _ = decode_record_at(encode_record(rec), 0)
        assert out.value == b""
        assert not out.tombstone


class TestIndex:
    def test_round_trip(self):
        entries = [
            IndexEntry(0, 3, 5, False),
            IndexEntry(17, 4, 0, True),
        ]
        # format 4: a footer names the first key of each block a record
        # starts in, so it can no longer be independent of the entries
        footer = replace(FOOTER, min_key=b"abc", block_keys=(b"abc",),
                         block_first=(0,))
        assert parse_index(encode_index(entries, footer)) == (entries, footer)

    def test_empty_index(self):
        assert parse_index(encode_index([], FOOTER))[0] == []

    def test_bad_magic(self):
        blob = bytearray(encode_index([], FOOTER))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError):
            parse_index(bytes(blob))

    def test_truncated(self):
        blob = encode_index([IndexEntry(0, 1, 1, False)], FOOTER)
        with pytest.raises(ValueError):
            parse_index(blob[: len(blob) - 1])
        with pytest.raises(ValueError):
            parse_index(b"xx")

    def test_entry_geometry(self):
        e = IndexEntry(100, 4, 8, False)
        assert e.key_offset == 100 + RECORD_HEADER_LEN
        assert e.record_len == RECORD_HEADER_LEN + 12
        assert INDEX_ENTRY_LEN == 17


class TestFilenames:
    def test_three_files(self):
        d, i, b = sstable_filenames(42)
        assert d == "0000000042.ssd"
        assert i == "0000000042.ssi"
        assert b == "0000000042.bf"

    def test_lexicographic_matches_numeric(self):
        names = [sstable_filenames(n)[0] for n in (1, 9, 10, 100)]
        assert names == sorted(names)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.binary(min_size=1, max_size=24),
              st.binary(max_size=64),
              st.booleans()),
    max_size=40,
))
def test_record_stream_round_trip(items):
    recs = [Record(k, b"" if t else v, t) for k, v, t in items]
    blob = b"".join(encode_record(r) for r in recs)
    assert list(decode_records(blob)) == recs


# ------------------------------------------------------------- integrity
@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))


RECORDS = [Record(f"key{i:04d}".encode(), f"val{i:04d}".encode() * 4)
           for i in range(200)]


def _write(store):
    write_table(store, "t", 1, RECORDS)


def _truncate(store, rel, keep):
    p = store.path(rel)
    blob = open(p, "rb").read()
    with open(p, "wb") as f:
        f.write(blob[:keep])


class TestChecksum:
    def test_known_answer(self):
        # the CRC-32/ISO-HDLC (zlib, PNG, Ethernet) check vector: another
        # polynomial here would quarantine every table ever written
        assert crc32c(b"123456789") == 0xCBF43926

    def test_streaming_equals_one_shot(self):
        a, b = b"hello ", b"world"
        assert crc32c(b, crc32c(a)) == crc32c(a + b)

    def test_any_buffer_type_gives_the_same_value(self):
        blob = bytes(range(256)) * 5
        want = crc32c(blob)
        assert crc32c(bytearray(blob)) == want
        assert crc32c(memoryview(blob)) == want
        assert crc32c(memoryview(b"xx" + blob + b"yy")[2:-2]) == want

    def test_a_mebibyte_checksums_at_native_speed(self):
        # guard against a per-byte interpreter loop creeping back: that
        # needs ~125 ms for 1 MiB, the C routine < 1 ms
        blob = bytes(1 << 20)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            crc32c(blob)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.020


class TestRoundTrip:
    def test_write_read_all(self, store):
        _write(store)
        rd = SSTableReader(store, "t", 1)
        records, _ = rd.read_all(0.0)
        assert records == RECORDS

    def test_gets_both_search_modes(self, store):
        _write(store)
        rd = SSTableReader(store, "t", 1)
        for binary in (True, False):
            rec, _ = rd.get(b"key0150", 0.0, binary_search=binary)
            assert rec.value == b"val0150" * 4

    def test_index_carries_verified_footer(self, store):
        _write(store)
        blob, _ = store.read("t/0000000001.ssi", 0.0)
        entries, footer = parse_index(blob)
        assert len(entries) == len(RECORDS)
        data, _ = store.read("t/0000000001.ssd", 0.0)
        assert footer.data_len == len(data)
        assert tuple(data_block_crcs(data, footer.block_size)) == \
            tuple(footer.block_crcs)

    def test_verify_clean_table(self, store):
        _write(store)
        SSTableReader(store, "t", 1).verify(0.0)

    def test_bloom_file_self_checks(self):
        bloom = BloomFilter.for_capacity(len(RECORDS), 0.01)
        for r in RECORDS:
            bloom.add(r.key)
        blob = encode_bloom_file(bloom)
        assert decode_bloom_file(blob).__contains__(RECORDS[0].key)
        damaged = bytearray(blob)
        damaged[12] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_bloom_file(bytes(damaged))


class TestRetiredFormatsRejected:
    """A format-1, -2 or -3 file is refused by version, never
    half-trusted and never reported as mere damage."""

    @staticmethod
    def _v1_index(nentries=1):
        # the retired layout: "PAKV" magic, count, fixed entries, no footer
        blob = struct.pack("<IQ", MAGIC_V1, nentries)
        for i in range(nentries):
            blob += struct.pack("<QIIB", 38 * i, 7, 28, 0)
        return blob

    @staticmethod
    def _restamped_index(magic=MAGIC_V2):
        # the version is read off the magic before anything else (the
        # CRC polynomial of 2, the shorter footer of 3 are never reached)
        blob = bytearray(encode_table(RECORDS)["index"])
        struct.pack_into("<I", blob, 0, magic)
        return bytes(blob)

    def test_v1_index_names_the_unsupported_version(self):
        with pytest.raises(CorruptionError, match="version 1"):
            parse_index(self._v1_index())

    def test_v2_index_names_the_unsupported_version(self):
        with pytest.raises(CorruptionError, match="version 2"):
            parse_index(self._restamped_index())

    def test_v3_index_bloom_and_checkpoint_name_the_unsupported_version(self):
        with pytest.raises(CorruptionError, match="version 3"):
            parse_index(self._restamped_index(MAGIC_V3))
        blob = bytearray(encode_table(RECORDS)["bloom"])
        struct.pack_into("<I", blob, 0, BLOOM_MAGIC_V3)
        with pytest.raises(CorruptionError, match="version 3"):
            decode_bloom_file(bytes(blob))
        with pytest.raises(CorruptionError, match="version 3 is not supp"):
            _resolved({"format": 3}, 1)

    def test_raw_v1_bloom_is_rejected(self):
        bloom = BloomFilter.for_capacity(4, 0.01)
        bloom.add(b"k")
        with pytest.raises(CorruptionError, match="version 1"):
            decode_bloom_file(bloom.to_bytes())
        with pytest.raises(CorruptionError):
            decode_bloom_file(b"\x00\x01")

    def test_v2_bloom_header_is_rejected(self):
        blob = bytearray(encode_table(RECORDS)["bloom"])
        struct.pack_into("<I", blob, 0, BLOOM_MAGIC_V2)
        with pytest.raises(CorruptionError, match="version 2"):
            decode_bloom_file(bytes(blob))

    @pytest.mark.parametrize("version", [1, 2])
    def test_reader_refuses_a_retired_table(self, store, version):
        _write(store)
        with open(store.path("t/0000000001.ssi"), "wb") as f:
            f.write(self._v1_index(len(RECORDS)) if version == 1
                    else self._restamped_index())
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(CorruptionError, match=f"version {version}"):
            rd.get(b"key0003", 0.0, use_bloom=False)
        with pytest.raises(CorruptionError, match=f"version {version}"):
            SSTableReader(store, "t", 1).verify(0.0)

    def test_fsck_names_the_version_not_damage(self, store):
        _write(store)
        with open(store.path("t/0000000001.ssi"), "wb") as f:
            f.write(self._restamped_index())
        (problem,) = verify_sstable(store.path("t"), 1)
        assert "unsupported format version 2" in problem


class TestDamageDetection:
    """Single-byte damage anywhere -> typed error, never a wrong value."""

    def test_data_bit_flip_detected_on_get(self, store):
        _write(store)
        flip_byte(store, "t/0000000001.ssd", offset=500)
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(CorruptionError):
            # probe every key: whichever path touches the damaged block
            # must raise, and no key may return a mangled value
            for r in RECORDS:
                got, _ = rd.get(r.key, 0.0)
                assert got is None or got.value == r.value

    def test_data_truncation_is_torn_write(self, store):
        _write(store)
        size = store.size("t/0000000001.ssd")
        _truncate(store, "t/0000000001.ssd", size - 7)
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(TornWriteError):
            rd.get(RECORDS[-1].key, 0.0)

    def test_index_bit_flip_detected(self, store):
        _write(store)
        flip_byte(store, "t/0000000001.ssi", offset=40)
        with pytest.raises(CorruptionError):
            SSTableReader(store, "t", 1).get(RECORDS[0].key, 0.0)

    def test_bloom_bit_flip_detected(self, store):
        _write(store)
        flip_byte(store, "t/0000000001.bf", offset=20)
        with pytest.raises(CorruptionError):
            SSTableReader(store, "t", 1).get(RECORDS[0].key, 0.0)

    def test_verify_reports_each_damage_kind(self, store):
        for rel, exc in [
            ("t/0000000001.ssd", CorruptionError),
            ("t/0000000001.ssi", CorruptionError),
            ("t/0000000001.bf", CorruptionError),
        ]:
            _write(store)
            flip_byte(store, rel, offset=33)
            with pytest.raises(exc):
                SSTableReader(store, "t", 1).verify(0.0)

    def test_corruption_error_is_value_and_storage_error(self, store):
        _write(store)
        flip_byte(store, "t/0000000001.ssi", offset=40)
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(ValueError):
            rd.get(RECORDS[0].key, 0.0)
        rd2 = SSTableReader(store, "t", 1)
        with pytest.raises(StorageError):
            rd2.get(RECORDS[0].key, 0.0)


class TestEncodeTable:
    def test_sidecars_are_pure_functions_of_data(self, store):
        blobs1 = encode_table(RECORDS)
        blobs2 = encode_table(RECORDS)
        assert blobs1 == blobs2

    def test_footer_tracks_bloom(self):
        blobs = encode_table(RECORDS)
        _, footer = parse_index(blobs["index"])
        assert footer.bloom_len == len(blobs["bloom"])
        assert footer.bloom_crc == crc32c(blobs["bloom"])

    def test_empty_data_has_one_block_crc(self):
        footer = make_footer(b"", b"bloomblob")
        assert footer.block_crcs == (crc32c(b""),)


#: three records over two 32-byte blocks: ``bb`` is cut by the boundary
#: (it *starts* in block 0), so the second block's key is ``c``
TWO_BLOCK = [Record(b"a", b"1" * 12), Record(b"bb", b"2" * 6),
             Record(b"c", b"", True)]


class TestBlockKeys:
    """The footer's sparse block index: one key per block a record
    starts in, validated at parse so it can never misdirect a lookup."""

    def test_golden_footer_bytes(self):
        blobs = encode_table(TWO_BLOCK, block_size=32)
        data, index = blobs["data"], blobs["index"]
        assert len(data) == 22 + 17 + 10
        want = struct.pack("<IQ", 0x34564B50, 3)  # "PKV4", count
        want += struct.pack("<QIIB", 0, 1, 12, 0)
        want += struct.pack("<QIIB", 22, 2, 6, 0)
        want += struct.pack("<QIIB", 39, 1, 0, 1)
        want += struct.pack("<QII", 49, 32, 2)  # data_len, block_size, nblocks
        want += struct.pack("<II", crc32c(data[:32]), crc32c(data[32:]))
        want += struct.pack("<II", crc32c(blobs["bloom"]), len(blobs["bloom"]))
        want += b"\x01\x00\x00\x00a" + b"\x01\x00\x00\x00c"  # min, max
        want += b"\x02\x00\x00\x00"  # two block keys follow
        want += b"\x01\x00\x00\x00a" + b"\x01\x00\x00\x00c"
        assert index == want + struct.pack("<I", crc32c(want))
        _, footer = parse_index(index)
        assert (footer.block_keys, footer.block_first) == ((b"a", b"c"), (0, 2))
        assert blobs["bloom"][:4] == b"PKB4"

    def test_blocks_without_a_record_start_have_no_key(self):
        recs = [Record(b"a", b"x" * 100), Record(b"b", b"y" * 10),
                Record(b"c", b"z")]
        entries, footer = parse_index(encode_table(recs, block_size=32)["index"])
        assert len(footer.block_crcs) == 5
        assert [entries[i].offset // 32 for i in footer.block_first] == [0, 3, 4]
        assert footer.block_keys == (b"a", b"b", b"c")

    @pytest.mark.parametrize("damage", [
        dict(block_keys=(b"a", b"a")),              # not strictly ascending
        dict(block_keys=(b"c", b"a")),              # descending
        dict(block_keys=(b"b", b"c")),              # first is not min_key
        dict(block_keys=(b"a",)),                   # a block lost its key
        dict(block_keys=(b"a", b"bb", b"c")),       # one key too many
        dict(block_keys=(b"a", b"cc")),             # not its entry's length
        dict(block_keys=()),                        # none at all
        dict(block_size=0),
    ])
    def test_malformed_block_keys_are_corruption_crc_valid_or_not(self, damage):
        entries, footer = parse_index(
            encode_table(TWO_BLOCK, block_size=32)["index"])
        blob = encode_index(entries, replace(footer, **damage))
        with pytest.raises(CorruptionError, match="block"):
            parse_index(blob)  # the CRC is valid: the writer was wrong

    def test_block_keys_on_an_empty_table_are_corruption(self):
        entries, footer = parse_index(encode_table([])["index"])
        assert (entries, footer.block_keys, footer.block_first) == ([], (), ())
        blob = encode_index([], replace(footer, block_keys=(b"a",)))
        with pytest.raises(CorruptionError, match="1 block keys for 0"):
            parse_index(blob)

    def test_a_wrong_block_key_of_the_right_shape_fails_verify_and_fsck(
            self, store):
        # "b" < "c" keeps the list ascending and entry 2's key length:
        # parse cannot see it, the verifiers that decode SSData must
        write_table(store, "t", 1, TWO_BLOCK, block_size=32)
        entries, footer = parse_index(store.read("t/0000000001.ssi", 0.0)[0])
        with open(store.path("t/0000000001.ssi"), "wb") as f:
            f.write(encode_index(entries, replace(footer,
                                                  block_keys=(b"a", b"b"))))
        with pytest.raises(CorruptionError, match="block key b'b'"):
            SSTableReader(store, "t", 1).verify(0.0)
        assert any("block key b'b'" in p
                   for p in verify_sstable(store.path("t"), 1))
