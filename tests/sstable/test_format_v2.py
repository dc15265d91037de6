"""SSTable format v2: checksummed blocks, self-checking sidecars.

The v2 promise: no ``get`` ever silently returns a wrong value.  Every
kind of single-byte damage to any of the three files must surface as a
typed error.  Format v1 (footer-less index, raw bloom) is no longer
read: such a file is outside input and must be *rejected* by name.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import CorruptionError, StorageError, TornWriteError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.format import (
    MAGIC_V1,
    Record,
    data_block_crcs,
    decode_bloom_file,
    encode_bloom_file,
    make_footer,
    parse_index,
)
from repro.sstable.reader import SSTableReader
from repro.sstable.writer import encode_table, write_sstable
from repro.util.bloom import BloomFilter
from repro.util.checksum import _crc32c_py, crc32c


@pytest.fixture()
def store(tmp_path):
    return PosixStore(str(tmp_path), TimedResource("d", 0.0, 1e9))


RECORDS = [Record(f"key{i:04d}".encode(), f"val{i:04d}".encode() * 4)
           for i in range(200)]


def _write(store):
    write_sstable(store, "t", 1, RECORDS, 0.0)


def _flip_byte(store, rel, offset=100):
    p = store.path(rel)
    blob = bytearray(open(p, "rb").read())
    blob[offset % len(blob)] ^= 0x40
    with open(p, "wb") as f:
        f.write(bytes(blob))


def _truncate(store, rel, keep):
    p = store.path(rel)
    blob = open(p, "rb").read()
    with open(p, "wb") as f:
        f.write(blob[:keep])


class TestChecksum:
    def test_known_answer(self):
        # the iSCSI/ext4 check vector: a wrong table would quarantine
        # every table ever written
        assert crc32c(b"123456789") == 0xE3069283
        assert _crc32c_py(b"123456789") == 0xE3069283

    def test_streaming_equals_one_shot(self):
        a, b = b"hello ", b"world"
        assert crc32c(b, crc32c(a)) == crc32c(a + b)


class TestV2RoundTrip:
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


class TestV1Rejected:
    """A footer-less format-1 table is refused, never half-trusted."""

    @staticmethod
    def _v1_index(nentries=1):
        # the retired layout: "PAKV" magic, count, fixed entries, no footer
        blob = struct.pack("<IQ", MAGIC_V1, nentries)
        for i in range(nentries):
            blob += struct.pack("<QIIB", 38 * i, 7, 28, 0)
        return blob

    def test_v1_index_names_the_unsupported_version(self):
        with pytest.raises(CorruptionError, match="version 1"):
            parse_index(self._v1_index())

    def test_raw_v1_bloom_is_rejected(self):
        bloom = BloomFilter.for_capacity(4, 0.01)
        bloom.add(b"k")
        with pytest.raises(CorruptionError, match="version 1"):
            decode_bloom_file(bloom.to_bytes())
        with pytest.raises(CorruptionError):
            decode_bloom_file(b"\x00\x01")

    def test_reader_refuses_a_v1_table(self, store):
        _write(store)
        with open(store.path("t/0000000001.ssi"), "wb") as f:
            f.write(self._v1_index(len(RECORDS)))
        rd = SSTableReader(store, "t", 1)
        with pytest.raises(CorruptionError, match="version 1"):
            rd.get(b"key0003", 0.0, use_bloom=False)
        with pytest.raises(CorruptionError, match="version 1"):
            SSTableReader(store, "t", 1).verify(0.0)


class TestDamageDetection:
    """Single-byte damage anywhere -> typed error, never a wrong value."""

    def test_data_bit_flip_detected_on_get(self, store):
        _write(store)
        _flip_byte(store, "t/0000000001.ssd", offset=500)
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
        _flip_byte(store, "t/0000000001.ssi", offset=40)
        with pytest.raises(CorruptionError):
            SSTableReader(store, "t", 1).get(RECORDS[0].key, 0.0)

    def test_bloom_bit_flip_detected(self, store):
        _write(store)
        _flip_byte(store, "t/0000000001.bf", offset=20)
        with pytest.raises(CorruptionError):
            SSTableReader(store, "t", 1).get(RECORDS[0].key, 0.0)

    def test_verify_reports_each_damage_kind(self, store):
        for rel, exc in [
            ("t/0000000001.ssd", CorruptionError),
            ("t/0000000001.ssi", CorruptionError),
            ("t/0000000001.bf", CorruptionError),
        ]:
            _write(store)
            _flip_byte(store, rel, offset=33)
            with pytest.raises(exc):
                SSTableReader(store, "t", 1).verify(0.0)

    def test_corruption_error_is_value_and_storage_error(self, store):
        _write(store)
        _flip_byte(store, "t/0000000001.ssi", offset=40)
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
