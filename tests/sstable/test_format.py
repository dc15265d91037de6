"""SSTable binary format round-trip tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sstable.format import (
    INDEX_ENTRY_LEN,
    IndexEntry,
    RECORD_HEADER_LEN,
    Record,
    decode_index,
    decode_record_at,
    decode_records,
    encode_index,
    encode_record,
    make_footer,
    sstable_filenames,
)

#: a footer for index-only round trips (no data/bloom behind it)
FOOTER = make_footer(b"", b"")


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
        assert decode_index(encode_index(entries, FOOTER)) == entries

    def test_empty_index(self):
        assert decode_index(encode_index([], FOOTER)) == []

    def test_bad_magic(self):
        blob = bytearray(encode_index([], FOOTER))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError):
            decode_index(bytes(blob))

    def test_truncated(self):
        blob = encode_index([IndexEntry(0, 1, 1, False)], FOOTER)
        with pytest.raises(ValueError):
            decode_index(blob[: len(blob) - 1])
        with pytest.raises(ValueError):
            decode_index(b"xx")

    def test_entry_geometry(self):
        e = IndexEntry(100, 4, 8, False)
        assert e.key_offset == 100 + RECORD_HEADER_LEN
        assert e.value_offset == e.key_offset + 4
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
