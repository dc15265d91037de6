"""Binary on-disk format of the three SSTable files.

SSData record layout (little-endian)::

    keylen   u32
    vallen   u32
    flags    u8     (bit 0 = tombstone)
    key      keylen bytes
    value    vallen bytes

SSIndex layout (``format 4``)::

    magic      u32  = 0x34564B50  ("PKV4")
    count      u64
    entries    count * 17 bytes: offset u64, keylen u32, vallen u32, flags u8
    footer:
        data_len    u64    committed SSData file length
        block_size  u32    CRC block granularity over SSData
        nblocks     u32
        block_crcs  nblocks * u32   CRC-32 of each SSData block
        bloom_crc   u32    CRC-32 of the whole bloom *file*
        bloom_len   u32    committed bloom file length
        min_key     u32 length + bytes   smallest key (empty table: b"")
        max_key     u32 length + bytes   largest key
        nkeys       u32
        block_keys  nkeys * (u32 length + bytes)   for every block in
                    which a record starts, that record's key; ascending
    index_crc  u32   CRC-32 over every preceding byte of this file

Every checksum is CRC-32/ISO-HDLC (:mod:`repro.util.checksum`).  The
bloom file is the serialized :class:`repro.util.bloom.BloomFilter`
behind a self-checking header (``magic u32 = "PKB4"``, ``body_crc
u32``) so the bloom can be verified before the index is ever read (gets
consult the bloom first).  Keys still live only in SSData, which is read
a verified block at a time; the footer holds one key per block, so the
paper's "SSTable binary search" bisects those in memory and touches the
one block whose records can hold the key.  A block key's entry ordinal
and block number are not stored: :func:`parse_index` derives them from
the entries' ``offset // block_size`` runs and rejects a list that
disagrees with them.

Formats 1 (footer-less index, raw bloom), 2 (Castagnoli CRC32C) and 3
(no block keys, FNV bloom hashes) are no longer written or read: a file
carrying one of their magics is rejected by version, one with no
recognised magic as garbage.  All parse errors raise
:class:`repro.errors.CorruptionError` (a ``ValueError`` subclass).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, compress, count, repeat, starmap
from operator import floordiv, ne
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import CorruptionError
from repro.util.bloom import BloomFilter
from repro.util.checksum import crc32c

DATA_SUFFIX = ".ssd"
INDEX_SUFFIX = ".ssi"
BLOOM_SUFFIX = ".bf"
QUARANTINE_SUFFIX = ".quar"

FORMAT_VERSION = 4
MAGIC = 0x34564B50  # "PKV4"
BLOOM_MAGIC = 0x34424B50  # "PKB4"
#: retired magics, recognised only to be rejected by version
MAGIC_V1 = 0x50414B56  # "PAKV"
MAGIC_V2 = 0x32564B50  # "PKV2"
MAGIC_V3 = 0x33564B50  # "PKV3"
BLOOM_MAGIC_V2 = 0x42564B50  # "PKVB"
BLOOM_MAGIC_V3 = 0x33424B50  # "PKB3"
_INDEX_VERSIONS = {MAGIC_V1: 1, MAGIC_V2: 2, MAGIC_V3: 3, MAGIC: FORMAT_VERSION}
_BLOOM_VERSIONS = {BLOOM_MAGIC_V2: 2, BLOOM_MAGIC_V3: 3}
DATA_BLOCK_SIZE = 64 * 1024

_HDR = struct.Struct("<IQ")
_ENTRY = struct.Struct("<QIIB")
_REC_HDR = struct.Struct("<IIB")
_FOOTER_FIXED = struct.Struct("<QII")  # data_len, block_size, nblocks
_FOOTER_TAIL = struct.Struct("<II")  # bloom_crc, bloom_len
_U32 = struct.Struct("<I")
_BLOOM_HDR = struct.Struct("<II")  # magic, body_crc

RECORD_HEADER_LEN = _REC_HDR.size  # 9
INDEX_ENTRY_LEN = _ENTRY.size  # 17
TOMBSTONE_FLAG = 0x01


class Record(NamedTuple):
    """One key-value pair (tombstones carry an empty value).

    A tuple, so a decoded run feeds
    :func:`repro.sstable.compaction.merge_newest` as it is.
    """

    key: bytes
    value: bytes
    tombstone: bool = False


#: one item of a sorted run, indexed ``(key, value, tombstone)`` — a
#: plain triple or a :class:`Record`
Triple = Tuple[bytes, bytes, bool]


def slices(items: List[Triple], lo: int, hi: int) -> Iterator[List[Triple]]:
    """``items[lo:hi]`` as runs of 8 records doubling up to 128: a scan
    that stops after n records has copied O(n) of them."""
    n = 8
    while lo < hi:
        yield items[lo:min(lo + n, hi)]
        lo += n
        n = min(2 * n, 128)


class IndexEntry(NamedTuple):
    """Location of one record inside SSData."""

    offset: int
    keylen: int
    vallen: int
    tombstone: bool

    @property
    def key_offset(self) -> int:
        return self.offset + RECORD_HEADER_LEN

    @property
    def record_len(self) -> int:
        return RECORD_HEADER_LEN + self.keylen + self.vallen


@dataclass(frozen=True)
class TableFooter:
    """Integrity metadata carried at the end of the SSIndex file.

    ``min_key``/``max_key`` are the table's smallest and largest keys
    (empty for an empty table) — CRC-protected fences that bound a
    quarantined table's poisoned range.
    ``block_keys[j]`` is the key of entry ``block_first[j]``, the first
    record starting in its SSData block; only the keys are stored.
    """

    data_len: int
    block_size: int
    block_crcs: Tuple[int, ...]
    bloom_crc: int
    bloom_len: int
    min_key: bytes = b""
    max_key: bytes = b""
    block_keys: Tuple[bytes, ...] = ()
    block_first: Tuple[int, ...] = ()


def decode_record_at(buf: bytes, offset: int) -> Tuple[Record, int]:
    """Decode one record at ``offset``; returns (record, next_offset)."""
    try:
        keylen, vallen, flags = _REC_HDR.unpack_from(buf, offset)
    except struct.error as exc:
        raise CorruptionError(f"SSData record header truncated at {offset}") from exc
    ko = offset + RECORD_HEADER_LEN
    end = ko + keylen + vallen
    if end > len(buf):
        raise CorruptionError(
            f"SSData record at {offset} overruns the file "
            f"(needs {end} bytes, have {len(buf)})"
        )
    key = bytes(buf[ko:ko + keylen])
    value = bytes(buf[ko + keylen:end])
    return Record(key, value, bool(flags & TOMBSTONE_FLAG)), end


def decode_records(buf: bytes) -> Iterator[Record]:
    """Decode a whole SSData buffer in file order (sorted by key)."""
    offset = 0
    end = len(buf)
    while offset < end:
        rec, offset = decode_record_at(buf, offset)
        yield rec


def _keys_blob(keys: Tuple[bytes, ...]) -> bytes:
    """``keys`` each behind its ``u32`` length."""
    return b"".join(chain.from_iterable(zip(map(_U32.pack, map(len, keys)),
                                            keys)))


def encode_index(entries: Iterable[Tuple[int, int, int, bool]],
                 footer: TableFooter) -> bytes:
    """Serialize an SSIndex file (entries + footer + trailing CRC);
    ``entries`` are ``(offset, keylen, vallen, tombstone)`` rows."""
    body = b"".join(starmap(_ENTRY.pack, entries))
    crcs = footer.block_crcs
    out = b"".join((
        _HDR.pack(MAGIC, len(body) // INDEX_ENTRY_LEN), body,
        _FOOTER_FIXED.pack(footer.data_len, footer.block_size, len(crcs)),
        struct.pack(f"<{len(crcs)}I", *crcs),
        _FOOTER_TAIL.pack(footer.bloom_crc, footer.bloom_len),
        _keys_blob((footer.min_key, footer.max_key)),
        _U32.pack(len(footer.block_keys)), _keys_blob(footer.block_keys),
    ))
    return out + _U32.pack(crc32c(out))


def _decode_entries(buf: bytes, count: int, pos: int) -> Tuple[List[IndexEntry], int]:
    end = pos + count * INDEX_ENTRY_LEN
    if len(buf) < end:
        raise CorruptionError("SSIndex shorter than its count claims")
    return [
        IndexEntry(offset, keylen, vallen, bool(flags & TOMBSTONE_FLAG))
        for offset, keylen, vallen, flags
        in _ENTRY.iter_unpack(memoryview(buf)[pos:end])
    ], end


def block_starts(offsets: Iterable[int], block_size: int) -> Tuple[int, ...]:
    """Ordinals of the record ``offsets`` that are the first inside their
    ``block_size`` block: the records whose keys the footer carries."""
    blocks = list(map(floordiv, offsets, repeat(block_size)))
    return tuple(compress(count(), map(ne, blocks, [-1, *blocks])))


def _read_key(buf: bytes, pos: int) -> Tuple[bytes, int]:
    (klen,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    if pos + klen > len(buf) - _U32.size:
        raise CorruptionError("SSIndex key fence overruns footer")
    return bytes(buf[pos:pos + klen]), pos + klen


def index_format_version(buf: bytes) -> Optional[int]:
    """The format version an SSIndex file's magic announces (``None``
    for a missing or unrecognised magic: damage, not another version)."""
    if len(buf) < _HDR.size:
        return None
    return _INDEX_VERSIONS.get(_HDR.unpack_from(buf, 0)[0])


def parse_index(buf: bytes) -> Tuple[List[IndexEntry], TableFooter]:
    """Parse an SSIndex file; returns ``(entries, footer)``.

    The file is verified against its trailing CRC before any field is
    trusted.  Raises :class:`CorruptionError` on any mismatch, and on
    the magic of a retired format (unsupported version).
    """
    if len(buf) < _HDR.size:
        raise CorruptionError("SSIndex truncated")
    magic, count = _HDR.unpack_from(buf, 0)
    version = _INDEX_VERSIONS.get(magic)
    if version is None:
        raise CorruptionError(f"bad SSIndex magic {magic:#x}")
    if version != FORMAT_VERSION:
        raise CorruptionError(
            f"SSIndex is format version {version}, which is no longer "
            f"supported; only version {FORMAT_VERSION} tables are readable "
            "(reload the data to migrate)"
        )
    (stored_crc,) = _U32.unpack_from(buf, len(buf) - _U32.size)
    if crc32c(memoryview(buf)[:-_U32.size]) != stored_crc:
        raise CorruptionError("SSIndex checksum mismatch")
    entries, pos = _decode_entries(buf, count, _HDR.size)
    try:
        data_len, block_size, nblocks = _FOOTER_FIXED.unpack_from(buf, pos)
        pos += _FOOTER_FIXED.size
        block_crcs = struct.unpack_from(f"<{nblocks}I", buf, pos)
        pos += nblocks * _U32.size
        bloom_crc, bloom_len = _FOOTER_TAIL.unpack_from(buf, pos)
        pos += _FOOTER_TAIL.size
        min_key, pos = _read_key(buf, pos)
        max_key, pos = _read_key(buf, pos)
        (nkeys,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        block_keys = []
        for _ in range(nkeys):
            key, pos = _read_key(buf, pos)
            block_keys.append(key)
    except struct.error as exc:
        raise CorruptionError("SSIndex footer truncated") from exc
    if not block_size:
        raise CorruptionError("SSIndex block size is zero")
    first = block_starts([e.offset for e in entries], block_size)
    if len(block_keys) != len(first):
        raise CorruptionError(f"SSIndex has {len(block_keys)} block keys "
                              f"for {len(first)} blocks with a record start")
    if (any(a >= b for a, b in zip(block_keys, block_keys[1:]))
            or (block_keys and block_keys[0] != min_key)
            or any(len(k) != entries[i].keylen
                   for k, i in zip(block_keys, first))):
        raise CorruptionError("SSIndex block keys are not the ascending "
                              "first keys of their blocks")
    footer = TableFooter(data_len, block_size, block_crcs, bloom_crc,
                         bloom_len, min_key, max_key, tuple(block_keys), first)
    return entries, footer


def data_block_crcs(data: bytes, block_size: int = DATA_BLOCK_SIZE) -> Tuple[int, ...]:
    """Checksum of each ``block_size`` chunk of an SSData buffer."""
    view = memoryview(data)
    return tuple(
        crc32c(view[off:off + block_size])
        for off in range(0, len(data), block_size)
    ) or (crc32c(b""),)


def make_footer(data: bytes, bloom_blob: bytes,
                block_size: int = DATA_BLOCK_SIZE,
                min_key: bytes = b"", max_key: bytes = b"",
                block_keys: Tuple[bytes, ...] = (),
                block_first: Tuple[int, ...] = ()) -> TableFooter:
    """Build the footer for an SSData buffer and bloom file blob."""
    return TableFooter(
        data_len=len(data),
        block_size=block_size,
        block_crcs=data_block_crcs(data, block_size),
        bloom_crc=crc32c(bloom_blob),
        bloom_len=len(bloom_blob),
        min_key=min_key,
        max_key=max_key,
        block_keys=block_keys,
        block_first=block_first,
    )


def encode_bloom_file(bloom: BloomFilter) -> bytes:
    """Serialize a bloom filter as a self-checking file blob."""
    body = bloom.to_bytes()
    return _BLOOM_HDR.pack(BLOOM_MAGIC, crc32c(body)) + body


def decode_bloom_file(blob: bytes) -> BloomFilter:
    """Parse a bloom file; raises CorruptionError.

    A blob carrying the format-2 or format-3 header, or no
    self-checking header at all (the raw format-1 layout, or garbage),
    is rejected as an unsupported version.
    """
    if len(blob) < _BLOOM_HDR.size:
        raise CorruptionError("bloom file truncated")
    magic, body_crc = _BLOOM_HDR.unpack_from(blob, 0)
    if magic in _BLOOM_VERSIONS:
        raise CorruptionError(
            f"bloom file is format version {_BLOOM_VERSIONS[magic]}, which "
            "is no longer supported"
        )
    if magic != BLOOM_MAGIC:
        raise CorruptionError(
            f"bloom file has no version-{FORMAT_VERSION} header (magic "
            f"{magic:#x}); format version 1 is no longer supported"
        )
    body = blob[_BLOOM_HDR.size:]
    if crc32c(body) != body_crc:
        raise CorruptionError("bloom filter checksum mismatch")
    try:
        return BloomFilter.from_bytes(body)
    except ValueError as exc:
        raise CorruptionError(f"bloom filter malformed: {exc}") from exc


def sstable_filenames(ssid: int) -> Tuple[str, str, str]:
    """(SSData, SSIndex, bloom) filenames for one SSID."""
    base = f"{ssid:010d}"
    return base + DATA_SUFFIX, base + INDEX_SUFFIX, base + BLOOM_SUFFIX


def sstable_paths(directory: str, ssid: int) -> Tuple[str, str, str]:
    """Store-relative (SSData, SSIndex, bloom) paths of one table."""
    d, i, b = sstable_filenames(ssid)
    return f"{directory}/{d}", f"{directory}/{i}", f"{directory}/{b}"
