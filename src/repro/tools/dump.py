"""Repository inspection: decode what PapyrusKV left on "NVM".

The on-disk layout is real files, so a repository can be audited
offline (the analogue of LevelDB's ``ldb`` tool)::

    <root>/db_<name>/meta.json
    <root>/db_<name>/rank<r>/<ssid>.ssd|.ssi|.bf

:func:`inspect_repository` summarizes every database;
:func:`dump_sstable` decodes one table's records.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sstable.format import (
    BLOOM_SUFFIX,
    DATA_SUFFIX,
    FORMAT_VERSION,
    INDEX_SUFFIX,
    QUARANTINE_SUFFIX,
    Record,
    block_starts,
    data_block_crcs,
    decode_bloom_file,
    decode_records,
    index_format_version,
    parse_index,
)
from repro.util.checksum import crc32c

_DB_RE = re.compile(r"^db_(.+)$")
_RANK_RE = re.compile(r"^rank(\d+)$")
_SSID_RE = re.compile(r"^(\d{10})" + re.escape(DATA_SUFFIX) + "$")


@dataclass
class SSTableSummary:
    """Counts and sizes of one SSTable."""

    ssid: int
    records: int
    tombstones: int
    data_bytes: int
    index_bytes: int
    bloom_bytes: int
    min_key: Optional[bytes] = None
    max_key: Optional[bytes] = None
    #: the footer's sparse block index: ``(block, first entry, its key)``
    block_keys: List[Tuple[int, int, bytes]] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes + self.bloom_bytes


@dataclass
class DatabaseSummary:
    """Per-database inventory of a repository."""

    name: str
    nranks: Optional[int]
    ranks: Dict[int, List[SSTableSummary]] = field(default_factory=dict)

    @property
    def total_records(self) -> int:
        return sum(t.records for ts in self.ranks.values() for t in ts)

    @property
    def total_bytes(self) -> int:
        return sum(t.total_bytes for ts in self.ranks.values() for t in ts)

    @property
    def total_sstables(self) -> int:
        return sum(len(ts) for ts in self.ranks.values())


def _summarize_table(rank_dir: str, ssid: int) -> SSTableSummary:
    base = os.path.join(rank_dir, f"{ssid:010d}")
    data_path = base + DATA_SUFFIX
    index_path = base + INDEX_SUFFIX
    bloom_path = base + BLOOM_SUFFIX
    with open(data_path, "rb") as f:
        blob = f.read()
    records = tombstones = 0
    min_key = max_key = None
    for rec in decode_records(blob):
        records += 1
        tombstones += rec.tombstone
        if min_key is None:
            min_key = rec.key
        max_key = rec.key
    block_keys = []
    try:
        with open(index_path, "rb") as f:
            entries, footer = parse_index(f.read())
        block_keys = [(entries[i].offset // footer.block_size, i, key) for
                      key, i in zip(footer.block_keys, footer.block_first)]
    except (OSError, ValueError):
        pass  # no readable index to list: fsck says why
    return SSTableSummary(
        ssid=ssid,
        records=records,
        tombstones=tombstones,
        data_bytes=len(blob),
        index_bytes=os.path.getsize(index_path)
        if os.path.exists(index_path) else 0,
        bloom_bytes=os.path.getsize(bloom_path)
        if os.path.exists(bloom_path) else 0,
        min_key=min_key,
        max_key=max_key,
        block_keys=block_keys,
    )


def inspect_repository(root: str) -> List[DatabaseSummary]:
    """Summarize every database under a repository root directory."""
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no repository at {root}")
    out: List[DatabaseSummary] = []
    for entry in sorted(os.listdir(root)):
        m = _DB_RE.match(entry)
        if not m:
            continue
        db_dir = os.path.join(root, entry)
        nranks = None
        meta_path = os.path.join(db_dir, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                nranks = json.load(f).get("nranks")
        summary = DatabaseSummary(name=m.group(1), nranks=nranks)
        for sub in sorted(os.listdir(db_dir)):
            rm = _RANK_RE.match(sub)
            if not rm:
                continue
            rank = int(rm.group(1))
            rank_dir = os.path.join(db_dir, sub)
            tables = []
            for fname in sorted(os.listdir(rank_dir)):
                sm = _SSID_RE.match(fname)
                if sm:
                    tables.append(_summarize_table(rank_dir, int(sm.group(1))))
            summary.ranks[rank] = tables
        out.append(summary)
    return out


def dump_sstable(rank_dir: str, ssid: int,
                 limit: Optional[int] = None) -> Iterator[Record]:
    """Yield the records of one SSTable (optionally the first ``limit``)."""
    with open(os.path.join(rank_dir, f"{ssid:010d}{DATA_SUFFIX}"), "rb") as f:
        blob = f.read()
    for i, rec in enumerate(decode_records(blob)):
        if limit is not None and i >= limit:
            return
        yield rec


def verify_sstable(rank_dir: str, ssid: int) -> List[str]:
    """Cross-check one SSTable's three files; returns found problems.

    Structural checks (sorted keys, index/record agreement, each block
    key against the decoded record it names, bloom membership) plus the
    footer's checksums (data length, per-block CRC-32, bloom checksum).
    A table whose SSIndex carries the magic of a retired format is
    reported as that unsupported version, not as damage.
    """
    problems: List[str] = []
    base = os.path.join(rank_dir, f"{ssid:010d}")
    try:
        with open(base + DATA_SUFFIX, "rb") as f:
            data = f.read()
        records = list(decode_records(data))
    except (OSError, ValueError) as exc:
        return [f"SSData unreadable: {exc}"]
    keys = [r.key for r in records]
    if keys != sorted(set(keys)):
        problems.append("SSData keys not strictly sorted")
    bloom_blob = None
    try:
        with open(base + BLOOM_SUFFIX, "rb") as f:
            bloom_blob = f.read()
    except OSError as exc:
        problems.append(f"bloom filter unreadable: {exc}")
    footer = None
    try:
        with open(base + INDEX_SUFFIX, "rb") as f:
            index_blob = f.read()
        version = index_format_version(index_blob)
        if version not in (None, FORMAT_VERSION):
            return problems + [
                f"unsupported format version {version} (this build reads "
                f"version {FORMAT_VERSION}; reload the data to migrate)"
            ]
        entries, footer = parse_index(index_blob)
        if len(entries) != len(records):
            problems.append(
                f"SSIndex count {len(entries)} != record count {len(records)}"
            )
        for entry, rec in zip(entries, records):
            got = data[entry.key_offset:entry.key_offset + entry.keylen]
            if got != rec.key:
                problems.append(f"SSIndex offset mismatch at key {rec.key!r}")
                break
        starts = [0, *accumulate(r.encoded_len() for r in records)][:-1]
        if footer.block_first != block_starts(starts, footer.block_size):
            problems.append("block keys do not sit at the first record "
                            "starting in each SSData block")
        for key, i in zip(footer.block_keys, footer.block_first):
            if i >= len(records) or records[i].key != key:
                problems.append(f"block key {key!r} is not record {i}'s key")
    except (OSError, ValueError) as exc:
        problems.append(f"SSIndex unreadable: {exc}")
    if footer is not None:  # index readable: checksum everything
        if len(data) != footer.data_len:
            problems.append(
                f"SSData length {len(data)} != footer {footer.data_len} "
                f"(torn write)"
            )
        elif tuple(data_block_crcs(data, footer.block_size)) != \
                tuple(footer.block_crcs):
            problems.append("SSData block checksum mismatch (corruption)")
        if bloom_blob is not None:
            if len(bloom_blob) != footer.bloom_len:
                problems.append(
                    f"bloom length {len(bloom_blob)} != footer "
                    f"{footer.bloom_len} (torn write)"
                )
            elif crc32c(bloom_blob) != footer.bloom_crc:
                problems.append("bloom file checksum mismatch (corruption)")
    if bloom_blob is not None:
        try:
            bloom = decode_bloom_file(bloom_blob)
            missing = [k for k in keys if k not in bloom]
            if missing:
                problems.append(
                    f"bloom filter false negatives: {len(missing)} keys"
                )
        except ValueError as exc:
            problems.append(f"bloom filter unreadable: {exc}")
    return problems


def fsck_repository(root: str) -> Dict[str, List[str]]:
    """Verify every SSTable of every database under a repository root.

    Returns ``{"<db>/rank<r>/<ssid>": [problems...]}`` for each damaged
    table; quarantined files are reported under their table's key.  An
    empty dict means the repository is clean.
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no repository at {root}")
    report: Dict[str, List[str]] = {}
    for entry in sorted(os.listdir(root)):
        m = _DB_RE.match(entry)
        if not m:
            continue
        db_dir = os.path.join(root, entry)
        for sub in sorted(os.listdir(db_dir)):
            rm = _RANK_RE.match(sub)
            if not rm:
                continue
            rank_dir = os.path.join(db_dir, sub)
            for fname in sorted(os.listdir(rank_dir)):
                key = f"{m.group(1)}/{sub}/{fname}"
                if fname.endswith(QUARANTINE_SUFFIX):
                    report.setdefault(key, []).append(
                        "quarantined (moved out of the search order)"
                    )
                    continue
                sm = _SSID_RE.match(fname)
                if not sm:
                    continue
                ssid = int(sm.group(1))
                problems = verify_sstable(rank_dir, ssid)
                if problems:
                    report[f"{m.group(1)}/{sub}/{ssid}"] = problems
    return report
