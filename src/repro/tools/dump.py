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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CorruptionError, StorageError, TornWriteError
from repro.nvm.posixfs import PosixStore
from repro.simtime.resources import TimedResource
from repro.sstable.format import (
    BLOOM_SUFFIX,
    DATA_SUFFIX,
    FORMAT_VERSION,
    INDEX_SUFFIX,
    QUARANTINE_SUFFIX,
    Record,
    decode_records,
    index_format_version,
    parse_index,
)
from repro.sstable.reader import SSTableReader

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
    """Check one SSTable with the store's own verifier
    (:meth:`SSTableReader.verify`, through a zero-cost device); returns
    the problem it found, or an empty list.

    A table whose SSIndex carries the magic of a retired format is
    reported as that unsupported version, not as damage.
    """
    try:
        with open(os.path.join(rank_dir, f"{ssid:010d}{INDEX_SUFFIX}"),
                  "rb") as f:
            version = index_format_version(f.read())
    except OSError:
        version = None  # the verifier names the missing file
    if version not in (None, FORMAT_VERSION):
        return [
            f"unsupported format version {version} (this build reads "
            f"version {FORMAT_VERSION}; reload the data to migrate)"
        ]
    root, directory = os.path.split(os.path.abspath(rank_dir))
    store = PosixStore(root, TimedResource("fsck", 0.0, float("inf")))
    try:
        SSTableReader(store, directory, ssid).verify(0.0)
    except StorageError as exc:
        detail = str(exc).removeprefix(f"sstable {ssid} ({directory}): ")
        if isinstance(exc, TornWriteError):
            return [f"{detail} (torn write)"]
        if isinstance(exc, CorruptionError):
            return [f"{detail} (corruption)"]
        return [detail]
    return []


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
