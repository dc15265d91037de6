"""SSTables: immutable sorted on-NVM key-value files.

An SSTable "consists of three files, SSData, SSIndex, and bloom filter"
(paper §2.4): SSData holds the key-sorted records, SSIndex their offsets
and lengths, and the bloom filter answers may-contain queries so a get
can skip the table entirely.  Each SSTable carries a per-database,
per-rank monotonically increasing SSID; higher SSIDs hold newer data.
"""

from repro.sstable.block_cache import BlockCache
from repro.sstable.format import (
    BLOOM_SUFFIX,
    DATA_SUFFIX,
    INDEX_SUFFIX,
    IndexEntry,
    Record,
    decode_records,
    encode_index,
    encode_record,
)
from repro.sstable.reader import SSTableReader, list_ssids

__all__ = [
    "BLOOM_SUFFIX",
    "BlockCache",
    "DATA_SUFFIX",
    "INDEX_SUFFIX",
    "IndexEntry",
    "Record",
    "SSTableReader",
    "decode_records",
    "encode_index",
    "encode_record",
    "list_ssids",
]
