"""SSTable writer: flush sorted records to the three files.

Tables are written in format 4, the only format: the SSIndex carries a
footer with CRC-32 checksums over the SSData blocks and the bloom file
and the first key of every block a record starts in, and the bloom file
carries its own self-checking header (see :mod:`repro.sstable.format`).
All three files go through the store's tmp-file + fsync + atomic-rename
path, in the order SSData -> SSIndex -> bloom, so a crash leaves either
no table, a complete data file whose sidecars can be rebuilt, or a
complete table — never a torn one.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, ge
from typing import Dict, Iterable, Tuple

from repro.nvm.posixfs import PosixStore
from repro.sstable.format import (
    _REC_HDR,
    DATA_BLOCK_SIZE,
    RECORD_HEADER_LEN,
    Record,
    block_starts,
    encode_bloom_file,
    encode_index,
    make_footer,
    sstable_paths,
)
from repro.util.bloom import BloomFilter


def encode_table(
    records: Iterable[Record],
    fp_rate: float = 0.01,
    block_size: int = DATA_BLOCK_SIZE,
) -> Dict[str, bytes]:
    """Encode sorted ``records`` into the three file blobs.

    Returns ``{"data": ..., "index": ..., "bloom": ...}``, all ``bytes``;
    ``block_size`` cuts the SSData blocks the footer's CRCs and block
    keys are for (the reader takes it from the footer).  Built a column
    at a time: one join each for SSData and the index entries, one bloom
    :meth:`~repro.util.bloom.BloomFilter.update`.  Separate from the
    device commit (:func:`write_sstable_blobs`) so the flush pipeline can
    build on its CPU stage, and recovery paths (sidecar rebuild from an
    intact SSData file) can re-derive blobs without rewriting the data.
    """
    keys, values, tombs = tuple(zip(*records)) or ((), (), ())
    if any(map(ge, keys, keys[1:])):
        raise ValueError("records must be strictly sorted by key")
    klens, vlens = list(map(len, keys)), list(map(len, values))
    data = b"".join(chain.from_iterable(
        zip(map(_REC_HDR.pack, klens, vlens, tombs), keys, values)))
    offsets = list(accumulate(map(add, map(add, klens, vlens),
                                  repeat(RECORD_HEADER_LEN)), initial=0))
    offsets.pop()  # the end of the last record: len(data)
    bloom = BloomFilter.for_capacity(len(keys), fp_rate)
    bloom.update(keys)
    bloom_blob = encode_bloom_file(bloom)
    first = block_starts(offsets, block_size)
    footer = make_footer(
        data, bloom_blob, block_size,
        min_key=keys[0] if keys else b"",
        max_key=keys[-1] if keys else b"",
        block_keys=tuple(map(keys.__getitem__, first)), block_first=first,
    )
    index_blob = encode_index(zip(offsets, klens, vlens, tombs), footer)
    return {"data": data, "index": index_blob, "bloom": bloom_blob}


def write_sstable_blobs(
    store: PosixStore,
    directory: str,
    ssid: int,
    blobs: Dict[str, bytes],
    t: float,
) -> Tuple[int, float]:
    """Land pre-encoded table blobs as one batched durable commit.

    The pipelined flush builds the blobs on the CPU stage
    (:func:`encode_table`) and hands them here on the sync stage, and a
    compaction round lands its one output table here: the three files
    keep the SSData -> SSIndex -> bloom order and their per-file
    atomicity/crash sites, but the device pays one access latency plus
    the aggregate bytes (``PosixStore.write_ordered``).  Returns
    ``(bytes_written, virtual_completion_time)``.
    """
    files = zip(sstable_paths(directory, ssid),
                (blobs["data"], blobs["index"], blobs["bloom"]))
    end = store.write_ordered(list(files), t)
    return sum(len(b) for b in blobs.values()), end
