"""SSTable reader: bloom-gated lookups with binary or sequential search.

A get "opens the bloom filter file first to determine whether the
SSTable can be skipped"; on a possible hit it "loads the SSIndex in
memory and searches SSData with the given key" (paper §2.6).  With
binary search enabled the footer's block keys are bisected in memory and
the search runs inside the one block they pick: one device access per
lookup.  With it disabled the reader scans SSData from the front, one
small read per record (the ``Default`` configuration in Figure 8).

SSData reaches a lookup one way: :meth:`SSTableReader._block` — one
verified 64KB block, through the device's block cache when there is one —
and :meth:`SSTableReader._span` slicing over the block the caller
holds.  The binary search (:meth:`SSTableReader._seek`: a point get, a
scan's ``find_ge``) fetches the one block its key can be in;
:meth:`SSTableReader.scan_from` fetches each block once and slices every
record out of it; the sequential get keeps its small reads and only
*verifies* through ``_block``.

Verification is lazy: the bloom and index files check their own CRCs
when first loaded, and SSData blocks are checked the first time a probe
touches them, against the footer committed in the SSIndex.  A mismatch
raises :class:`repro.errors.CorruptionError` (or
:class:`repro.errors.TornWriteError` when the file is short) — the
reader never returns bytes that failed their checksum.

A file-built reader is shared by every rank on the device
(:meth:`repro.sstable.block_cache.BlockCache.reader`), so its device
reads are serialised by a lock (``sstable.reader``): a sidecar or block
two ranks miss at once is read once, like a page already faulting in.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_right
from itertools import islice
from typing import (
    TYPE_CHECKING, Callable, Iterator, List, Optional, Set, Tuple,
)

from repro.analysis.runtime import make_lock
from repro.errors import CorruptionError, StorageError, TornWriteError
from repro.nvm.posixfs import PosixStore
from repro.sstable.format import (
    DATA_SUFFIX,
    RECORD_HEADER_LEN,
    IndexEntry,
    Record,
    TableFooter,
    _REC_HDR,
    decode_bloom_file,
    decode_records,
    parse_index,
    sstable_paths,
)
from repro.util.bloom import BloomFilter
from repro.util.checksum import crc32c

if TYPE_CHECKING:  # block_cache imports this module for its registry
    from repro.sstable.block_cache import BlockCache, CacheCounters

_SSID_RE = re.compile(r"^(\d{10})" + re.escape(DATA_SUFFIX) + "$")

#: speculative key bytes fetched with each record header (sequential get)
_SPEC_KEY = 64


def list_ssids(store: PosixStore, directory: str) -> List[int]:
    """All SSIDs present under ``directory``, ascending."""
    ssids = []
    for name in store.listdir(directory):
        m = _SSID_RE.match(name)
        if m:
            ssids.append(int(m.group(1)))
    return sorted(ssids)


class SSTableReader:
    """Handle to one immutable SSTable.

    The parsed bloom filter and index are cached after first use (the
    node's page cache, when the reader is the device's shared one); the
    device is still charged for the initial loads and every SSData probe.

    With the device's :class:`~repro.sstable.block_cache.BlockCache`
    attached, SSData probes read through 64KB block spans: a cached
    block costs no device time and needs no re-verification (its CRC
    was checked at fill), a miss reads and verifies the block once and
    caches it for every other reader on the device.  Cache priority
    and accounting belong to the *call*, not the reader: a point get
    promotes on a hit and fills at the hot end, a stream (scan cursor,
    sequential get, ``read_all``) leaves recency alone and fills at the
    cold end, so streaming reads cannot evict the point-get working
    set; ``sink`` names the calling database's counters.
    """

    def __init__(self, store: PosixStore, directory: str, ssid: int,
                 block_cache: Optional[BlockCache] = None) -> None:
        self.store = store
        self.directory = directory
        self.ssid = ssid
        self._data_path, self._index_path, self._bloom_path = (
            sstable_paths(directory, ssid))
        self._bloom: Optional[BloomFilter] = None
        self._index: Optional[List[IndexEntry]] = None
        self._footer: Optional[TableFooter] = None
        #: blocks a sequential get has already seen pass their CRC: its
        #: small reads bypass the cache, so each block is checked once
        self._verified_blocks: Set[int] = set()
        self._size_checked = False
        self._cache = block_cache
        #: one device read of this table at a time; held across the
        #: read, only the block cache's leaf lock is taken under it
        self._io_lock = make_lock("sstable.reader")

    @classmethod
    def from_bundle(cls, store: PosixStore, directory: str, ssid: int,
                    index_blob: bytes, bloom_blob: bytes,
                    block_cache: Optional[BlockCache] = None,
                    ) -> "SSTableReader":
        """Build a reader from a replicated metadata bundle.

        The bloom filter, index entries, and footer are parsed from
        the shipped blobs instead of the sidecar files, so the metadata
        side of the gate order (fences → bloom → index) costs no device
        time on the owner's NVM — only data-block probes touch
        ``directory``.  Raises :class:`CorruptionError` if either blob
        fails its checksum.
        """
        reader = cls(store, directory, ssid, block_cache=block_cache)
        try:
            reader._bloom = decode_bloom_file(bloom_blob)
            reader._index, reader._footer = parse_index(index_blob)
        except CorruptionError as exc:
            raise reader._corrupt(f"metadata bundle: {exc}") from exc
        return reader

    def _corrupt(self, detail: str) -> CorruptionError:
        return CorruptionError(f"sstable {self.ssid} ({self.directory}): {detail}")

    def _check_len(self, what: str, size: int, committed: int) -> None:
        if size != committed:
            raise TornWriteError(
                f"sstable {self.ssid} ({self.directory}): {what} is "
                f"{size} bytes, footer committed {committed}"
            )

    # ----------------------------------------------------------------- loads
    def load_bloom(self, t: float) -> Tuple[BloomFilter, float]:
        """Load (once), verify, and return the bloom filter."""
        if self._bloom is None:
            with self._io_lock:
                if self._bloom is None:  # else: loaded while I waited
                    blob, t = self.store.read(self._bloom_path, t)
                    try:
                        self._bloom = decode_bloom_file(blob)
                    except CorruptionError as exc:
                        raise self._corrupt(str(exc)) from exc
        return self._bloom, t

    def load_index(self, t: float) -> Tuple[List[IndexEntry], float]:
        """Load (once), verify, and return the SSIndex entries."""
        if self._index is None:
            with self._io_lock:
                if self._index is None:  # else: loaded while I waited
                    blob, t = self.store.read(self._index_path, t)
                    try:
                        # the footer first: lock-free callers test the index
                        index, self._footer = parse_index(blob)
                    except CorruptionError as exc:
                        raise self._corrupt(str(exc)) from exc
                    self._index = index
        return self._index, t

    def footer(self, t: float) -> Tuple[TableFooter, float]:
        """The index footer, loading the index if needed."""
        _, t = self.load_index(t)
        assert self._footer is not None
        return self._footer, t

    def may_contain(self, key: bytes, t: float) -> Tuple[bool, float]:
        """Bloom membership test; False means definitely absent."""
        bloom, t = self.load_bloom(t)
        return key in bloom, t

    def key_range(self, t: float) -> Tuple[Tuple[bytes, bytes], float]:
        """The CRC-protected ``[min_key, max_key]`` fences.

        An *empty* table has fences ``(b"", b"")`` — since valid keys
        are non-empty, every lookup prunes it.  Cheap after the first
        index load.
        """
        footer, t = self.footer(t)
        return (footer.min_key, footer.max_key), t

    # -------------------------------------------------------- data integrity
    def _check_data_size(self, footer: TableFooter) -> None:
        """First-touch check that SSData matches its committed length."""
        if not self._size_checked:
            size = self.store.size(self._data_path)
            self._check_len("SSData", size, footer.data_len)
            self._size_checked = True

    def _entry(self, i: int) -> IndexEntry:
        """Index entry ``i``, checked to end inside the committed SSData."""
        entry = self._index[i]
        if entry.offset + entry.record_len > self._footer.data_len:
            raise self._corrupt(f"index entry {i} overruns SSData")
        return entry

    # ------------------------------------------------------------ cached I/O
    def _block(self, blk: int, t: float, hot: bool,
               sink: Optional[CacheCounters]) -> Tuple[bytes, float]:
        """One whole verified SSData block — the only SSData fetch a
        lookup makes.

        A cached block costs no device time (it was verified at fill);
        a miss is one device read and the CRC check *before* the fill,
        so the cache only ever holds verified bytes.  ``hot`` is the
        call's cache priority: a point probe promotes on a hit and
        fills at the hot end; a stream leaves recency alone and fills
        at the cold end — which a full cache drops again at once, so
        the *caller* holds the bytes.  Lookup and fill are one step
        under the reader's lock: a second rank missing finds it cached.
        """
        footer, cache = self._footer, self._cache
        assert footer is not None
        self._check_data_size(footer)
        if blk >= len(footer.block_crcs):
            raise self._corrupt(f"index entry points past block {blk}")
        with self._io_lock:
            if cache is not None:
                data = cache.get(self.directory, self.ssid, blk, hot, sink)
                if data is not None:
                    return data, t
            bs = footer.block_size
            data, t = self.store.read(self._data_path, t, blk * bs, bs)
            if crc32c(data) != footer.block_crcs[blk]:
                raise self._corrupt(f"SSData block {blk} checksum mismatch")
            if cache is not None:
                cache.put(self.directory, self.ssid, blk, data, not hot, sink)
        return data, t

    def _span(self, offset: int, length: int, blk: int, data: bytes,
              t: float, hot: bool, sink: Optional[CacheCounters],
              ) -> Tuple[bytes, int, bytes, int, float]:
        """``[offset, offset+length)`` of SSData, given the held block
        ``data`` = block ``blk`` (``-1``: none).  A block is fetched only
        where the span leaves the held one, and a span running past a
        block's end is joined from those that follow.  Returns ``(bytes,
        blk, data, fetched, t)``; the last block touched is now held.
        """
        assert self._footer is not None
        bs = self._footer.block_size
        fetched, pieces, end = 0, [], offset + length
        while offset < end:
            if offset // bs != blk:
                blk = offset // bs
                data, t = self._block(blk, t, hot, sink)
                fetched += 1
            pieces.append(data[offset - blk * bs:end - blk * bs])
            offset = (blk + 1) * bs
        return b"".join(pieces), blk, data, fetched, t

    def _seek(self, key: bytes, t: float, hot: bool,
              sink: Optional[CacheCounters],
              ) -> Tuple[int, bool, int, bytes, float]:
        """The one binary search: index position of the first entry with
        ``entry.key >= key``, and whether that key *is* ``key``.

        The footer's block keys pick, in memory, the only block whose
        records can hold ``key`` (below the first: position 0, no I/O).
        It is fetched once and every probe is a slice of the held bytes;
        only the last record starting in a block can run past its end,
        and :meth:`_span` follows that one into the next.  Returns
        ``(pos, found, blk, data, t)``: ``data`` is block ``blk``, the
        one a found key ends in — where its value starts.
        """
        footer, t = self.footer(t)
        index = self._index
        j = bisect_right(footer.block_keys, key) - 1
        if j < 0:
            return 0, False, -1, b"", t
        first = footer.block_first
        lo = first[j]
        hi = first[j + 1] if j + 1 < len(first) else len(index)
        blk = index[lo].offset // footer.block_size
        data, t = self._block(blk, t, hot, sink)
        found = footer.block_keys[j] == key
        while lo + 1 < hi and not found:  # index[lo].key <= key < index[hi].key
            mid = (lo + hi) // 2
            entry = self._entry(mid)
            probe, nblk, ndata, _, t = self._span(
                entry.key_offset, entry.keylen, blk, data, t, hot, sink)
            if probe <= key:
                lo, found, blk, data = mid, probe == key, nblk, ndata
            else:
                hi = mid
        return lo if found else lo + 1, found, blk, data, t

    # ------------------------------------------------------------ scan support
    def find_ge(self, key: Optional[bytes], t: float,
                sink: Optional[CacheCounters] = None) -> Tuple[int, float]:
        """Index position of the first entry with ``entry.key >= key`` —
        the scan cursor's bracketing step, one block at stream priority.
        ``key=None`` (open start) returns 0 for free; a result of
        ``len(index)`` means no entry qualifies.
        """
        if key is None:
            return 0, self.load_index(t)[1]
        pos, _, _, _, t = self._seek(key, t, False, sink)
        return pos, t

    def scan_from(self, lo: int, now: Callable[[], float],
                  keys_only: bool = False,
                  sink: Optional[CacheCounters] = None,
                  ) -> Iterator[Tuple[bytes, bytes, bool, int, float]]:
        """Stream the records of index entries ``lo…``, a block at a time.

        A block is fetched when an entry leaves the held one, and each
        record inside it is two slices of those bytes; only a record
        running past the block's end takes :meth:`_span`'s joined path.
        ``keys_only`` yields ``b""`` values and touches no block holding
        value bytes only.  Yields ``(key, value, tombstone, fetched,
        t)``: ``fetched`` blocks were picked up for this record (0
        inside the held one), done at ``t`` for a request at ``now()``
        — the consumer's clock of that moment, not of the open.  Load
        the index first (:meth:`find_ge` does).
        """
        assert self._index is not None and self._footer is not None
        bs = self._footer.block_size
        blk, data, base, size = -1, b"", 0, 0
        t = 0.0
        for entry in islice(self._index, lo, None):
            klen = entry.keylen
            start = entry.offset + RECORD_HEADER_LEN - base
            mid = start + klen
            end = mid if keys_only else mid + entry.vallen
            if 0 <= start and end <= size:
                yield data[start:mid], data[mid:end], entry.tombstone, 0, t
                continue
            buf, blk, data, fetched, t = self._span(
                start + base, end - start, blk, data, now(), False, sink)
            base, size = blk * bs, len(data)
            yield buf[:klen], buf[klen:], entry.tombstone, fetched, t

    # ---------------------------------------------------------------- lookup
    def get(self, key: bytes, t: float,
            binary_search: bool = True, use_bloom: bool = True,
            sink: Optional[CacheCounters] = None,
            ) -> Tuple[Optional[Record], float]:
        """Look up ``key``; returns (record-or-None, completion time).

        A returned tombstone record means "definitely deleted at this
        SSID" — callers must stop searching older SSTables.
        ``use_bloom=False`` skips the membership test (ablation mode):
        every SSTable pays a full search even for absent keys.
        """
        if use_bloom:
            hit, t = self.may_contain(key, t)
            if not hit:
                return None, t
        if not binary_search:
            return self._sequential_get(key, t, sink)
        pos, found, blk, data, t = self._seek(key, t, True, sink)
        if not found:
            return None, t
        entry = self._entry(pos)
        value, _, _, _, t = self._span(
            entry.value_offset, entry.vallen, blk, data, t, True, sink)
        return Record(key, value, entry.tombstone), t

    def _sequential_get(self, key: bytes, t: float,
                        sink: Optional[CacheCounters],
                        ) -> Tuple[Optional[Record], float]:
        """Record-by-record scan of SSData front to back.

        This is the "Default" configuration of Figure 8: each record
        costs one small read (header + key) before the scan can jump to
        the next offset — O(n) device operations against binary search's
        O(log n), which is exactly the gap the optimization closes.
        The scan verifies blocks only when the footer is already cached
        (it deliberately avoids loading the index, that being the whole
        point of the ablation); structural decode errors still raise.
        """
        size = self.store.size(self._data_path)
        if self._footer is not None:
            self._check_len("SSData", size, self._footer.data_len)
        offset = 0
        while offset < size:
            # speculative read: header plus enough bytes for typical keys
            probe, t = self.store.read(
                self._data_path, t, offset, RECORD_HEADER_LEN + _SPEC_KEY
            )
            try:
                keylen, vallen, flags = _REC_HDR.unpack_from(probe, 0)
            except struct.error as exc:
                raise self._corrupt(
                    f"SSData record header truncated at {offset}"
                ) from exc
            kend = RECORD_HEADER_LEN + keylen
            if offset + kend + vallen > size:
                raise self._corrupt(f"SSData record at {offset} overruns the file")
            if self._footer is not None:
                bs = self._footer.block_size
                for blk in range(offset // bs,
                                 (offset + kend + vallen - 1) // bs + 1):
                    if blk not in self._verified_blocks:
                        _, t = self._block(blk, t, False, sink)
                        self._verified_blocks.add(blk)
            if keylen <= _SPEC_KEY:
                rkey = probe[RECORD_HEADER_LEN:kend]
            else:  # long key: one more read
                rkey, t = self.store.read(
                    self._data_path, t, offset + RECORD_HEADER_LEN, keylen
                )
            if rkey == key:
                value, t = self.store.read(
                    self._data_path, t, offset + kend, vallen
                )
                return Record(bytes(rkey), value, bool(flags & 1)), t
            if rkey > key:
                return None, t  # sorted: key cannot appear later
            offset += kend + vallen
        return None, t

    # --------------------------------------------------------------- full I/O
    def read_all(self, t: float, sink: Optional[CacheCounters] = None,
                 ) -> Tuple[List[Record], float]:
        """Sequential read of the whole table (compaction, redistribution).

        The whole buffer is verified against the footer's block CRCs
        before decoding; compaction therefore never launders corrupt
        bytes into a fresh table.
        """
        blob, t = self.store.read(self._data_path, t)
        try:
            _, t = self.load_index(t)
        except CorruptionError:
            raise  # a corrupt index must not be silently ignored
        except StorageError:
            self._footer = None  # sidecar missing: structural checks only
        footer = self._footer
        if footer is not None:
            self._check_len("SSData", len(blob), footer.data_len)
            bs = footer.block_size
            view = memoryview(blob)
            for blk, want in enumerate(footer.block_crcs):
                lo, hi = blk * bs, (blk + 1) * bs
                if crc32c(view[lo:hi]) != want:
                    raise self._corrupt(f"SSData block {blk} checksum mismatch")
                if self._cache is not None:
                    # streaming reads fill free budget only (cold end):
                    # a compaction or scan must not evict the hot set
                    self._cache.put(self.directory, self.ssid, blk,
                                    blob[lo:hi], True, sink)
            self._size_checked = True
        try:
            return list(decode_records(blob)), t
        except CorruptionError as exc:
            raise self._corrupt(str(exc)) from exc

    def verify(self, t: float) -> float:
        """Full integrity check of all three files; returns completion time.

        Raises :class:`CorruptionError` / :class:`TornWriteError` on the
        first problem found: the index CRC, the bloom file CRC against
        the footer, every SSData block CRC, and that the decoded records
        agree with the index entries and the footer's block keys.
        """
        index, t = self.load_index(t)
        footer, t = self.footer(t)
        bloom_blob, t = self.store.read(self._bloom_path, t)
        self._check_len("bloom", len(bloom_blob), footer.bloom_len)
        if crc32c(bloom_blob) != footer.bloom_crc:
            raise self._corrupt("bloom file checksum mismatch")
        try:
            self._bloom = decode_bloom_file(bloom_blob)
        except CorruptionError as exc:
            raise self._corrupt(str(exc)) from exc
        records, t = self.read_all(t)
        if len(records) != len(index):
            raise self._corrupt(
                f"SSData holds {len(records)} records, index claims {len(index)}"
            )
        offset = 0
        for rec, entry in zip(records, index):
            if entry != (offset, len(rec.key), len(rec.value), rec.tombstone):
                raise self._corrupt("index entry disagrees with SSData record")
            offset += rec.encoded_len()
        for key, i in zip(footer.block_keys, footer.block_first):
            if records[i].key != key:  # i: derived from the offsets above
                raise self._corrupt(f"block key {key!r} is not record {i}'s")
        return t

    def nbytes(self) -> int:
        """Total on-disk size of the three files."""
        total = 0
        for p in (self._data_path, self._index_path, self._bloom_path):
            try:
                total += self.store.size(p)
            except StorageError:
                pass
        return total

    def file_paths(self) -> Tuple[str, str, str]:
        """Store-relative paths of (SSData, SSIndex, bloom)."""
        return self._data_path, self._index_path, self._bloom_path

    def delete(self, t: float) -> float:
        """Remove all three files; returns the completion time."""
        for p in self.file_paths():
            t = self.store.delete(p, t)
        return t
