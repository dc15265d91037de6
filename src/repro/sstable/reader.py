"""SSTable reader: bloom-gated lookups with binary or sequential search.

A get "opens the bloom filter file first to determine whether the
SSTable can be skipped"; on a possible hit it "loads the SSIndex in
memory and searches SSData with the given key" (paper §2.6).  With
binary search enabled the footer's block keys are bisected in memory and
the search runs inside the one block they pick: one device access per
lookup.  With it disabled the reader scans SSData from the front, one
small read per record (the ``Default`` configuration in Figure 8).

SSData reaches a lookup one way: :meth:`SSTableReader._block` — one
verified 64KB block decoded into a :class:`Block`, through the device's
block cache when there is one.  The binary search (``_seek``: a get, a
scan's ``find_ge``) bisects the footer's block keys, then that block's
records; a scan (:meth:`SSTableReader.runs`) takes slices of them; the
sequential get keeps its small reads and only *verifies* via ``_block``.

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
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import add, ge
from typing import (
    TYPE_CHECKING, Any, Iterator, List, NamedTuple, Optional, Set, Tuple,
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
    Triple,
    _REC_HDR,
    decode_bloom_file,
    decode_records,
    parse_index,
    slices,
    sstable_paths,
)
from repro.simtime.clock import VirtualClock
from repro.util.bloom import BloomFilter
from repro.util.checksum import crc32c

if TYPE_CHECKING:  # block_cache imports this module for its registry
    from repro.sstable.block_cache import BlockCache, CacheCounters


#: speculative key bytes fetched with each record header (sequential get)
_SPEC_KEY = 64

#: what a decoded record holds beyond its raw bytes: its tuple, its key
#: and value objects and a list slot, less the header it drops
_DECODED_OVERHEAD = (sys.getsizeof((b"", b"", False))
                     + 2 * sys.getsizeof(b"") + 8 - RECORD_HEADER_LEN)


class Block(NamedTuple):
    """One verified SSData block, decoded once at fill: what the block
    cache holds, charged ``len`` — about the memory it holds: its raw
    length plus ``_DECODED_OVERHEAD`` a record.  ``recs`` are the
    records that start and end inside it, index entries ``first…``;
    of the records a boundary cuts it keeps the raw bytes,
    ``head`` of the one running in (all of them, if none starts here)
    and ``tail`` from the start of the one running out."""

    first: int
    recs: List[Triple]
    head: bytes
    tail: bytes
    nbytes: int

    def __len__(self) -> int:
        return self.nbytes


def list_ssids(store: PosixStore, directory: str,
               suffix: str = DATA_SUFFIX) -> List[int]:
    """All SSIDs with a ``suffix`` file under ``directory``, ascending:
    the live tables, or with ``DATA_SUFFIX + QUARANTINE_SUFFIX`` the
    quarantined ones."""
    pattern = re.compile(r"^(\d{10})" + re.escape(suffix) + "$")
    ssids = []
    for name in store.listdir(directory):
        m = pattern.match(name)
        if m:
            ssids.append(int(m.group(1)))
    return sorted(ssids)


class SSTableReader:
    """Handle to one immutable SSTable.

    The parsed bloom filter and index are cached after first use (the
    node's page cache, when the reader is the device's shared one); the
    device is still charged for the initial loads and every SSData probe.

    With the device's :class:`~repro.sstable.block_cache.BlockCache`
    attached, SSData probes read through 64KB blocks: a cached block
    costs no device time and needs no re-verification or decoding (its
    CRC was checked and its records decoded at fill), a miss reads,
    verifies and decodes the block once and caches it for every other
    reader on the device.  Cache priority and accounting belong to the
    *call*, not the reader: a point get promotes on a hit and fills at
    the hot end, a stream (scan, sequential get) leaves recency alone
    and fills at the cold end, so streaming reads cannot evict the
    point-get working set; ``sink`` names the calling database's
    counters.  ``read_all`` bypasses the cache.
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

    def _corrupt(self, detail: str,
                 kind: type = CorruptionError) -> CorruptionError:
        exc = kind(f"sstable {self.ssid} ({self.directory}): {detail}")
        exc.ssid = self.ssid
        return exc

    def _check_len(self, what: str, size: int, committed: int) -> None:
        if size != committed:
            raise self._corrupt(
                f"{what} is {size} bytes, footer committed {committed}",
                TornWriteError)

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
        if self._index is None:  # set after the footer: see load_index
            t = self.load_index(t)[1]
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

    # ------------------------------------------------------------ cached I/O
    def _block(self, blk: int, t: float, hot: bool,
               sink: Optional[CacheCounters]) -> Tuple[Block, float]:
        """One whole verified SSData block, decoded — the only SSData
        fetch a lookup makes.

        A cached block costs no device time (it was verified and decoded
        at fill); a miss is one device read, the CRC check and the
        decode *before* the fill, so the cache only ever holds verified
        records.  ``hot`` is the call's cache priority: a point probe
        promotes on a hit and fills at the hot end; a stream leaves
        recency alone and fills at the cold end — which a full cache
        drops again at once, so the *caller* holds the block.  Lookup
        and fill are one step under the reader's lock: a second rank
        missing finds it cached.
        """
        footer, cache = self._footer, self._cache
        assert footer is not None
        if not self._size_checked:  # first touch: SSData's committed length
            size = self.store.size(self._data_path)
            self._check_len("SSData", size, footer.data_len)
            self._size_checked = True
        if blk >= len(footer.block_crcs):
            raise self._corrupt(f"index entry points past block {blk}")
        with self._io_lock:
            if cache is not None:
                block = cache.get(self.directory, self.ssid, blk, hot, sink)
                if block is not None:
                    return block, t
            bs = footer.block_size
            data, t = self.store.read(self._data_path, t, blk * bs, bs)
            if crc32c(data) != footer.block_crcs[blk]:
                raise self._corrupt(f"SSData block {blk} checksum mismatch")
            block = self._decode(blk * bs, data)
            if cache is not None:
                cache.put(self.directory, self.ssid, blk, block, not hot, sink)
        return block, t

    def _decode(self, base: int, data: bytes) -> Block:
        """SSData ``[base, base + len(data))`` as a :class:`Block`; the
        index entries starting inside it say where each record is."""
        index, top = self._index, base + len(data)
        lo = bisect_left(index, (base,))
        hi = bisect_left(index, (top,), lo)
        head, tail = (data[:index[lo].offset - base] if lo < hi else data), b""
        if lo < hi:
            off, klen, vlen, _ = index[hi - 1]
            if off + RECORD_HEADER_LEN + klen + vlen > top:
                hi -= 1
                tail = data[off - base:]
        base -= RECORD_HEADER_LEN
        recs = [(data[(k := off - base):(v := k + klen)], data[v:v + vlen], tomb)
                for off, klen, vlen, tomb in index[lo:hi]]
        return Block(lo, recs, head, tail,
                     len(data) + _DECODED_OVERHEAD * len(recs))

    def _join(self, buf: bytes, need: int, blk: int, t: float, hot: bool,
              sink: Optional[CacheCounters],
              ) -> Tuple[bytes, int, Optional[Block], float]:
        """``buf`` — a cut record's bytes to the end of block ``blk`` —
        joined with the heads of the blocks after until ``need`` long;
        with the last block fetched (``None``: none) and its number."""
        pieces, block = [buf], None
        while len(buf) < need:
            blk += 1
            block, t = self._block(blk, t, hot, sink)
            pieces.append(block.head)
            buf = b"".join(pieces)
        return buf, blk, block, t

    def _seek(self, key: bytes, t: float, hot: bool,
              sink: Optional[CacheCounters], value: bool,
              ) -> Tuple[int, Optional[Triple], float]:
        """The one binary search: index position of the first entry with
        ``entry.key >= key`` and — for a get (``value``) — the record
        when its key *is* ``key``.  Two bisects: the footer's block keys
        (below the first: position 0, no I/O), then the one block's
        records; of the record its end cuts, the key is joined when the
        answer hangs on it, the value when a get wants it.
        """
        footer, t = self.footer(t)
        j = bisect_right(footer.block_keys, key) - 1
        if j < 0:
            return 0, None, t
        index = self._index
        blk = index[footer.block_first[j]].offset // footer.block_size
        block, t = self._block(blk, t, hot, sink)
        recs = block.recs
        i = bisect_left(recs, (key,))
        pos = block.first + i
        if i < len(recs) or not block.tail:  # else: the cut one decides
            found = value and i < len(recs) and recs[i][0] == key
            return pos, (recs[i] if found else None), t
        _, klen, vlen, tomb = index[pos]
        kend, buf = RECORD_HEADER_LEN + klen, block.tail
        if pos == footer.block_first[j]:  # its key is the block key
            rkey = footer.block_keys[j]
        else:
            buf, blk, _, t = self._join(buf, kend, blk, t, hot, sink)
            rkey = buf[RECORD_HEADER_LEN:kend]
        if rkey != key or not value:
            return (pos + (rkey < key)), None, t
        # an empty value touches no block, whatever its key does
        buf, _, _, t = self._join(buf, vlen and kend + vlen, blk, t, hot, sink)
        return pos, (key, buf[kend:kend + vlen], tomb), t

    # ------------------------------------------------------------ scan support
    def find_ge(self, key: Optional[bytes], t: float,
                sink: Optional[CacheCounters] = None) -> Tuple[int, float]:
        """Index position of the first entry with ``entry.key >= key`` —
        a scan's bracketing step, one block at stream priority.
        ``key=None`` (open start) returns 0 for free; a result of
        ``len(index)`` means no entry qualifies.
        """
        if key is None:
            return 0, self.load_index(t)[1]
        pos, _, t = self._seek(key, t, False, sink, False)
        return pos, t

    def runs(self, start: Optional[bytes], end: Optional[bytes],
             clock: VirtualClock, stats: Any, keys_only: bool = False,
             sink: Optional[CacheCounters] = None,
             ) -> Iterator[List[Triple]]:
        """The records of ``[start, end)`` as sorted runs: a scan's tier.

        After :meth:`find_ge`, a block is fetched at stream priority (on
        ``clock``, counted in ``stats.scan_blocks_read``) when a record's
        key leaves the one held, and its whole records go out as
        :func:`~repro.sstable.format.slices` — never across a block; a
        record a boundary cuts goes out alone, joined.  ``keys_only``
        fetches no block of value bytes only: a cut record's value comes
        back empty, and the caller drops the others.
        """
        i, t = self.find_ge(start, clock.now, sink)
        clock.advance_to(t)
        index, bs = self._index, self._footer.block_size
        held, block = -1, None
        while i < len(index):
            off, klen, vlen, tomb = index[i]
            kb = (off + RECORD_HEADER_LEN) // bs
            if kb != held:
                block, t = self._block(kb, clock.now, False, sink)
                clock.advance_to(t)
                stats.scan_blocks_read += 1
                held = kb
            recs, j = block.recs, i - block.first
            if 0 <= j < len(recs):
                stop = len(recs)
                if end is not None and recs[-1][0] >= end:
                    stop = bisect_left(recs, (end,), j)
                yield from slices(recs, j, stop)
                if stop < len(recs):
                    return
                i = block.first + stop
                continue
            # cut: the tail of the block it starts in, or the head of the
            # one after when only its header lies before
            s = off if j >= 0 else kb * bs
            kstart = off + RECORD_HEADER_LEN - s
            need = kstart + klen + (0 if keys_only else vlen)
            buf, blk, nblock, t = self._join(
                block.tail if j >= 0 else block.head, need, kb,
                clock.now, False, sink)
            if nblock is not None:
                clock.advance_to(t)
                stats.scan_blocks_read += blk - held
                held, block = blk, nblock
            key = buf[kstart:kstart + klen]
            if end is not None and key >= end:
                return
            yield [(key, buf[kstart + klen:need], tomb)]
            i += 1

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
        _, rec, t = self._seek(key, t, True, sink, True)
        if rec is None:
            return None, t
        return Record(key, rec[1], rec[2]), t

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
    def _read_data(self, t: float) -> Tuple[bytes, float]:
        """All of SSData, checked against the footer's block CRCs (unless
        the index is missing: ``self._footer`` is then ``None``)."""
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
            self._size_checked = True
        return blob, t

    def _decode_records(self, blob: bytes) -> List[Record]:
        """All of SSData, decoded by its own record headers."""
        try:
            return list(decode_records(blob))
        except CorruptionError as exc:
            raise self._corrupt(str(exc)) from exc

    def _decode_by_index(self, blob: bytes) -> List[Record]:
        """All of SSData, in one pass over the index entries tiling it."""
        index = self._index
        offsets, klens, vlens, _ = tuple(zip(*index)) or ((), (), (), ())
        ends = list(accumulate(map(add, map(add, klens, vlens),
                                   repeat(RECORD_HEADER_LEN)), initial=0))
        if ends.pop() != len(blob) or ends != list(offsets):
            raise self._corrupt("index entries do not tile SSData")
        return [Record(blob[(k := off + RECORD_HEADER_LEN):(v := k + klen)],
                       blob[v:v + vlen], tomb)
                for off, klen, vlen, tomb in index]

    def read_all(self, t: float) -> Tuple[List[Record], float]:
        """Sequential read of the whole table (compaction, redistribution).

        The whole buffer is verified against the footer's block CRCs
        and decoded through the index; compaction therefore never
        launders corrupt bytes into a fresh table.  A table whose
        sidecars are missing is decoded by its record headers alone.
        The block cache is neither read nor filled: every caller reads
        a table whole, once.
        """
        blob, t = self._read_data(t)
        if self._footer is None:
            return self._decode_records(blob), t
        return self._decode_by_index(blob), t

    def verify(self, t: float) -> float:
        """Full integrity check of all three files; returns completion time.

        Raises :class:`CorruptionError` / :class:`TornWriteError` on the
        first problem found: the index CRC, the bloom file CRC against
        the footer, every SSData block CRC, that SSData's own record
        headers decode to the index's records and the footer's block
        keys, that its keys strictly ascend, and that the bloom filter
        holds every one of them.  ``db.verify()`` and the offline
        ``fsck`` both run this check.
        """
        footer, t = self.footer(t)
        bloom_blob, t = self.store.read(self._bloom_path, t)
        self._check_len("bloom", len(bloom_blob), footer.bloom_len)
        if crc32c(bloom_blob) != footer.bloom_crc:
            raise self._corrupt("bloom file checksum mismatch")
        try:
            self._bloom = decode_bloom_file(bloom_blob)
        except CorruptionError as exc:
            raise self._corrupt(str(exc)) from exc
        blob, t = self._read_data(t)
        records = self._decode_records(blob)
        if records != self._decode_by_index(blob):
            raise self._corrupt("index entries disagree with SSData records")
        for key, i in zip(footer.block_keys, footer.block_first):
            if records[i].key != key:  # i: derived from the offsets above
                raise self._corrupt(f"block key {key!r} is not record {i}'s")
        keys = [rec.key for rec in records]
        if any(map(ge, keys, keys[1:])):
            raise self._corrupt("SSData keys not strictly ascending")
        missing = sum(key not in self._bloom for key in keys)
        if missing:
            raise self._corrupt(f"bloom filter false negatives: {missing} keys")
        return t

    def file_paths(self) -> Tuple[str, str, str]:
        """Store-relative paths of (SSData, SSIndex, bloom)."""
        return self._data_path, self._index_path, self._bloom_path
