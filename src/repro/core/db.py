"""The PapyrusKV database object.

One :class:`Database` instance exists per rank per open database.  Its
moving parts mirror Figure 2/3 of the paper:

* a mutable **local MemTable** receiving local puts, rotated into the
  flushing queue when full, flushed to SSTables by the background
  compaction worker;
* a mutable **remote MemTable** staging remote puts under relaxed
  consistency, rotated into the migration queue and shipped to owner
  ranks by the message dispatcher;
* **local/remote caches** (LRU) gated by the protection attribute;
* a per-rank sequence of **SSTables** searched newest-SSID-first with
  bloom-filter skipping and (optionally) binary search;
* a **message handler** thread serving migrations, synchronous puts and
  remote gets for this rank's shard;
* one way into another rank's SSTables: after the owner's handler
  answers ``NOT_IN_MEMORY`` (§2.7), a storage-group peer walks the
  owner's tables itself through the device's readers, under a view per
  owner and one stale-view ladder.

Every put, delete and get — point call or batch — runs one write
pipeline (:meth:`Database._write`) and one tiered get resolver
(:meth:`Database._read`); a point call is a batch of one.
"""

from __future__ import annotations

import heapq
import json
import threading
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Set, Tuple,
)

from repro import config
from repro.analysis.runtime import (
    annotate_observe,
    annotate_publish,
    annotate_read,
    annotate_write,
    enable as enable_race_detector,
    get_detector,
    make_lock,
    make_rlock,
)
from repro.config import Options
from repro.errors import (
    CorruptionError,
    DatabaseClosedError,
    InvalidModeError,
    InvalidOptionError,
    InvalidProtectionError,
    KeyNotFoundError,
    InvalidKeyError,
    InvalidValueError,
    ProtectionError,
    QuorumLostError,
    RemoteTimeoutError,
    StorageError,
)
from repro.core import messages as msg
from repro.core.membership import (
    DEAD_TIMEOUT,
    HEARTBEAT_INTERVAL,
    SUSPECT_TIMEOUT,
    MembershipView,
)
from repro.core.memtable import Entry, MemTable
from repro.core.scan import ScanIterator
from repro.faults import RankKilledError
from repro.mpi.comm import ANY_SOURCE, Comm
from repro.nvm.posixfs import PosixStore
from repro.nvm.storage import StorageLayout
from repro.simtime.resources import BackgroundWorker
from repro.sstable.block_cache import BlockCache
from repro.sstable.compaction import read_and_merge
from repro.sstable.format import (
    QUARANTINE_SUFFIX,
    Record,
    decode_records,
    parse_index,
    sstable_filenames,
    sstable_paths,
)
from repro.util.checksum import crc32c
from repro.sstable.reader import SSTableReader, list_ssids
from repro.sstable.writer import encode_table, write_sstable_blobs
from repro.util.hashing import builtin_key_hash, owner_rank
from repro.util.lru import LRUCache

#: tag used on the ack comm for the acks of non-``sync`` PairsMsgs
ACK_TAG = 7
#: tag used on the ack comm for heartbeat pongs (failure detector) —
#: separate from ACK_TAG so pongs never interleave with the ack stream
#: the quorum/fence drains consume
HB_TAG = 8

#: group commit: puts within this virtual-time window of the first one
#: share its durability charge and ack drain; the window also closes
#: once it has coalesced this many payload bytes
GROUP_COMMIT_INTERVAL = 200e-6
GROUP_COMMIT_BYTES = 64 * config.KB
#: every this-many-th compaction round is a major (full,
#: tombstone-dropping) merge instead of a minor delta merge
COMPACTION_MAJOR_EVERY = 8
#: compaction duty cycle: after each round the compaction worker idles
#: so it occupies at most this fraction of its timeline, leaving device
#: bandwidth for foreground flushes
COMPACTION_DUTY_CYCLE = 0.5
#: pairs per broadcast chunk in scan_global's windowed merge: the
#: in-flight buffer is bounded by ``nranks * SCAN_CHUNK`` pairs
SCAN_CHUNK = 1024
#: migration-queue capacity: unacked migration chunks in flight per
#: owner before a migration blocks on an ack (§2.4)
MIGRATION_QUEUE_CAPACITY = 4


@dataclass(frozen=True)
class QuarantinedTable:
    """A damaged SSTable pulled out of the search order.

    The key range it may have covered is *poisoned*: a lookup that
    would have reached it (no newer table answered first) raises
    instead of silently serving an older version.
    """

    ssid: int
    min_key: Optional[bytes]
    max_key: Optional[bytes]
    reason: str

    def may_cover(self, key: bytes) -> bool:
        """Whether ``key`` could live in this table (unknown = yes)."""
        if self.min_key is None or self.max_key is None:
            return True
        return self.min_key <= key <= self.max_key


class _SeqWindow:
    """Bounded per-source memory of applied sequence numbers.

    Makes duplicate delivery of mutating messages (retries, injected
    duplicates) idempotent: the handler applies each (source, seq) once
    and just re-acks repeats.
    """

    CAPACITY = 4096

    def __init__(self) -> None:
        self._seen: set = set()
        self._order: List[int] = []

    def check_and_add(self, seq: int) -> bool:
        """True if ``seq`` was already applied; records it otherwise."""
        if seq in self._seen:
            return True
        self._seen.add(seq)
        self._order.append(seq)
        if len(self._order) > self.CAPACITY:
            self._seen.discard(self._order.pop(0))
        return False


class _Unacked(NamedTuple):
    """One PairsMsg on the wire without its ack yet: enough to serve
    this rank's gets from it and to send it again."""

    target: int
    #: key -> (key, value, tombstone)
    pairs: Dict[bytes, msg.Pair]
    #: the sender is blocked on the ack (it travels on the rsp comm)
    sync: bool


#: the ``retire_at`` of a view with no flush in flight
_NEVER = float("inf")

#: ``(ssid, reader)`` newest first; a quarantined table's reader is None
Tables = Tuple[Tuple[int, Optional[SSTableReader]], ...]


class _ReadView(NamedTuple):
    """The read state as one writer published it under ``db.state``.

    A get, the handler's get service and a scan open take the view with
    one attribute load and no lock.  Nothing in it changes after
    publication but the live MemTable's dict, which takes puts; a point
    read of it is one GIL-atomic lookup.  Every change to the rest —
    rotate and flush enqueue, flush retire, compaction install,
    quarantine, open and checkpoint restore, a reader invalidation —
    publishes a new view (:meth:`Database._publish`).
    """

    live: MemTable
    #: the flushing MemTables, newest first
    flushing: Tuple[MemTable, ...]
    #: virtual time the oldest flushing MemTable's table is durable: a
    #: reader whose clock reached it retires the MemTable first
    retire_at: float
    #: my tables newest first with their readers (quarantined: holes)
    tables: Tables
    quarantined: Tuple[QuarantinedTable, ...]
    #: ``_next_ssid`` at publication — a cache fill's version check
    horizon: int


class _PeerView(NamedTuple):
    """What a storage-group peer knows of one owner's tables.

    ``ssids`` is the owner's table set when the view was taken off a
    directory listing (ascending; the newest is ``ssids[-1]``), and
    ``tables`` their readers, newest first, resolved once.  A get that
    follows a ``NOT_IN_MEMORY`` reply trusts the view while the reply
    names the same newest table and the device has invalidated no
    reader since ``generation`` — the owner may rebuild a table in place
    under its SSID (scrub repair), and a reader resolved before that
    would serve the old table's index.
    """

    owner_dir: str
    ssids: Tuple[int, ...]
    tables: Tables
    generation: int


@dataclass
class GetResult:
    """A get outcome with provenance (which tier satisfied it)."""

    value: bytes
    tier: str  # local_mt | flushing | local_cache | sstable | remote_mt |
    #          inflight | remote_cache | remote | shared_sstable


@dataclass
class DbStats:
    """Operation counters (diagnostics and tests)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    local_puts: int = 0
    remote_puts: int = 0
    local_gets: int = 0
    remote_gets: int = 0
    flushes: int = 0
    compactions: int = 0
    migrations: int = 0
    #: write-path overhaul counters: commit windows opened, puts that
    #: rode an open window (sharing its durability charge + ack drain),
    #: full-merge (tombstone-dropping) compactions, and time puts spent
    #: blocked on flush back-pressure
    group_commits: int = 0
    group_commit_coalesced: int = 0
    compaction_majors: int = 0
    flush_stalls: int = 0
    flush_stall_s: float = 0.0
    #: batch-call counters (``WriteBatch.flush`` / ``get_bulk`` only,
    #: never point calls): batches issued, distinct keys carried by them,
    #: and per-owner runtime messages they produced (GetMsg + sync PairsMsg)
    bulk_batches: int = 0
    bulk_keys: int = 0
    bulk_owner_msgs: int = 0
    #: robustness counters (corruption detection / recovery ladder)
    corruptions_detected: int = 0
    tables_quarantined: int = 0
    tables_rebuilt: int = 0
    remote_retries: int = 0
    remote_timeouts: int = 0
    #: read-path pruning counters: tables skipped because the key fell
    #: outside the footer's [min,max] fences, and tables skipped by the
    #: bloom filter saying "definitely absent"
    fence_skips: int = 0
    bloom_skips: int = 0
    #: replication counters: fan-out messages sent and the pairs they
    #: carried, pairs applied on the receiving side, heartbeat pings
    #: sent, stale-epoch rejections served, ranks this view declared
    #: dead, pairs pushed by re-replication after a death, and gets that
    #: had to consult a non-primary replica (failover or paranoia read)
    replica_msgs: int = 0
    replica_pairs: int = 0
    replica_pairs_applied: int = 0
    heartbeats_sent: int = 0
    epoch_rejections: int = 0
    rank_deaths: int = 0
    rereplicated_pairs: int = 0
    failover_gets: int = 0
    #: scan-path counters: iterators opened, tables pruned at scan open
    #: (fences outside the window, or empty), distinct SSData blocks the
    #: scan cursors actually read, non-empty chunks this rank shipped
    #: into scan_global's windowed merge, and the high-water pair count
    #: of the global merge buffer (the O(nranks x chunk) memory bound,
    #: made observable)
    scans: int = 0
    scan_tables_pruned: int = 0
    scan_blocks_read: int = 0
    scan_chunks_shipped: int = 0
    scan_peak_buffered: int = 0
    get_tiers: Dict[str, int] = field(default_factory=dict)

    def hit(self, tier: str) -> None:
        """Count a get satisfied by the named tier."""
        annotate_write(self, "db.stats.tiers")
        self.get_tiers[tier] = self.get_tiers.get(tier, 0) + 1


class WriteBatch:
    """The batch write surface: a mutation buffer over the write pipeline.

    Created by :meth:`Database.batch`.  Operations are recorded in
    program order; within one batch the last operation on a key wins
    (the pipeline's last-write-wins rule), which matches the outcome of
    the equivalent per-key sequence.  ``put`` and ``delete`` have full
    parity — both buffer, both count toward ``max_bytes``, both resolve
    through the engine ``db.put``/``db.delete`` use with one pair.

    Parameters
    ----------
    durability: what the context manager guarantees on clean exit —
        ``"none"`` (default: writes are buffered/staged like plain
        puts), ``"fence"`` (remote writes migrated to their owners and
        acked), or ``"flush"`` (fence + the local shard flushed to
        SSTables).
    max_bytes: auto-flush threshold — the batch flushes itself through
        the pipeline whenever the buffered payload reaches this many
        bytes, bounding memory for streaming loads.  ``None`` buffers
        until an explicit/exit flush.
    """

    _DURABILITY = ("none", "fence", "flush")

    def __init__(self, db: "Database", durability: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        durability = "none" if durability is None else durability
        if durability not in self._DURABILITY:
            raise InvalidOptionError(
                f"durability must be one of {self._DURABILITY}, "
                f"got {durability!r}"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise InvalidOptionError("max_bytes must be positive or None")
        self._db = db
        self._ops: List[Tuple[bytes, bytes, bool]] = []
        self._bytes = 0
        self._durability = durability
        self._max_bytes = max_bytes
        self._written = 0

    @property
    def written(self) -> int:
        """Distinct keys written by this batch's flushes so far."""
        return self._written

    def put(self, key: bytes, value: bytes) -> None:
        """Buffer an insert/update."""
        self._db._validate_kv(key, value)
        self._ops.append((bytes(key), bytes(value), False))
        self._bytes += len(key) + len(value)
        self._maybe_autoflush()

    def delete(self, key: bytes) -> None:
        """Buffer a delete (tombstone put)."""
        self._db._validate_kv(key, None)
        self._ops.append((bytes(key), b"", True))
        self._bytes += len(key)
        self._maybe_autoflush()

    def _maybe_autoflush(self) -> None:
        if self._max_bytes is not None and self._bytes >= self._max_bytes:
            self.flush()

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def __delitem__(self, key: bytes) -> None:
        self.delete(key)

    def __len__(self) -> int:
        return len(self._ops)

    def clear(self) -> None:
        """Drop every buffered operation without writing."""
        self._ops.clear()
        self._bytes = 0

    def flush(self) -> int:
        """Write the buffered operations now; returns keys written."""
        ops, self._ops, self._bytes = self._ops, [], 0
        n = self._db._write(ops, "put_bulk")
        self._written += n
        return n

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return  # on exception nothing further is written
        self.flush()
        if self._durability == "fence":
            self._db.fence()
        elif self._durability == "flush":
            self._db.fence()
            self._db.flush()


class Database:
    """Per-rank handle to one distributed PapyrusKV database.

    Construct via :meth:`repro.core.env.Papyrus.open` (collective), not
    directly.
    """

    def __init__(
        self,
        env,
        name: str,
        options: Options,
        srv_comm: Comm,
        rsp_comm: Comm,
        ack_comm: Comm,
        coll_comm: Comm,
        store: PosixStore,
    ) -> None:
        self.env = env
        self.ctx = env.ctx
        self.name = name
        self.options = options
        self.rank = self.ctx.world_rank
        self.nranks = self.ctx.nranks
        self.consistency = options.consistency
        self.protection = options.protection
        self.binary_search = options.binary_search
        self.hash_fn = options.hash_fn
        #: the key hash behind :meth:`owner_of` (owner = hash % nranks)
        self._key_hash = (builtin_key_hash if options.hash_fn is None
                          else options.hash_fn)

        self.store = store
        self.dbdir = f"db_{name}"
        self.rank_dir = f"{self.dbdir}/rank{self.rank}"

        group_size = options.group_size or self.ctx.machine.default_group_size
        if options.repository == "lustre":
            # the parallel FS is visible to everyone: one big domain
            group_size = min(group_size, self.nranks)
        self.layout = StorageLayout(self.nranks, group_size)
        self.group = self.layout.group_of(self.rank)
        #: the ranks that can read my SSTable files: my storage group, on
        #: my NVM domain (or anywhere on the parallel file system)
        self._storage_peers = frozenset(
            r for r in range(self.nranks)
            if self.layout.group_of(r) == self.group and (
                options.repository == "lustre"
                or self.ctx.machine.shares_nvm(self.rank, r)))

        self.srv_comm = srv_comm
        self.rsp_comm = rsp_comm
        self.ack_comm = ack_comm
        self.coll_comm = coll_comm

        cpu = self.ctx.system.cpu
        self._memcpy_Bps = cpu.memcpy_Bps

        if options.race_detect:
            enable_race_detector()
        self._lock = make_rlock("db.state")
        self.local_mt = MemTable(options.memtable_capacity)
        self.remote_mt = MemTable(options.remote_memtable_capacity)
        #: flushing queue: (immutable MemTable, virtual flush-completion time)
        self.flushing: List[Tuple[MemTable, float]] = []
        #: the outstanding-send ledger: every PairsMsg sent and not yet
        #: acked, seq -> entry, oldest first.  Gets search it newest-first
        #: (the ``inflight`` tier), a timed-out drain resends from it, an
        #: ack or the target's death settles an entry.  Guarded by
        #: db.state.
        self._unacked: Dict[int, _Unacked] = {}
        self._next_seq = self.rank + 1  # distinct across ranks for debugging
        #: handler-side dedup of applied mutating seqs, per source rank
        self._seq_dedup: Dict[int, _SeqWindow] = {}

        # -- replication plane: per-key replica groups + write quorum --
        if options.replicas > self.nranks:
            raise InvalidOptionError(
                f"replicas={options.replicas} exceeds the world size "
                f"({self.nranks} rank(s))"
            )
        #: membership view of the replica plane; None ⇔ replicas == 1
        #: (the unreplicated paths never touch it)
        self.membership: Optional[MembershipView] = (
            MembershipView(self.rank, self.nranks, options.replicas)
            if options.replicas > 1 else None
        )
        #: the open commit window's replica riders, key -> pair in put
        #: order: not on the wire yet, so not in the ledger — placed and
        #: shipped by whatever closes the window, served to this rank's
        #: gets meanwhile (``inflight``) — and the membership epoch they
        #: were inserted locally under
        self._staged: Dict[bytes, msg.Pair] = {}
        self._staged_epoch = 0
        #: quorum debts of the last shipped window, (seqs, need) per
        #: distinct replica group: settled by the next window to ship
        #: and by fence.  Main-thread only, like _staged and the _gc_*
        #: window state below — no lock needed.
        self._quorum_due: List[Tuple[List[int], int]] = []
        #: failure-detector ping state — main-thread only: virtual time
        #: of the last ping per peer, and of the first unanswered ping
        self._hb_last: Dict[int, float] = {}
        self._hb_ping: Dict[int, float] = {}
        #: set once the fault plane kills this rank mid-run
        self._killed = False
        #: re-entrancy guard: a re-replication push does its own sends
        #: and must not recurse into the detector/put machinery
        self._in_rerepl = False

        self.ssids: List[int] = []
        self._next_ssid = 1
        #: damaged tables pulled from the search order (poisoned ranges)
        self._quarantined: List[QuarantinedTable] = []
        #: scan snapshot pins: ssid -> count of open iterators reading
        #: it.  A pinned table's files survive flush/compaction retire
        #: (the unlink is deferred to _deferred_unlinks) so in-progress
        #: scans keep a consistent horizon.  db.scan_pins (level 12)
        #: guards both dicts: nested inside db.state at snapshot/retire
        #: time, taken alone at iterator close.
        self._scan_lock = make_lock("db.scan_pins")
        self._scan_pins: Dict[int, int] = {}
        #: ssid -> file paths whose unlink compaction deferred to unpin
        self._deferred_unlinks: Dict[int, List[str]] = {}
        #: newest checkpoint target (recovery ladder's last rung)
        self._last_checkpoint_path: Optional[str] = None

        # -- the one way into another rank's SSTables (§2.7) --
        #: per-owner view of a storage-group peer's table set; read and
        #: replaced only on rank main (the storage-group read, a death),
        #: so it takes no lock
        self._peer_views: Dict[int, _PeerView] = {}

        self.local_cache: Optional[LRUCache] = (
            LRUCache(options.cache_local_capacity)
            if options.cache_local_enabled else None
        )
        #: the local cache's own leaf lock: gets read the cache without
        #: db.state, fills and evictions take it nested inside
        self._cache_lock = make_lock("db.local_cache")
        self.remote_cache = LRUCache(options.cache_remote_capacity)
        #: my storage device's read cache (blocks and file-built readers,
        #: its own lock), shared by every rank on it; my capacity joins
        #: its budget until close and it counts my share of the traffic
        self.block_cache: BlockCache = store.read_cache
        self.cache_counts = self.block_cache.attach(
            self.rank_dir, options.block_cache_capacity)

        self.compaction_worker = BackgroundWorker(f"compactor-r{self.rank}")
        self.dispatcher_worker = BackgroundWorker(f"dispatcher-r{self.rank}")
        #: pipelined-flush stages: CPU encode on the build worker, device
        #: commit on the sync worker
        self.flush_build_worker = BackgroundWorker(f"flush-build-r{self.rank}")
        self.flush_sync_worker = BackgroundWorker(f"flush-sync-r{self.rank}")

        #: group-commit window state — main-thread-only (mutated solely
        #: under the application thread inside _write), so it needs no
        #: lock and no registry entry
        self._gc_open = False
        self._gc_t0 = 0.0
        self._gc_bytes = 0

        #: L0 delta tables flushed since the last compaction (the
        #: minor-merge inputs); guarded by db.state like ssids
        self._l0: List[int] = []
        #: minor generations since the last major (tombstone-dropping) merge
        self._minor_gens = 0

        self.stats = DbStats()
        from repro.core.latency import LatencyTracker

        self.latency = LatencyTracker()
        self._tracer = None
        self._closed = False
        self._handler_thread: Optional[threading.Thread] = None

        self.store.makedirs(self.rank_dir)
        #: the published read view (see _ReadView); replaced whole
        self._view: _ReadView
        self._load_existing_sstables()

    # ------------------------------------------------------------ lifecycle
    def _load_existing_sstables(self) -> None:
        """Zero-copy workflow: compose the DB from retained SSTables.

        Each retained table is *admitted*: all three files must exist
        (a crash between the writer's atomic renames can leave a
        complete SSData without its sidecars — those are rebuilt from
        the data), and with ``verify_on_open`` the checksums are
        verified too.  Tables that fail admission are quarantined.
        """
        existing = list_ssids(self.store, self.rank_dir)
        admitted: List[int] = []
        for ssid in existing:
            if self._admit_sstable(ssid):
                admitted.append(ssid)
        if existing:
            self._next_ssid = existing[-1] + 1
        self.ssids = admitted
        self._publish()

    def _admit_sstable(self, ssid: int) -> bool:
        """Validate/repair one retained table; False means quarantined."""
        data_p, index_p, bloom_p = sstable_paths(self.rank_dir, ssid)
        missing = [p for p in (index_p, bloom_p) if not self.store.exists(p)]
        if missing:
            # writer order is data -> index -> bloom, each atomic: an
            # intact SSData with missing sidecars is a mid-flush crash,
            # and the sidecars are pure functions of the data
            try:
                self._rebuild_sidecars(ssid, data_p)
                self.stats.tables_rebuilt += 1
                return True
            except (StorageError, ValueError) as exc:
                self._quarantine_table(ssid, f"sidecar rebuild failed: {exc}")
                return False
        if self.options.verify_on_open:
            try:
                t = SSTableReader(self.store, self.rank_dir, ssid).verify(
                    self.clock.now
                )
                self.clock.advance_to(t)
            except StorageError as exc:
                self.stats.corruptions_detected += 1
                self._quarantine_table(ssid, str(exc))
                return False
        return True

    def _rebuild_sidecars(self, ssid: int, data_p: str) -> None:
        """Recompute the index and bloom files from an intact SSData.

        Both sidecars are rewritten even if one survived, so the index
        footer's bloom checksum always matches the bloom file on disk.
        """
        blob, t = self.store.read(data_p, self.clock.now)
        records = list(decode_records(blob))  # raises CorruptionError if torn
        blobs = encode_table(records)
        if blobs["data"] != blob:
            raise CorruptionError(
                f"sstable {ssid}: SSData does not round-trip; refusing rebuild"
            )
        _, index_p, bloom_p = sstable_paths(self.rank_dir, ssid)
        t = self.store.write(index_p, blobs["index"], t)
        t = self.store.write(bloom_p, blobs["bloom"], t)
        self.clock.advance_to(t)

    def _poison_range(
        self, ssid: int
    ) -> Tuple[Optional[bytes], Optional[bytes]]:
        """Tightest trustworthy [min, max] bound on the keys a damaged
        table may cover.

        Only bytes in data blocks whose footer CRC still verifies are
        trusted; the suspect region is bracketed by the nearest verified
        keys on either side (over-poisoning by one key is safe, serving
        a stale value because a damaged key escaped the range is not).
        ``(None, None)`` means the whole keyspace is poisoned.
        """
        data_p, index_p, _ = sstable_paths(self.rank_dir, ssid)
        t = self.clock.now
        try:
            idx_blob, t = self.store.read(index_p, t)
            entries, footer = parse_index(idx_blob)
            data, t = self.store.read(data_p, t)
            self.clock.advance_to(t)
        except (StorageError, ValueError):
            return None, None  # no trustworthy metadata at all
        bs = footer.block_size
        view = memoryview(data)
        bad = {
            i for i, want in enumerate(footer.block_crcs)
            if crc32c(view[i * bs:(i + 1) * bs]) != want
        }
        if len(data) != footer.data_len:
            bad.add(max(0, (footer.data_len - 1) // bs))

        def key_of(e):
            return bytes(data[e.key_offset:e.key_offset + e.keylen])

        suspect = [
            j for j, e in enumerate(entries)
            if any(
                b in bad
                for b in range(
                    e.offset // bs, (e.offset + e.record_len - 1) // bs + 1
                )
            )
        ]
        if not suspect:  # sidecar damage only: data keys are all verified
            if not entries:
                return None, None
            return key_of(entries[0]), key_of(entries[-1])
        lo, hi = suspect[0], suspect[-1]
        # at the table's edges, fall back to the footer's CRC-protected
        # key fences so even a fully-damaged data file poisons only the
        # range this table actually covered
        min_key = (
            key_of(entries[lo - 1]) if lo > 0 else (footer.min_key or None)
        )
        max_key = (
            key_of(entries[hi + 1]) if hi + 1 < len(entries)
            else (footer.max_key or None)
        )
        return min_key, max_key

    def _quarantine_table(self, ssid: int, reason: str) -> None:
        """Move a damaged table out of the SSID namespace and poison
        the key range it may have covered."""
        min_key, max_key = self._poison_range(ssid)
        t = self.clock.now
        for rel in sstable_paths(self.rank_dir, ssid):
            if self.store.exists(rel):
                t = self.store.rename(rel, rel + QUARANTINE_SUFFIX, t)
        self.clock.advance_to(t)
        with self._lock:
            if ssid in self.ssids:
                annotate_write(self, "db.ssids")
                self.ssids.remove(ssid)
            annotate_write(self, "db.quarantined")
            self._quarantined = [
                q for q in self._quarantined if q.ssid != ssid
            ] + [QuarantinedTable(ssid, min_key, max_key, reason)]
            self._invalidate_readers(ssid)
        self.stats.tables_quarantined += 1

    def _start_handler(self) -> None:
        from repro.core.handler import handler_main

        t = threading.Thread(
            target=handler_main, args=(self,),
            name=f"pkv-handler-{self.name}-r{self.rank}", daemon=True,
        )
        self._handler_thread = t
        t.start()

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError(f"database {self.name!r} is closed")

    @property
    def clock(self):
        return self.ctx.clock

    def attach_tracer(self, tracer) -> None:
        """Record operation spans into ``tracer`` (see repro.tools.trace)."""
        self._tracer = tracer

    def _trace(self, name: str, lane: str, t_start: float,
               t_end: float) -> None:
        if self._tracer is not None:
            self._tracer.record(name, self.rank, lane, t_start, t_end)

    # ------------------------------------------------------------ validation
    def _validate_kv(self, key: bytes, value: Optional[bytes]) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise InvalidKeyError("key must be a non-empty byte string")
        if value is not None and not isinstance(value, (bytes, bytearray)):
            raise InvalidValueError("value must be a byte string")

    def owner_of(self, key: bytes) -> int:
        """The rank owning ``key`` (hash % nranks, custom hash honoured)."""
        return owner_rank(key, self.nranks, self.hash_fn)

    # ============================================================ PUT / DELETE
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a key-value pair (``papyruskv_put``)."""
        if type(key) is not bytes or not key or type(value) is not bytes:
            self._validate_kv(key, value)
            key, value = bytes(key), bytes(value)
        self._write([(key, value, False)], "put")

    def delete(self, key: bytes) -> None:
        """Delete a key: a put with a tombstone bit (``papyruskv_delete``)."""
        self._validate_kv(key, None)
        self._write([(bytes(key), b"", True)], "delete")

    def _write(self, ops: List[msg.Pair], kind: str) -> int:
        """The write pipeline: every put, delete and batch runs this.

        ``ops`` is already validated and normalised, in program order;
        a point call is a batch of one.  Within the batch only each
        key's final op lands (last-write-wins).  Returns the number of
        distinct keys written; ``kind`` labels the latency sample.
        """
        if self._closed or self._killed or self.ctx.faults is not None:
            self._check_open()
            self._maybe_kill()
        if self.protection == config.RDONLY:
            raise ProtectionError("database is read-only (PAPYRUSKV_RDONLY)")
        if not ops:
            return 0
        clock = self.ctx.clock
        t_start = clock.now
        # last write wins within the call
        pairs = ops if len(ops) == 1 else list(
            {op[0]: op for op in ops}.values())
        n = len(pairs)
        nbytes = 0
        for key, value, tomb in pairs:
            nbytes += len(key) + len(value)
            self.stats.deletes += tomb
        self.stats.puts += n
        # group commit: a call landing inside an open commit window
        # coalesces — it shares the window-opener's durability charge
        # (DRAM write latency) and its ack drain, paying only the
        # per-key CPU op plus the memcpy of its own payload
        rider = (
            self._gc_open
            and t_start - self._gc_t0 < GROUP_COMMIT_INTERVAL
            and self._gc_bytes < GROUP_COMMIT_BYTES
        )
        cpu = self.ctx.system.cpu
        clock.advance(
            cpu.kv_op_s * n + (0.0 if rider else cpu.dram_latency_s)
            + nbytes / self._memcpy_Bps
        )
        if rider:
            self._gc_bytes += nbytes
            self.stats.group_commit_coalesced += n
        else:
            if self._unacked:
                self._drain_acks(blocking=False)
            self._close_window()  # no-op without replication
            self._gc_open = True
            self._gc_t0 = t_start
            self._gc_bytes = nbytes
            self.stats.group_commits += 1
            self.stats.group_commit_coalesced += n - 1
        owner_msgs = 0
        if self.membership is not None:
            # replicated write: insert locally and stage the pairs in
            # the open window; the boundary that closes the window ships
            # them, one message per target.  Sequential mode is a window
            # of one call, acknowledged on return.
            self._stage(pairs)
            if self.consistency == config.SEQUENTIAL:
                self._close_window()
            self._tick()  # after staging: an aged window ships whole
        else:
            local: List[msg.Pair] = []
            remote: Dict[int, List[msg.Pair]] = {}
            key_hash, nranks, me = self._key_hash, self.nranks, self.rank
            for pair in pairs:
                owner = key_hash(pair[0]) % nranks
                if owner == me:
                    local.append(pair)
                else:
                    remote.setdefault(owner, []).append(pair)
            self.stats.local_puts += len(local)
            self.stats.remote_puts += n - len(local)
            if local:
                self._local_insert(local, clock)
            # relaxed mode stages remote pairs in the remote MemTable
            # (memory only, main-thread state: no lock).  Migration
            # happens outside db.state: the dispatcher's blocking
            # back-pressure must never hold the lock this rank's handler
            # needs to serve other ranks (cross-rank deadlock).
            if remote and self.consistency == config.RELAXED:
                for owner, staged in remote.items():
                    for key, value, tomb in staged:
                        self.remote_mt.put(key, value, tomb, owner)
                if self.remote_mt.full:
                    self._migrate(self._swap_remote_mt())
            if remote and self.consistency == config.SEQUENTIAL:
                owner_msgs = self._put_sync(remote)
        self._account(kind, t_start, n, owner_msgs)
        return n

    def _account(self, kind: str, t_start: float, nkeys: int,
                 owner_msgs: int) -> None:
        """Latency sample and trace span of one public call; batch calls
        (``put_bulk`` / ``get_bulk``) also bump the ``bulk_*`` counters."""
        label = kind
        if kind.endswith("_bulk"):
            self.stats.bulk_batches += 1
            self.stats.bulk_keys += nkeys
            self.stats.bulk_owner_msgs += owner_msgs
            label = f"{kind}({nkeys})"
        now = self.ctx.clock.now
        self.latency.observe(kind, now - t_start)
        if self._tracer is not None:
            self._tracer.record(label, self.rank, "main", t_start, now)

    def _local_insert(self, pairs: Iterable[msg.Pair], clock) -> None:
        """Insert into the local MemTable under one acquisition of
        ``db.state`` (caller may be the handler).  The pairs' stale
        local-cache entries are evicted (Fig. 2) before the lock goes:
        a get that misses the MemTable meanwhile may still read one,
        but a fill never resurrects one (:meth:`_fill_local_cache`)."""
        cache = self.local_cache
        keys: List[bytes] = []
        with self._lock:
            for key, value, tombstone in pairs:
                self.local_mt.put(key, value, tombstone)
                keys.append(key)
                if self.local_mt.full:
                    self._rotate_local(clock)
            if cache is not None and self.protection != config.WRONLY:
                with self._cache_lock:
                    for key in keys:
                        cache.invalidate(key)

    def _rotate_local(self, clock) -> None:
        """Freeze the full local MemTable and enqueue it for flushing."""
        imm = self.local_mt.freeze()
        self.local_mt = MemTable(self.options.memtable_capacity)
        self._enqueue_flush(imm, clock)
        self._publish()

    def _crash_site(self, site: str) -> None:
        """Visit a named flush-pipeline fault site (no-op without a plan)."""
        plan = self.store.faults
        if plan is not None:
            plan.at_site(site)

    def _enqueue_flush(self, imm: MemTable, clock) -> None:
        """Queue an immutable local MemTable; apply back-pressure if full.

        The flush runs as two overlapped stages: *build* (CPU: sort
        snapshot -> encode the three blobs) on the build worker, then
        *sync* (device: one batched durable commit) chained onto the
        sync worker.  Each stage only gates on its own worker, so while
        table N syncs to the device table N+1 is already encoding —
        foreground puts stall only when the whole queue is full.  Crash sites ``flush.freeze/build/sync/retire``
        bracket every stage transition.
        """
        if len(imm) == 0:
            return
        self._crash_site(f"flush.freeze:rank{self.rank}")
        # back-pressure: block (virtually) until the oldest flush finishes
        stall_t0 = clock.now
        while len(self.flushing) >= self.options.flush_queue_capacity:
            _, end = self.flushing[0]
            clock.advance_to(end)
            self._retire_flushed(clock.now, publish=False)
            if self.flushing and self.flushing[0][1] > clock.now:
                break  # defensive; should not happen
        if clock.now > stall_t0:
            self.stats.flush_stalls += 1
            self.stats.flush_stall_s += clock.now - stall_t0
        ssid = self._next_ssid
        self._next_ssid += 1
        records = imm.to_records()

        end = self._schedule_pipelined_flush(ssid, records, imm, clock)
        annotate_write(self, "db.ssids")
        self.ssids.append(ssid)
        self._l0.append(ssid)
        self.flushing.append((imm, end))
        self.stats.flushes += 1
        self._retire_flushed(clock.now, publish=False)
        interval = self.options.compaction_interval
        if interval and len(self._l0) >= interval:
            self._schedule_compaction(clock.now)

    def _schedule_pipelined_flush(self, ssid: int, records, imm: MemTable,
                                  clock) -> float:
        """Chain the build and sync stages of one flush; returns the
        virtual time the table is durable."""
        holder: Dict[str, Dict[str, bytes]] = {}

        def build_job(start: float) -> float:
            self._crash_site(f"flush.build:{self.rank_dir}/{ssid}")
            holder["blobs"], end = self._build_table(records, start)
            self._trace(f"flush-build ssid={ssid}", "flush-build", start, end)
            return end

        t_built = self.flush_build_worker.schedule(clock.now, build_job)

        def sync_job(start: float) -> float:
            self._crash_site(f"flush.sync:{self.rank_dir}/{ssid}")
            _, end = write_sstable_blobs(
                self.store, self.rank_dir, ssid, holder["blobs"], start
            )
            self._crash_site(f"flush.retire:{self.rank_dir}/{ssid}")
            self._trace(f"flush-sync ssid={ssid}", "flush-sync", start, end)
            return end

        return self.flush_sync_worker.schedule(t_built, sync_job)

    def _build_table(self, records: List[Record],
                     start: float) -> Tuple[Dict[str, bytes], float]:
        """Encode one table's blobs as a CPU job starting at ``start``:
        ``kv_op`` per record plus the blobs' bytes at memcpy speed.
        Returns ``(blobs, virtual_end)``; flush and compaction build
        here."""
        blobs = encode_table(records)
        nbytes = sum(len(b) for b in blobs.values())
        cpu = self.ctx.system.cpu
        return blobs, start + cpu.kv_op_s * max(1, len(records)) + (
            nbytes / self._memcpy_Bps
        )

    def _retire_flushed(self, now: float, publish: bool = True) -> None:
        """Drop flushing-queue entries whose flush completed by ``now``
        (under db.state); ``publish=False`` leaves the new view to the
        caller, which changes more."""
        retired = False
        while self.flushing and self.flushing[0][1] <= now:
            self.flushing.pop(0)
            retired = True
        if retired and publish:
            self._publish()

    def _publish(self) -> None:
        """Install a read view of the current state (under db.state, or
        before the database is shared).  My tables' readers are
        resolved here, through the device's cache, once per view."""
        ssids = sorted(self.ssids, reverse=True)
        readers = self.block_cache.readers(self.store, self.rank_dir, ssids)
        quarantined = tuple(self._quarantined)
        tables: Tables = tuple(zip(ssids, readers))
        if quarantined:
            tables = tuple(sorted(
                [*tables, *((q.ssid, None) for q in quarantined)],
                key=itemgetter(0), reverse=True))
        flushing = self.flushing
        annotate_publish(self, "db.view")
        self._view = _ReadView(
            self.local_mt, tuple(imm for imm, _ in reversed(flushing)),
            flushing[0][1] if flushing else _NEVER, tables, quarantined,
            self._next_ssid)

    def _current_view(self, now: float) -> _ReadView:
        """The published view, first retiring the flushes complete by
        ``now`` (the one db.state a reader takes, once per flush)."""
        annotate_observe(self, "db.view")
        view = self._view
        if view.retire_at <= now:
            with self._lock:
                self._retire_flushed(now)
                view = self._view
        return view

    # -------------------------------------------------- scan snapshot pins
    def _pin_view(self, now: float) -> Tuple[_ReadView, List[int]]:
        """The read view current at ``now`` with its tables pinned for a
        scan, and their SSIDs — no db.state, no device lock.

        Pinned, then checked still current: a compaction publishes the
        view without its inputs *before* its retire looks at the pins,
        so a view that held across the pin had its tables pinned before
        any unlink of theirs was decided; one that did not is unpinned
        and the next is tried.
        """
        while True:
            view = self._current_view(now)
            ssids = [ssid for ssid, reader in view.tables
                     if reader is not None]
            self._pin_scan_tables(ssids)
            if self._view is view:
                return view, ssids
            self._unpin_scan_tables(ssids)

    def _pin_scan_tables(self, ssids: List[int]) -> None:
        """Pin a scan's tables (:meth:`_pin_view`).

        While pinned, compaction may retire a table from the search
        order but must not unlink its files — the open iterator still
        reads them.
        """
        if not ssids:
            return
        with self._scan_lock:
            for s in ssids:
                self._scan_pins[s] = self._scan_pins.get(s, 0) + 1

    def _unpin_scan_tables(self, ssids: List[int]) -> None:
        """Release one scan's pins; run the unlinks compaction deferred."""
        due: List[str] = []
        with self._scan_lock:
            for s in ssids:
                n = self._scan_pins.get(s, 0) - 1
                if n > 0:
                    self._scan_pins[s] = n
                else:
                    self._scan_pins.pop(s, None)
                    due.extend(self._deferred_unlinks.pop(s, ()))
        if due:

            def unlink_job(start: float) -> float:
                return self.store.delete_many(due, start)

            self.compaction_worker.schedule(self.clock.now, unlink_job)

    def _retire_table_files(self, by_ssid: Dict[int, List[str]],
                            start: float) -> float:
        """Unlink retired tables' files, deferring any a scan has pinned.

        Compaction's delete stage routes through here: unpinned inputs
        go in one batched unlink commit, pinned ones park their paths
        in ``_deferred_unlinks`` until the last reading scan closes.
        """
        paths: List[str] = []
        with self._scan_lock:
            for s, ps in by_ssid.items():
                if self._scan_pins.get(s, 0) > 0:
                    self._deferred_unlinks.setdefault(s, []).extend(ps)
                else:
                    paths.extend(ps)
        if not paths:
            return start
        return self.store.delete_many(paths, start)

    def _schedule_compaction(self, t_enqueue: float) -> None:
        """Compact this rank's SSTable set into one table (§2.5).

        The output table takes a *fresh* SSID (never reuses an input's):
        group peers cache readers keyed by SSID, and a rewritten file
        under an old SSID would pair their cached index with new data
        silently.  A fresh SSID makes staleness detectable — deleted
        inputs raise StorageError and the changed newest-SSID
        invalidates peer caches.

        The merge is incremental: a *minor* pass merges only the L0
        delta tables flushed since the last trigger (old data stays put
        — tombstones kept), and every ``COMPACTION_MAJOR_EVERY``-th pass
        is a *major* merge of the whole set that drops tombstones; a
        major whose merge comes out empty writes no table.  The round is
        one job on the compaction worker — read and merge, build, one
        device commit, one batched unlink — under a duty-cycle rate
        limit, so compaction never monopolizes the device while
        foreground puts are stalled on the flush queue.
        """
        major = (
            self._minor_gens + 1 >= COMPACTION_MAJOR_EVERY
            or len(self._l0) == 0
        )
        live = set(self.ssids)
        if major:
            inputs = [s for s in self.ssids]
        else:
            inputs = [s for s in self._l0 if s in live]
        if len(inputs) <= 1:
            # nothing worth merging this round; count the generation so
            # a future major still comes due
            self._l0 = [s for s in self._l0 if s in live and s not in inputs]
            self._minor_gens = 0 if major else self._minor_gens + 1
            return

        # an input's sync stage may still be in flight on the virtual
        # timeline: gate the read behind it
        t_read = max(t_enqueue, self.flush_sync_worker.available)
        t_round0 = max(t_read, self.compaction_worker.available)
        new_ssids: List[int] = []

        def round_job(start: float) -> float:
            merged, readers, t = read_and_merge(
                self.store, self.rank_dir, inputs, start,
                drop_tombstones=major,
            )
            self._trace(
                f"compact-read {len(inputs)} tables", "compaction", start, t
            )
            if merged:
                ssid = self._next_ssid
                self._next_ssid += 1
                new_ssids.append(ssid)
                blobs, built = self._build_table(merged, t)
                self._trace(
                    f"compact-build ssid={ssid}", "compaction", t, built
                )
                _, t = write_sstable_blobs(
                    self.store, self.rank_dir, ssid, blobs, built
                )
                self._trace(
                    f"compact-sync ssid={ssid}", "compaction", built, t
                )
            # install the output before the inputs' unlink: a scan that
            # pinned them under the old view has its pins seen by the
            # retire, and one pinning later finds the view changed
            annotate_write(self, "db.ssids")
            consumed = set(inputs)
            self.ssids = [s for s in self.ssids
                          if s not in consumed] + new_ssids
            self._invalidate_readers(*inputs)
            # retire the inputs with one batched unlink commit; inputs an
            # open scan has pinned defer their unlink to its close instead
            return self._retire_table_files(
                {rd.ssid: list(rd.file_paths()) for rd in readers}, t
            )

        end = self.compaction_worker.schedule(t_read, round_job)
        self._pace_compaction(t_round0, end)
        self._l0 = []
        self._minor_gens = 0 if major else self._minor_gens + 1
        self.stats.compactions += 1
        if major:
            self.stats.compaction_majors += 1

    def _pace_compaction(self, start: float, end: float) -> None:
        """Rate-limit the compaction worker to its duty cycle.

        After a compaction round occupying ``[start, end]`` the worker
        idles long enough that busy/(busy+idle) ==
        ``COMPACTION_DUTY_CYCLE``, leaving device headroom for
        foreground flushes.  Paced once per *round*, not per job: the
        round's device charges stay packed at the current device horizon
        (a later flush sync queues behind one bounded transfer), and the
        idle gap only delays when the next round may start.
        """
        if end <= start:
            return
        duty = COMPACTION_DUTY_CYCLE
        self.compaction_worker.idle_until(
            end + (end - start) * (1.0 - duty) / duty
        )

    # ------------------------------------------------------ remote put paths
    def _swap_remote_mt(self) -> MemTable:
        """Freeze and replace the remote MemTable (call under the lock)."""
        imm = self.remote_mt.freeze()
        self.remote_mt = MemTable(self.options.remote_memtable_capacity)
        return imm

    def _send_pairs(
        self, groups: Dict[int, List[msg.Pair]], sync: bool = False,
        post: Optional[Callable[[Dict[int, msg.PairsMsg]], Any]] = None,
    ) -> Dict[int, int]:
        """Ship ``{target: pairs}``, one :class:`~repro.core.messages.
        PairsMsg` per target; returns ``{target: seq}``.

        Every message is entered in the ledger under a fresh seq before
        it leaves, so its pairs stay visible to this rank's gets (the
        ``inflight`` tier) and resendable until acked.  ``post(payloads)``
        puts the messages on the wire: one ``send`` per target unless
        the caller has a cheaper way (migration posts from the
        dispatcher's timeline, a sequential put with one ``fanout``).

        A ``sync`` send blocks until every target has acked or been
        declared dead, and leaves nothing in the ledger even when it
        raises — no later fence may wait for an ack that travels on the
        rsp comm.
        """
        seqs: Dict[int, int] = {}
        with self._lock:
            for target in sorted(groups):
                seq = seqs[target] = self._next_seq
                self._next_seq += self.nranks  # keep seqs rank-unique
                self._unacked[seq] = _Unacked(
                    target, {pair[0]: pair for pair in groups[target]}, sync
                )
        payloads = {target: self._carrier(seq)
                    for target, seq in seqs.items()}
        if post is not None:
            post(payloads)
        else:
            for target, payload in payloads.items():
                self.srv_comm.send(payload, target, tag=0)
        if sync:
            try:
                for seq in seqs.values():
                    self._drain_acks(blocking=True, sync_seq=seq)
            finally:
                for seq in seqs.values():
                    self._settle(seq)
        return seqs

    def _carrier(self, seq: int) -> msg.PairsMsg:
        """The message of ledger entry ``seq``, stamped with the
        ``(epoch, dead)`` view current *now* — first send and resend
        alike, so a fan-out that stalled across a death is not rejected
        for the stamp it first left with."""
        entry = self._unacked[seq]
        mv = self.membership
        epoch, dead = mv.wire() if mv is not None else (0, ())
        return msg.PairsMsg(list(entry.pairs.values()), seq, epoch, dead,
                            entry.sync)

    def _settle(self, seq: int) -> Optional[_Unacked]:
        """Take a send out of the ledger: acked, rejected, or its target
        is dead.  Returns the entry, ``None`` if already settled."""
        with self._lock:
            return self._unacked.pop(seq, None)

    def _migrate(self, imm: MemTable) -> None:
        """Ship an immutable remote MemTable to the owner ranks (§2.4).

        The dispatcher sorts pairs by owner, accumulates per-rank chunks,
        and sends one request message per owner; its time lands on the
        dispatcher's background timeline.
        """
        if len(imm) == 0:
            return
        groups = imm.by_owner()
        # migration-queue back-pressure: bound unacked chunks in flight
        cap = MIGRATION_QUEUE_CAPACITY * max(1, len(groups))
        while len(self._unacked) >= cap:
            self._drain_acks(blocking=True, at_most=1)
        cpu = self.ctx.system.cpu
        sort_cost = cpu.kv_op_s * max(1, len(imm))

        def post(payloads: Dict[int, msg.PairsMsg]) -> None:
            def job(start: float) -> float:
                t = start + sort_cost
                for owner, payload in payloads.items():
                    self.srv_comm.send_at(payload, owner, tag=0, t_send=t)
                    t += self.ctx.system.network.sw_overhead_s
                self._trace(
                    f"migrate {len(payloads)} chunks", "dispatcher", start, t
                )
                return t

            self.dispatcher_worker.schedule(self.clock.now, job)

        self.stats.migrations += len(self._send_pairs(groups, post=post))

    def _drain_acks(self, blocking: bool, at_most: Optional[int] = None,
                    sync_seq: Optional[int] = None) -> None:
        """Consume acks, settling their ledger entries.  Blocking mode
        waits until the ledger is empty — or, given ``sync_seq``, until
        that one blocking send is settled (the only kind of ack that
        travels on the rsp comm).

        With ``Options.remote_timeout`` set, a blocking drain that stalls
        resends what it waits for (:meth:`_retransmit`) up to
        ``remote_retries`` times before raising
        :class:`RemoteTimeoutError` — except under replication, where a
        target still silent after the retry budget is **declared dead**
        instead (the declaration settles its entries) so neither a fence
        nor a re-replication push ever wedges on a killed rank.
        """
        timeout = self.options.remote_timeout
        if sync_seq is not None and timeout is None and self._replication_on:
            timeout = 0.25  # a push must notice a second death mid-pass
        rounds = drained = 0
        while (self._unacked if sync_seq is None
               else sync_seq in self._unacked):
            if at_most is not None and drained >= at_most:
                return
            if not blocking and not self.ack_comm.iprobe(ANY_SOURCE, ACK_TAG):
                return
            try:
                if sync_seq is None:
                    ack = self.ack_comm.recv(ANY_SOURCE, ACK_TAG,
                                             timeout=timeout)
                else:
                    ack = self.rsp_comm.recv(self._unacked[sync_seq].target,
                                             sync_seq, timeout=timeout)
            except TimeoutError:
                rounds = self._retransmit(rounds, timeout, sync_seq)
                continue
            self._absorb_ack(ack)
            drained += 1

    def _retransmit(self, rounds: int, timeout: float,
                    sync_seq: Optional[int]) -> int:
        """One rung of a stalled drain's ladder; returns the new round
        count.

        Resends every awaited message from the ledger under its old seq
        (the handler's seq dedup makes the replay idempotent) after
        backing off exponentially on the virtual clock; the wall-clock
        wait already happened inside the timed-out receive.
        """
        self.stats.remote_timeouts += 1
        with self._lock:
            waiting = dict(self._unacked) if sync_seq is None \
                else {sync_seq: self._unacked[sync_seq]}
        if rounds >= self.options.remote_retries:
            if not self._replication_on:
                raise RemoteTimeoutError(
                    f"{len(waiting)} ack(s) missing after {rounds + 1} "
                    f"round(s) of {timeout}s"
                ) from None
            for r in sorted({entry.target for entry in waiting.values()}):
                self._declare_dead(r)
            return 0
        self.stats.remote_retries += 1
        self.clock.advance(timeout * (2 ** rounds))
        for seq, entry in waiting.items():
            self.srv_comm.send(self._carrier(seq), entry.target, tag=0)
        return rounds + 1

    def _await_reply(self, owner: int, payload, seq: int):
        """Receive the reply to a request, retrying on timeout.

        With ``Options.remote_timeout`` unset (the default) this is a
        plain blocking receive.  Otherwise a lost request or reply is
        retried with exponential backoff — resending the *same* payload
        under the *same* seq, which the handler's sequence-number dedup
        makes idempotent — until the retry budget is exhausted and
        :class:`RemoteTimeoutError` is raised.
        """
        timeout = self.options.remote_timeout
        attempt = 0
        while True:
            try:
                return self.rsp_comm.recv(source=owner, tag=seq,
                                          timeout=timeout)
            except RemoteTimeoutError:
                raise
            except TimeoutError:
                self.stats.remote_timeouts += 1
                if attempt >= self.options.remote_retries:
                    raise RemoteTimeoutError(
                        f"rank {owner} did not answer seq {seq} after "
                        f"{attempt + 1} attempt(s) of {timeout}s"
                    ) from None
                attempt += 1
                self.stats.remote_retries += 1
                # backoff on the virtual timeline; the wall-clock wait
                # already happened inside the timed-out recv
                self.clock.advance(timeout * (2 ** (attempt - 1)))
                self.srv_comm.send(payload, owner, tag=0)

    def _already_applied(self, source: int, seq: int) -> bool:
        """Handler-side: has this (source, seq) mutation been applied?

        Records the seq as applied when first seen.  Only the handler
        thread touches the per-source windows, so no lock is needed.
        """
        window = self._seq_dedup.get(source)
        if window is None:
            window = self._seq_dedup[source] = _SeqWindow()
        return window.check_and_add(seq)

    def _put_sync(self, groups: Dict[int, List[msg.Pair]]) -> int:
        """Sequential mode: migrate synchronously, one round per owner
        (§3.1).  Returns the number of messages sent."""
        return len(self._send_pairs(groups, sync=True,
                                    post=self.srv_comm.fanout))

    # ============================================================ REPLICATION
    @property
    def _replication_on(self) -> bool:
        """True when this database runs with ``Options(replicas > 1)``."""
        return self.membership is not None

    def _maybe_kill(self) -> None:
        """Fault plane: die here if the plan kills this rank at this op."""
        if self._killed:
            raise RankKilledError(f"rank {self.rank} killed by fault plan")
        plan = self.ctx.faults
        if plan is not None and plan.check_kill(self.rank):
            self._die()

    def _die(self) -> None:
        """Kill this rank: mark its mailboxes dead (the handler's
        blocking receive raises out) and unwind the application with
        :class:`RankKilledError`.  In-flight messages to and from this
        rank are dropped by the world from here on."""
        self._killed = True
        self._closed = True
        self.srv_comm.kill_world_rank(self.rank)
        raise RankKilledError(f"rank {self.rank} killed by fault plan")

    def _replica_group(self, key: bytes, check: bool = True) -> List[int]:
        """The key's replica group: the hash owner's row of the
        membership view's group table.

        The view walks rank ``owner_of(key)`` and its successors once
        per epoch, skipping dead ranks, until ``replicas`` live members
        are collected; the first member is the **acting primary** (after
        any single death this is always a pre-death group member, since
        the ring only shifts).  The list is shared by every caller until
        the next epoch: never mutate it.  With ``check`` the group must
        still satisfy the write quorum, or :class:`QuorumLostError` is
        raised.
        """
        mv = self.membership
        home = self.owner_of(key)
        if mv is None:
            return [home]
        group = mv.snapshot.groups[home]
        if check and len(group) < self.options.write_quorum:
            raise QuorumLostError(
                f"only {len(group)} live replica(s) for key {key!r}; "
                f"write quorum is {self.options.write_quorum}"
            )
        return group

    def _acting_owner(self, key: bytes) -> int:
        """The rank currently answering for ``key`` (group head)."""
        if not self._replication_on:
            return self.owner_of(key)
        group = self._replica_group(key, check=False)
        return group[0] if group else self.owner_of(key)

    def _is_acting_primary(self, key: bytes) -> bool:
        """Whether this rank is the key's current acting primary."""
        return self._acting_owner(key) == self.rank

    def _stage(self, pairs: List[msg.Pair]) -> None:
        """Place replicated pairs in the open commit window: inserted
        locally where this rank is a member of the key's group, staged
        for the other members until the window closes.

        Every group is resolved before anything is written, so a lost
        quorum raises with no pair half-placed.  A key rewritten inside
        the window travels once, with its last value.
        """
        mine = [pair for pair in pairs
                if self.rank in self._replica_group(pair[0])]
        if not self._staged:
            self._staged_epoch = self.membership.epoch
        self.stats.local_puts += len(mine)
        self.stats.remote_puts += len(pairs) - len(mine)
        self._local_insert(mine, self.clock)
        self._staged.update((pair[0], pair) for pair in pairs)

    def _ship_window(self) -> None:
        """Put the staged window on the wire: one ``PairsMsg`` per
        target (:meth:`_send_pairs`), one quorum debt per distinct
        group.

        Groups are resolved here, against the view current *now* — a
        death that landed while the window was open re-places the pairs
        instead of shipping them to a stale group (and inserts them
        locally where the ring shift made this rank a member).  ``seqs``
        of a debt are the sends that carry the group's pairs, ``need``
        how many of their acks the quorum still requires after counting
        a local insert.
        """
        if not self._staged:
            return
        staged, self._staged = self._staged, {}
        moved = self.membership.epoch != self._staged_epoch
        fan: Dict[int, List[msg.Pair]] = {}
        groups: Set[Tuple[int, ...]] = set()
        joined: List[msg.Pair] = []
        for pair in staged.values():
            group = self._replica_group(pair[0], check=False)
            groups.add(tuple(group))
            for r in group:
                if r != self.rank:
                    fan.setdefault(r, []).append(pair)
                elif moved:
                    joined.append(pair)
        self._local_insert(joined, self.clock)
        seq_of = self._send_pairs(fan)
        self.stats.replica_msgs += len(fan)
        self.stats.replica_pairs += sum(map(len, fan.values()))
        quorum = self.options.write_quorum
        for group in groups:
            seqs = [seq_of[r] for r in group if r != self.rank]
            need = quorum - (self.rank in group)
            self._quorum_due.append((seqs, min(need, len(seqs))))

    def _close_window(self) -> None:
        """A commit-window boundary: ship the window that just closed,
        then settle the quorum debts of the one shipped before it — its
        members applied that batch while this rank filled the next, so
        the wait is short.  Sequential mode, where a window is one call
        and acknowledged on return, also settles the debts just booked.
        With nothing staged there is no boundary: the debts wait for
        the next one.

        A seq settles when its ack arrives, when a rejected batch was
        re-fanned under fresh seqs (the fence drains those), or when its
        target was declared dead (the membership change plus
        re-replication restore the copy count) — the latter two release
        the waiter so a death can never wedge an acknowledged put.
        """
        if not self._staged:
            return
        due, self._quorum_due = self._quorum_due, []
        self._ship_window()
        if self.consistency == config.SEQUENTIAL:
            due, self._quorum_due = due + self._quorum_due, []
        for seqs, need in due:
            while sum(s not in self._unacked for s in seqs) < need:
                self._drain_acks(blocking=True, at_most=1)

    def _absorb_ack(self, ack: msg.AckMsg) -> None:
        """Settle the send an ack answers; under replication also merge
        the replier's membership gossip and re-route a rejection.

        An ``applied=False`` ack means the receiver held our membership
        stamp stale: merge its newer view, then re-fan the rejected
        pairs to the *current* groups under fresh seqs.  Durability
        across the transition window is preserved because the re-fan
        reaches every live member and the fence drains the fresh seqs
        too.
        """
        entry = self._settle(ack.seq)
        mv = self.membership
        if mv is None:
            return
        mv.merge(ack.epoch, ack.dead)
        if entry is not None and not ack.applied:
            # what a later put staged is newer than what comes back
            self._stage([pair for key, pair in entry.pairs.items()
                         if key not in self._staged])
            self._ship_window()

    def _declare_dead(self, rank: int) -> None:
        """Declare a silent rank dead; release everything waiting on it.

        Idempotent — and the release also runs when the death is not
        news to the membership view (it may have arrived as gossip,
        which cleans up nothing).  The view queues the rank for
        re-replication, pushed by the next tick.
        """
        mv = self.membership
        if mv is None:
            return
        if mv.declare_dead(rank):
            self.stats.rank_deaths += 1
        self._forget_dead_rank(rank)

    def _forget_dead_rank(self, rank: int) -> None:
        """Drop every piece of main-thread state that waits on, or was
        cached from, a dead rank.  Idempotent.

        Settles every send still waiting on the dead rank (each
        replica-fanned pair still lives on the surviving group members,
        so no acknowledged write loses visibility) and drops any cached
        view of its SSTables.  Runs for deaths this rank declared and —
        from :meth:`_rereplicate` — for deaths it only learned through
        membership gossip (``MembershipView.merge``).
        """
        self._hb_ping.pop(rank, None)
        self._hb_last.pop(rank, None)
        with self._lock:
            for seq in [s for s, entry in self._unacked.items()
                        if entry.target == rank]:
                self._settle(seq)
        self._drop_peer_cache(rank)

    def _absorb_pong(self, pong: msg.AckMsg, source: int) -> None:
        """One heartbeat pong: proof of life plus membership gossip."""
        mv = self.membership
        if mv is None or mv.is_dead(source):
            return
        mv.merge(pong.epoch, pong.dead)
        mv.heard_from(source, self.clock.now)
        self._hb_ping.pop(source, None)

    def tick(self) -> None:
        """Run one failure-detector maintenance pass explicitly.

        The detector normally piggybacks on put/get traffic; an
        application that goes quiet (e.g. a pure consumer waiting for
        recovery to finish) can call this to keep heartbeats, death
        declarations and re-replication moving.
        """
        self._check_open()
        self._maybe_kill()
        # a poll is not free — and advancing the virtual clock is what
        # lets silence accumulate toward the detector's timeouts when
        # the application itself has gone quiet
        self.clock.advance(HEARTBEAT_INTERVAL)
        self._tick()

    def _tick(self) -> None:
        """Failure-detector maintenance (main thread, replication only).

        Runs opportunistically at the top of every put/get: absorb
        heartbeat pongs, ping peers silent for ``HEARTBEAT_INTERVAL``,
        mark ``SUSPECT_TIMEOUT`` silences suspected, and declare a peer
        dead only when its oldest unanswered ping exceeds the *virtual*
        ``DEAD_TIMEOUT`` AND it stays silent through a *wall-clock*
        grace receive — a live handler always pongs promptly in real
        time, so a live rank is never falsely declared (this is what
        makes kill tests deterministic).  Finishes by pushing any
        pending re-replication work.
        """
        mv = self.membership
        if mv is None or self._in_rerepl or self._killed:
            return
        now = self.clock.now
        if now - self._gc_t0 >= GROUP_COMMIT_INTERVAL:
            self._close_window()  # this rank stopped writing mid-window
        while self.ack_comm.iprobe(ANY_SOURCE, HB_TAG):
            status: dict = {}
            pong = self.ack_comm.recv(ANY_SOURCE, HB_TAG, status=status)
            self._absorb_pong(pong, status["source"])
        for r in mv.alive_ranks():
            if r == self.rank:
                continue
            silence = now - mv.last_heard(r)
            if silence < HEARTBEAT_INTERVAL:
                self._hb_ping.pop(r, None)
                continue
            if now - self._hb_last.get(r, -1.0) >= HEARTBEAT_INTERVAL:
                epoch, dead = mv.wire()
                self.srv_comm.send(
                    msg.HeartbeatMsg(epoch, dead, ping=True), r, tag=0
                )
                self.stats.heartbeats_sent += 1
                self._hb_last[r] = now
                self._hb_ping.setdefault(r, now)
            if silence >= SUSPECT_TIMEOUT:
                mv.suspect(r)
            if (silence >= DEAD_TIMEOUT
                    and now - self._hb_ping.get(r, now) >= DEAD_TIMEOUT):
                self._grace_then_declare(r)
        if mv.pending_rereplication:
            self._rereplicate()

    def _grace_then_declare(self, rank: int) -> None:
        """Last chance before a death declaration: wall-clock grace.

        The virtual timeouts have expired; now give the peer *real* time
        to answer — its handler thread runs concurrently and a live one
        pongs within microseconds of wall time.  Only a peer silent
        through the grace receive is declared dead.
        """
        grace = self.options.remote_timeout or 0.05
        while rank in self._hb_ping:
            try:
                status: dict = {}
                pong = self.ack_comm.recv(
                    ANY_SOURCE, HB_TAG, timeout=grace, status=status
                )
            except TimeoutError:
                break
            self._absorb_pong(pong, status["source"])
        if rank in self._hb_ping:
            self._declare_dead(rank)

    def _rereplicate(self) -> None:
        """Restore the replication factor after a death (main thread).

        For every key whose current group this rank heads (the acting
        primary always held the data before the death — the ring only
        shifts), push the pair to every other group member in chunked
        ``sync`` sends, each acked on the rsp comm before the next
        leaves.  Members that already hold a pair re-apply the same
        bytes (idempotent).  A member that dies mid-push is declared
        dead and re-queued for the next pass.

        The walk is a pinned :class:`ScanIterator` with tombstones kept
        (a dead rank's deleted keys must not resurrect on the new
        replica): a flush or compaction the handler triggers meanwhile
        cannot unlink a table under it.  Behind a quarantined table the
        scan refuses, nothing is pushed and the pass stays pending.
        """
        mv = self.membership
        if mv is None or self._in_rerepl:
            return
        self._in_rerepl = True
        try:
            newly_dead = mv.take_pending_rereplication()
            if not newly_dead:
                return
            for r in newly_dead:
                self._forget_dead_rank(r)
            targets: Dict[int, List[msg.Pair]] = {}
            try:
                with ScanIterator(self, include_replicas=True,
                                  tombstones=True) as walk:
                    for pair in walk:
                        group = self._replica_group(pair[0], check=False)
                        if not group or group[0] != self.rank:
                            continue
                        for r in group[1:]:
                            targets.setdefault(r, []).append(pair)
            except CorruptionError:
                # pushing around the hole could overwrite a healthy
                # member's newer version with an older one from here
                mv.put_back_rereplication(newly_dead)
                return
            for target in sorted(targets):
                pairs = targets[target]
                for i in range(0, len(pairs), 256):
                    part = pairs[i:i + 256]
                    self._send_pairs({target: part}, sync=True)
                    if mv.is_dead(target):
                        # a second death mid-push: the stalled send
                        # declared it, the next tick re-replicates
                        # around it
                        break
                    self.stats.rereplicated_pairs += len(part)
        finally:
            self._in_rerepl = False

    def _replicated_get(self, key: bytes) -> Optional[GetResult]:
        """One get under replication: staged tiers, then group members.

        A member of the key's group answers locally; otherwise the
        acting primary is asked, and a timeout declares it dead and
        re-routes.  After any death (``epoch > 0``) a *miss* is
        cross-checked against the remaining members before being
        believed — a freshly promoted member may not have received its
        re-replication push yet.  Deletes stay correct under that
        paranoia read: every member of the group applied the acked
        tombstone, so all of them answer "absent".

        Reads do **not** require the write quorum: any single live
        replica can serve a get, so ``check=False`` here — only a group
        with zero live members is unanswerable.
        """
        mv = self.membership
        assert mv is not None
        entry, tier = self._search_memory_remote(key)  # main-thread state
        if entry is not None:
            if entry.tombstone:
                return None
            return GetResult(entry.value, tier)
        for _attempt in range(self.nranks + 1):
            group = self._replica_group(key, check=False)
            if not group:
                break
            if self.rank in group:
                self.stats.local_gets += 1
                result = self._local_get([key])[key]
                if result is not None or mv.epoch == 0:
                    return result
                others = [r for r in group if r != self.rank]
            else:
                self.stats.remote_gets += 1
                primary = group[0]
                try:
                    result = self._remote_get({primary: [key]})[0].get(key)
                except RemoteTimeoutError:
                    self.stats.failover_gets += 1
                    self._declare_dead(primary)
                    continue
                if result is not None or mv.epoch == 0:
                    return result
                others = group[1:]
            for r in others:
                self.stats.failover_gets += 1
                try:
                    result = self._remote_get({r: [key]})[0].get(key)
                except RemoteTimeoutError:
                    self._declare_dead(r)
                    continue
                if result is not None:
                    return result
            return None
        raise QuorumLostError(f"no live replica answered for key {key!r}")

    # ==================================================================== GET
    def get(self, key: bytes) -> bytes:
        """Retrieve the value for ``key`` (``papyruskv_get``).

        Raises :class:`KeyNotFoundError` when absent or deleted.
        """
        return self.get_ex(key).value

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        """Like :meth:`get` but returns None instead of raising."""
        (result,) = self._read([key], "get")
        return None if result is None else result.value

    def get_ex(self, key: bytes) -> GetResult:
        """Like :meth:`get` but reports which tier satisfied the lookup."""
        (result,) = self._read([key], "get")
        if result is None:
            raise KeyNotFoundError(key)
        return result

    def get_bulk(self, keys) -> List[Optional[bytes]]:
        """Fetch many keys; values come back in caller order (None=absent).

        Duplicate keys resolve with a single lookup, and remote keys
        cost one :class:`~repro.core.messages.GetMsg` per owner — all
        scattered before any reply is awaited.
        """
        return [
            None if r is None else r.value
            for r in self._read(keys, "get_bulk")
        ]

    def _read(self, keys, kind: str) -> List[Optional[GetResult]]:
        """The tiered get resolver: every get runs this.

        Keys are validated and normalised here, once; a point call is a
        batch of one.  Distinct keys are partitioned by owner in one
        pass: local keys walk memory → local cache → own SSTables
        (:meth:`_local_get`), remote keys walk staged/inflight → remote
        cache → the owner's tables, read by this rank where it may, or
        one ``GetMsg`` per owner (:meth:`_remote_get`).  Results come back
        in caller order, ``None`` for absent or deleted keys; ``kind``
        labels the latency sample.
        """
        if self._closed or self._killed or self.ctx.faults is not None:
            self._check_open()
            self._maybe_kill()
        index_of: Dict[bytes, List[int]] = {}
        total = nbytes = 0
        for key in keys:
            if type(key) is not bytes or not key:
                self._validate_kv(key, None)
                key = bytes(key)
            slots = index_of.get(key)
            if slots is None:
                index_of[key] = [total]
                nbytes += len(key)
            else:  # a duplicate resolves with the first one's lookup
                slots.append(total)
            total += 1
        if self.protection == config.WRONLY:
            raise ProtectionError("database is write-only (PAPYRUSKV_WRONLY)")
        if not index_of:
            return []
        clock = self.ctx.clock
        t_start = clock.now
        n = len(index_of)
        # per-key CPU work; the per-call dispatch overhead (DRAM round
        # trip) is paid once however many keys the call carries
        cpu = self.ctx.system.cpu
        clock.advance(
            cpu.kv_op_s * n + cpu.dram_latency_s + nbytes / self._memcpy_Bps
        )
        if self._unacked:
            self._drain_acks(blocking=False)
        self.stats.gets += n
        owner_msgs = 0
        found: Dict[bytes, Optional[GetResult]] = {}
        if self.membership is not None:
            # group routing (and its paranoia read after a death) is
            # per key: it cannot be expressed as one GetMsg per hash owner
            self._tick()
            for key in index_of:
                found[key] = self._replicated_get(key)
        else:
            local: List[bytes] = []
            remote: Dict[int, List[bytes]] = {}
            key_hash, nranks, me = self._key_hash, self.nranks, self.rank
            for key in index_of:
                owner = key_hash(key) % nranks
                if owner == me:
                    local.append(key)
                else:
                    remote.setdefault(owner, []).append(key)
            self.stats.local_gets += len(local)
            self.stats.remote_gets += n - len(local)
            if local:
                found = self._local_get(local)
            if remote:
                got, owner_msgs = self._remote_get(remote)
                found.update(got)
        self._account(kind, t_start, n, owner_msgs)
        results: List[Optional[GetResult]] = [None] * total
        for key, result in found.items():
            if result is not None:
                self.stats.hit(result.tier)
                for i in index_of[key]:
                    results[i] = result
        return results

    # ---------------------------------------------------------- local lookup
    @staticmethod
    def _in_memory(view: _ReadView,
                   key: bytes) -> Tuple[Optional[Entry], str]:
        """The live MemTable, then the flushing ones newest-first
        (Fig. 3), of ``view``: ``(entry, tier)``, ``(None, "")`` if no
        MemTable holds ``key``."""
        entry = view.live.get(key)
        if entry is not None:
            return entry, "local_mt"
        for imm in view.flushing:
            entry = imm.get(key)
            if entry is not None:
                return entry, "flushing"
        return None, ""

    def _local_get(self, keys: List[bytes]
                   ) -> Dict[bytes, Optional[GetResult]]:
        """Local tier walk (§2.6, Fig. 3): the memory phase once for the
        call, the SSTable phase per key it left over.  The handler runs
        the same two phases on a remote rank's behalf (§2.4)."""
        clock = self.clock
        hits, misses, view = self._memory_phase(keys, clock.now)
        out: Dict[bytes, Optional[GetResult]] = {
            key: None if tomb else GetResult(value, tier)
            for key, (value, tomb, tier) in hits.items()
        }
        for key in misses:
            rec = self._sstable_phase(key, view, clock)
            out[key] = (None if rec is None or rec.tombstone
                        else GetResult(rec.value, "sstable"))
        return out

    def _memory_phase(self, keys: List[bytes], now: float) -> Tuple[
            Dict[bytes, Tuple[bytes, bool, str]], List[bytes], _ReadView]:
        """Memory tiers, then the local cache, in the view current at
        ``now`` — no db.state unless a flush is due to retire.  Returns
        ``(hits, misses, view)``: ``hits[key] = (value, tombstone,
        tier)``, and the view for the SSTable phase or a §2.7
        requester."""
        view = self._current_view(now)
        cache = self.local_cache  # gets never run under WRONLY
        hits: Dict[bytes, Tuple[bytes, bool, str]] = {}
        misses: List[bytes] = []
        for key in keys:
            entry, tier = self._in_memory(view, key)
            if entry is not None:
                hits[key] = (entry.value, entry.tombstone, tier)
                continue
            if cache is not None:
                with self._cache_lock:
                    cached = cache.get(key)
                if cached is not None:
                    hits[key] = (cached, False, "local_cache")
                    continue
            misses.append(key)
        return hits, misses, view

    def _sstable_phase(self, key: bytes, view: _ReadView,
                       clock) -> Optional[Record]:
        """Search my own SSTables on the caller's clock, retrying once
        across a compaction race; a live hit fills the local cache.

        A concurrent compaction (a flush triggered on the other thread)
        may delete input tables mid-search; the retry drops my readers
        and walks the view that publishes.  Damage is not a race:
        :class:`CorruptionError` goes straight to the caller.
        """
        try:
            rec, t_end = self._search_own_sstables(view, key, clock.now)
        except CorruptionError:
            raise
        except StorageError:
            self._invalidate_readers()
            rec, t_end = self._search_own_sstables(
                self._view, key, clock.now)
        clock.advance_to(t_end)
        if rec is not None and not rec.tombstone:
            self._fill_local_cache(key, rec.value, view.horizon)
        return rec

    def _fill_local_cache(self, key: bytes, value: bytes,
                          horizon: int) -> None:
        """Cache an SSTable hit — unless the key may have been rewritten
        since the lookup's view (``horizon`` = its ``_next_ssid``).

        The walk ran outside db.state, so the other thread (handler
        applying a migration / rank-main put) may have inserted a newer
        version, whose insert already evicted the cache entry this fill
        would resurrect.  A newer version is either still in a memory
        tier or went out in a table allocated after the view — checked
        in the view current under db.state, which is the state itself.
        """
        cache = self.local_cache
        if cache is None:
            return
        with self._lock:
            view = self._view
            if (view.horizon == horizon
                    and self._in_memory(view, key)[0] is None):
                with self._cache_lock:
                    cache.put(key, value)

    def _reader(self, ssid: int) -> SSTableReader:
        """The device's reader of one of my SSTables: the very object a
        storage-group peer's :meth:`_peer_reader` resolves to."""
        return self.block_cache.reader(self.store, self.rank_dir, ssid)

    def _peer_reader(self, owner_dir: str, ssid: int) -> SSTableReader:
        """The device's reader of one of a storage-group peer's tables:
        the one the owner itself searches with.  Peer tables are
        immutable and compaction never reuses an input SSID, so a reader
        stays valid until the file disappears — which surfaces as
        StorageError — or the owner rebuilds the table in place, which
        bumps the device's invalidation generation."""
        return self.block_cache.reader(self.store, owner_dir, ssid)

    def _drop_peer_cache(self, owner: int) -> None:
        """Forget my view of one owner's tables (a walk that raced its
        compaction, its death).  The readers and blocks are the
        device's: hot for the whole node, the owner's to invalidate."""
        self._peer_views.pop(owner, None)

    def _invalidate_readers(self, *ssids: int) -> None:
        """Drop the named tables of mine (none named: all) from the
        device's read cache — reader and blocks, for every rank on it,
        in one call — and publish a view with fresh readers.
        Quarantine, compaction, scrub repair and checkpoint restore all
        pass here, so a replaced table never serves stale cached
        bytes."""
        with self._lock:
            if not ssids:
                self.block_cache.invalidate_dir(
                    self.rank_dir, self.cache_counts)
            for ssid in ssids:
                self.block_cache.invalidate_table(
                    self.rank_dir, ssid, self.cache_counts)
            self._publish()

    def _ssids_snapshot(self) -> List[int]:
        """A consistent copy of my SSID list (for unlocked walks)."""
        with self._lock:
            annotate_read(self, "db.ssids")
            return list(self.ssids)

    def _search_own_sstables(
        self, view: _ReadView, key: bytes, t: float
    ) -> Tuple[Optional[Record], float]:
        """Gate-walk my own tables in ``view`` (rank-main gets and the
        handler), its quarantined tables as poisoned holes."""
        return self._search_sstables(view.tables, view.quarantined, key, t)

    def _search_sstables(
        self,
        tables: Tables,
        quarantined: Tuple[QuarantinedTable, ...],
        key: bytes,
        t: float,
    ) -> Tuple[Optional[Record], float]:
        """The point-get gate walk (§2.6 + the footer fences).

        ``tables`` is ``(ssid, reader)`` newest first: my own view's, or
        the ones :meth:`_handshake_view` resolved for a peer's walk.

        Per table the gate order is: quarantine poison-range check,
        footer ``[min_key, max_key]`` fences (free after the first index
        load), then the bloom filter.  The quarantine check runs *first*
        — a pruned or bloom-skipped walk must never mask the fact that
        the newest version of the key may have lived in a damaged table.

        Quarantined tables participate in the walk as *poisoned holes*
        (a ``None`` reader): if no newer table answered by the time the
        walk reaches one whose range may cover the key, the true newest
        version might have lived there — raising beats silently serving
        older data.
        """
        stats = self.stats
        bloom = self.options.bloom_enabled
        for ssid, reader in tables:
            if reader is None:
                quar = next(q for q in quarantined if q.ssid == ssid)
                if quar.may_cover(key):
                    raise CorruptionError(
                        f"key range degraded: sstable {ssid} is quarantined "
                        f"({quar.reason})"
                    )
                continue
            (mn, mx), t = reader.key_range(t)
            # an empty table has fences (b"", b"") and valid keys are
            # non-empty, so `not mx` prunes it for any key
            if not mx or key < mn or key > mx:
                stats.fence_skips += 1
                continue
            if bloom:
                hit, t = reader.may_contain(key, t)
                if not hit:
                    stats.bloom_skips += 1
                    continue
            rec, t = reader.get(
                key, t, binary_search=self.binary_search, use_bloom=False,
                sink=self.cache_counts,
            )
            if rec is not None:
                return rec, t
        return None, t

    # --------------------------------------------------------- remote lookup
    def _search_memory_remote(self, key: bytes) -> Tuple[Optional[Entry], str]:
        """Remote MemTable, then sent-but-unacked pairs newest-first."""
        entry = self.remote_mt.get(key)
        if entry is not None:
            return entry, "remote_mt"
        pair = self._staged.get(key)
        if pair is None:
            for unacked in reversed(self._unacked.values()):
                pair = unacked.pairs.get(key)
                if pair is not None:
                    break
        if pair is not None:
            return Entry(pair[1], pair[2]), "inflight"
        return None, ""

    def _remote_get(self, groups: Dict[int, List[bytes]]
                    ) -> Tuple[Dict[bytes, Optional[GetResult]], int]:
        """Remote tier walk for ``{owner: keys}``.

        Staged/unacked tiers and the remote cache first.  What is left
        goes to the owner's handler, one ``GetMsg`` per owner (§2.4); a
        storage-group peer told ``NOT_IN_MEMORY`` reads the owner's
        tables itself (§2.7) and takes no value bytes off the wire.  The
        loop is the stale-view ladder, spelled once: a walk that races
        the owner's compaction drops the view, the re-asked ``GetMsg``
        refreshes it and the walk retries once, the third round forces
        value bytes over the network.  Returns the results (absent keys
        may be missing) and the messages sent.
        """
        out: Dict[bytes, Optional[GetResult]] = {}
        need: Dict[int, List[bytes]] = {}
        cache = (self.remote_cache
                 if self.protection == config.RDONLY else None)

        def resolve(key: bytes, value: bytes, tier: str) -> None:
            out[key] = GetResult(value, tier)
            if cache is not None:
                cache.put(key, value)

        # the staged/unacked tiers and the remote cache are main-thread
        # state: read without a lock
        for owner, keys in groups.items():
            for key in keys:
                entry, tier = self._search_memory_remote(key)
                if entry is not None:
                    out[key] = (None if entry.tombstone
                                else GetResult(entry.value, tier))
                    continue
                cached = cache.get(key) if cache is not None else None
                if cached is not None:
                    out[key] = GetResult(cached, "remote_cache")
                else:
                    need.setdefault(owner, []).append(key)
        msgs = 0
        for attempt in range(3):
            if not need:
                break
            replies = self._request_get(need, force=attempt == 2)
            msgs += len(replies)
            retry: Dict[int, List[bytes]] = {}
            for owner, reply in replies.items():
                unread: List[bytes] = []
                for key, (status, value, tombstone) in zip(
                    need[owner], reply.results
                ):
                    if status == msg.FOUND:
                        if tombstone:
                            out[key] = None
                        else:
                            resolve(key, value or b"", "remote")
                    elif status == msg.NOT_FOUND:
                        out[key] = None
                    elif status == msg.DEGRADED:
                        raise CorruptionError(
                            f"owner rank {owner} has quarantined the "
                            f"range covering key {key!r}"
                        )
                    else:  # NOT_IN_MEMORY: read the shared SSTables myself
                        unread.append(key)
                if not unread:
                    continue
                recs = self._peer_walk(
                    owner, self._handshake_view(owner, reply), unread)
                for key, rec in zip(unread, recs):
                    if rec is None or rec.tombstone:
                        out[key] = None
                    else:
                        resolve(key, rec.value, "shared_sstable")
                if len(recs) < len(unread):
                    retry[owner] = unread[len(recs):]
            need = retry
        return out, msgs

    def _request_get(self, groups: Dict[int, List[bytes]], force: bool
                     ) -> Dict[int, msg.GetReply]:
        """Ask each owner's handler for its share of ``groups``: one
        GetMsg per owner, all scattered before any reply is awaited, so
        the owners' handlers service them in parallel.  One owner is
        one ``send`` — the fan-out of one, at the same charge."""
        payloads = {}
        for owner in sorted(groups):
            payloads[owner] = msg.GetMsg(groups[owner], self.group,
                                         self._next_seq, force_data=force)
            self._next_seq += self.nranks
        if len(payloads) == 1:
            ((owner, payload),) = payloads.items()
            self.srv_comm.send(payload, owner, tag=0)
        else:
            self.srv_comm.fanout(payloads, tag=0)
        return {
            owner: self._await_reply(owner, payload, payload.seq)
            for owner, payload in payloads.items()
        }

    # ================================================ STORAGE-GROUP READS
    def _peer_walk(self, owner: int, view: _PeerView,
                   keys: List[bytes]) -> List[Optional[Record]]:
        """Gate-walk ``owner``'s tables under ``view`` for each of
        ``keys`` — the one read of another rank's SSTables.

        Peer lookups get the same fence pruning, bloom gating and
        readers (the device's, on its block cache) as the owner's own,
        resolved once per view (:meth:`_handshake_view`).  The owner
        answers ``NOT_IN_MEMORY`` only while its quarantine list
        is empty, so the walk has no holes to honour.  Returns the
        records in key order (``None``: no table holds the key) — fewer
        than ``keys`` after a file compaction deleted under the walk or
        a bad block CRC: the view is dropped (:meth:`_drop_peer_cache`)
        and the owner judges.
        """
        recs: List[Optional[Record]] = []
        clock = self.clock
        try:
            for key in keys:
                rec, t_end = self._search_sstables(
                    view.tables, (), key, clock.now)
                clock.advance_to(t_end)
                recs.append(rec)
        except StorageError:
            self._drop_peer_cache(owner)
        return recs

    def _handshake_view(self, owner: int,
                        reply: msg.GetReply) -> _PeerView:
        """The view a ``NOT_IN_MEMORY`` reply lets me read under (§2.7).

        The reply names the owner's newest table; a cached view with
        another one (or none) is replaced by a fresh directory listing —
        the device's readers of tables still live stay cached, the files
        are immutable.  A view the device has invalidated a reader under
        since keeps its listing and resolves its readers again.
        """
        view = self._peer_views.get(owner)
        listed = view is not None and (
            view.ssids[-1] if view.ssids else 0) == reply.newest_ssid
        if listed and view.generation == self.block_cache.generation:
            return view
        view = self._peer_view(
            reply.owner_dir, view.ssids if listed else
            tuple(list_ssids(self.store, reply.owner_dir)))
        self._peer_views[owner] = view
        return view

    def _peer_view(self, owner_dir: str,
                   ssids: Tuple[int, ...]) -> _PeerView:
        """A view of a peer's tables ``ssids`` (ascending) with their
        readers resolved once, under the device's current generation."""
        generation = self.block_cache.generation
        newest_first = ssids[::-1]
        readers = self.block_cache.readers(
            self.store, owner_dir, list(newest_first))
        return _PeerView(owner_dir, ssids,
                         tuple(zip(newest_first, readers)), generation)

    def shares_storage_with(self, other_rank: int) -> bool:
        """True when ``other_rank`` can read this rank's SSTable files."""
        return other_rank in self._storage_peers

    # ==================================================== CONSISTENCY CONTROL
    def fence(self) -> None:
        """Migrate the remote MemTable immediately (``papyruskv_fence``).

        Under replication the fence additionally settles every deferred
        write-quorum debt: once it returns, all fanned-out replica puts
        are durably logged on every live group member.
        """
        self._check_open()
        with self._lock:
            imm = self._swap_remote_mt() if len(self.remote_mt) else None
        if imm is not None:
            self._migrate(imm)
        self._ship_window()
        self._drain_acks(blocking=True)
        self._quorum_due = []  # drained above: the ledger is empty

    def barrier(self, level: int = config.MEMTABLE) -> None:
        """Collective fence (+ SSTable flush at ``SSTABLE`` level)."""
        self._check_open()
        self.fence()
        self.coll_comm.barrier()  # all migrations sent & acked everywhere
        if level == config.SSTABLE:
            self.flush()
        self.coll_comm.barrier()

    def flush(self, wait: bool = True) -> None:
        """Flush the local MemTable to SSTables (``papyruskv_flush``).

        Rotates a non-empty local MemTable into the flush pipeline.
        With ``wait=True`` (the default) the call blocks — virtually —
        until the pipeline tail is durable: every enqueued table has
        passed its build *and* sync stages.  ``wait=False`` just
        enqueues and returns, letting the pipeline drain in the
        background.  Neither form waits for compaction; :meth:`close`
        does.
        """
        with self._lock:
            if len(self.local_mt):
                self._rotate_local(self.clock)
            if wait:
                self.clock.advance_to(max(
                    self.flush_build_worker.available,
                    self.flush_sync_worker.available,
                ))
                self._retire_flushed(self.clock.now)

    def set_consistency(self, mode: int) -> None:
        """Collective: switch relaxed ↔ sequential (``papyruskv_consistency``)."""
        self._check_open()
        if mode not in (config.RELAXED, config.SEQUENTIAL):
            raise InvalidModeError(f"unknown consistency mode {mode}")
        # entering sequential requires the relaxed backlog to be visible
        self.fence()
        self.coll_comm.barrier()
        self.consistency = mode

    def protect(self, prot: int) -> None:
        """Collective: set the protection attribute (``papyruskv_protect``)."""
        self._check_open()
        if prot not in (config.RDWR, config.WRONLY, config.RDONLY):
            raise InvalidProtectionError(f"unknown protection {prot}")
        self.fence()
        self.coll_comm.barrier()
        with self._lock:
            if prot == config.WRONLY and self.local_cache is not None:
                # invalidate all entries and disable the cache (§3.2)
                with self._cache_lock:
                    self.local_cache.clear()
            if prot != config.RDONLY:
                # leaving read-only: remote cache contents become unsafe
                self.remote_cache.clear()
            self.protection = prot
        self.coll_comm.barrier()

    # =================================================================== SCAN
    def scan(self, start: Optional[bytes] = None,
             end: Optional[bytes] = None,
             include_replicas: bool = False,
             keys_only: bool = False) -> ScanIterator:
        """Lazy snapshot-consistent iterator over this rank's shard.

        Yields sorted live ``(key, value)`` pairs with ``start <= key <
        end``, merging the MemTable tiers and SSTables newest-first
        with tombstone shadowing — an LSM iterator, extension beyond
        the paper's Table 1.  SSTable selection is gated quarantine →
        footer fences → SSIndex bracketing, and only the overlapping
        SSData blocks are read (through the shared block cache, at low
        priority), so a narrow window costs O(window), not O(shard).

        The iterator pins its SSID horizon at open: flush/compaction
        retiring a table mid-iteration defers the file unlink until the
        scan closes, so writes may continue while iterating (they land
        after the snapshot).  Exhaustion closes it automatically;
        abandon one early under ``with`` or via ``.close()``.

        ``keys_only=True`` yields ``(key, b"")`` without reading value
        bytes.  Under replication only acting-primary keys are yielded
        unless ``include_replicas=True``.
        """
        self._check_open()
        if self.protection == config.WRONLY:
            raise ProtectionError("database is write-only (PAPYRUSKV_WRONLY)")
        return ScanIterator(self, start, end,
                            include_replicas=include_replicas,
                            keys_only=keys_only)

    def scan_local(self, start: Optional[bytes] = None,
                   end: Optional[bytes] = None,
                   include_replicas: bool = False
                   ) -> List[Tuple[bytes, bytes]]:
        """Sorted live pairs of this rank's shard within ``[start, end)``.

        Materializing wrapper over :meth:`scan` (which is the lazy,
        streaming form).  See :mod:`repro.core.scan`.  Under
        replication only keys this rank is acting primary for are
        returned (each key appears on exactly one rank's scan);
        ``include_replicas=True`` returns every pair physically held.
        """
        with self.scan(start, end, include_replicas=include_replicas) as it:
            return list(it)

    def scan_global(self, start: Optional[bytes] = None,
                    end: Optional[bytes] = None,
                    chunk: Optional[int] = None,
                    limit: Optional[int] = None
                    ) -> Iterator[Tuple[bytes, bytes]]:
        """Collective: stream globally sorted live pairs across ranks.

        A windowed owner-ordered merge: each rank walks its own lazy
        :meth:`scan` and broadcasts in-range chunks of ``chunk`` pairs
        (default ``SCAN_CHUNK``) on demand; every rank merges
        behind a *watermark* — a pair is emitted once its key is ≤ the
        smallest last-received key over the streams that still have
        data, which is exactly when no later chunk can precede it.
        Each round pulls only from the stream(s) *at* the watermark
        (streams already ahead of it would only grow the buffer), and
        a drained stream drops out entirely, so peak extra memory is
        O(in-flight result + nranks × chunk) pairs regardless of how
        keys skew across owners — never a shard materialization
        (``stats.scan_peak_buffered`` records the high-water mark).

        ``limit`` short-circuits after that many pairs (YCSB-E "next N
        keys"): no further chunks are pulled from any rank once the
        limit is met.  All ranks see the identical stream and must
        consume it identically — like any collective, stopping early on
        a subset of ranks (other than via a shared ``limit``) is a
        protocol error.  Call a barrier (or use sequential consistency)
        first if writes are in flight.
        """
        self._check_open()
        if chunk is None:
            chunk = SCAN_CHUNK
        if chunk <= 0:
            raise InvalidOptionError(f"scan chunk must be positive: {chunk}")
        if limit is not None and limit <= 0:
            return iter(())  # nothing to pull; symmetric on every rank
        return self._scan_global_gen(start, end, chunk, limit)

    def _scan_global_gen(self, start: Optional[bytes], end: Optional[bytes],
                         chunk: int, limit: Optional[int]
                         ) -> Iterator[Tuple[bytes, bytes]]:
        it = self.scan(start, end)
        try:
            done = [False] * self.nranks
            last_key: List[Optional[bytes]] = [None] * self.nranks
            pending: List[Tuple[bytes, bytes]] = []  # min-heap on key
            emitted = 0
            while not all(done):
                # pull only from the stream(s) constraining the
                # watermark (plus any not yet primed): streams already
                # ahead of it would only grow the merge buffer, and
                # skipping them is what makes the peak O(nranks x
                # chunk) regardless of how keys skew across owners.
                # Replicated state, so every rank picks the same roots.
                alive = [r for r in range(self.nranks) if not done[r]]
                need = [r for r in alive if last_key[r] is None]
                if not need:
                    lowest = min(last_key[r] for r in alive)  # type: ignore
                    need = [r for r in alive if last_key[r] == lowest]
                for r in need:
                    if r == self.rank:
                        part = list(islice(it, chunk))
                        payload: Optional[Tuple[List[Tuple[bytes, bytes]],
                                                bool]] = (
                            part, len(part) < chunk
                        )
                        if part:
                            self.stats.scan_chunks_shipped += 1
                    else:
                        payload = None
                    got = self.coll_comm.bcast(payload, root=r)
                    part, exhausted = got  # type: ignore[misc]
                    if exhausted:
                        done[r] = True
                    if part:
                        last_key[r] = part[-1][0]
                        for kv in part:
                            heapq.heappush(pending, kv)
                if len(pending) > self.stats.scan_peak_buffered:
                    self.stats.scan_peak_buffered = len(pending)
                unfinished = [
                    r for r in range(self.nranks) if not done[r]
                ]
                if unfinished:
                    # keys within a stream strictly ascend, so no future
                    # chunk can deliver a key ≤ this watermark
                    wm = min(last_key[r] for r in unfinished)  # type: ignore
                    while pending and pending[0][0] <= wm:
                        yield heapq.heappop(pending)
                        emitted += 1
                        if limit is not None and emitted >= limit:
                            return
                else:
                    while pending:
                        yield heapq.heappop(pending)
                        emitted += 1
                        if limit is not None and emitted >= limit:
                            return
        finally:
            it.close()

    def scan_collect(self, start: Optional[bytes] = None,
                     end: Optional[bytes] = None,
                     chunk: int = SCAN_CHUNK) -> List[Tuple[bytes, bytes]]:
        """Collective: globally sorted live pairs across all ranks.

        Thin materializing wrapper over :meth:`scan_global` — all ranks
        receive the same list.
        """
        return list(self.scan_global(start, end, chunk=chunk))

    def count_local(self) -> int:
        """Number of live keys in this rank's shard.

        Streams a keys-only scan: tombstones are resolved without
        copying a single value byte or materializing the merge.
        """
        with ScanIterator(self, keys_only=True) as it:
            return sum(1 for _ in it)

    # ============================================================== SCRUBBING
    def verify(self, checkpoint_path: Optional[str] = None,
               repair: bool = True) -> Dict[str, List[int]]:
        """Scrub this rank's SSTables; repair damage via the recovery ladder.

        Every retained table is fully checked (sizes, per-block CRCs,
        index and bloom checksums, record/index agreement).  A table
        that fails is repaired by climbing the ladder: re-read locally
        (transient device faults), fetch from a storage-group peer,
        restore from the newest complete checkpoint generation (the
        ``checkpoint_path`` argument, or the last path this database
        checkpointed to).  A table no rung can save is quarantined and
        its key range degrades to :class:`CorruptionError` on access.

        Returns ``{"ok": [...], "rebuilt": [...], "quarantined": [...]}``
        (SSIDs per outcome).
        """
        self._check_open()
        report: Dict[str, List[int]] = {"ok": [], "rebuilt": [],
                                        "quarantined": []}
        with self._lock:
            ssids = list(self.ssids)
        for ssid in ssids:
            if self._table_verifies(ssid):
                report["ok"].append(ssid)
                continue
            self.stats.corruptions_detected += 1
            if repair and self._repair_table(ssid, checkpoint_path):
                self.stats.tables_rebuilt += 1
                report["rebuilt"].append(ssid)
            else:
                self._quarantine_table(ssid, "failed verification and repair")
                report["quarantined"].append(ssid)
        return report

    #: alias: ``db.scrub()`` reads like the maintenance operation it is
    scrub = verify

    def _table_verifies(self, ssid: int) -> bool:
        """Full check of one table with a fresh reader (no cached state)."""
        try:
            t = SSTableReader(self.store, self.rank_dir, ssid).verify(
                self.clock.now
            )
        except StorageError:
            return False
        self.clock.advance_to(t)
        self._invalidate_readers(ssid)  # drop any poisoned cached view
        return True

    def _repair_table(self, ssid: int,
                      checkpoint_path: Optional[str]) -> bool:
        """Climb the recovery ladder for one damaged table."""
        # rung 1: one local re-read — transient device faults heal here
        if self._table_verifies(ssid):
            return True
        # rung 2: a storage-group peer ships the files through its own path
        if self._fetch_table_from_peer(ssid):
            return True
        # rung 3: restore from the newest complete checkpoint generation
        path = checkpoint_path or self._last_checkpoint_path
        if path is not None:
            from repro.core.checkpoint import restore_table_blobs

            blobs = restore_table_blobs(self, path, ssid)
            if blobs is not None and self._install_table_blobs(ssid, blobs):
                return True
        return False

    def _fetch_table_from_peer(self, ssid: int) -> bool:
        """Ask each storage-group peer to ship the table's three files."""
        peers = [r for r in range(self.nranks)
                 if r != self.rank and self.shares_storage_with(r)]
        for peer in peers:
            seq = self._next_seq
            self._next_seq += self.nranks
            payload = msg.FetchTableMsg(self.rank_dir, ssid, seq)
            self.srv_comm.send(payload, peer, tag=0)
            try:
                reply = self._await_reply(peer, payload, seq)
            except RemoteTimeoutError:
                continue
            if not isinstance(reply, msg.FetchTableReply) or not reply.blobs:
                continue
            if self._install_table_blobs(ssid, reply.blobs):
                return True
        return False

    def _install_table_blobs(self, ssid: int, blobs: Dict[str, bytes]) -> bool:
        """Atomically rewrite a table from shipped blobs, then re-verify."""
        names = sstable_filenames(ssid)
        if not all(name in blobs for name in names):
            return False
        t = self.clock.now
        for name in names:
            t = self.store.write(f"{self.rank_dir}/{name}", blobs[name], t)
        self.clock.advance_to(t)
        return self._table_verifies(ssid)

    def checkpoint(self, path: str):
        """Asynchronous snapshot to the parallel FS (``papyruskv_checkpoint``)."""
        from repro.core.checkpoint import checkpoint

        result = checkpoint(self, path)
        self._last_checkpoint_path = path
        return result

    def destroy(self):
        """Remove the database and all its data from NVM (async)."""
        from repro.core.checkpoint import destroy

        return destroy(self)

    def metrics(self) -> Dict[str, object]:
        """Counter snapshot (:func:`repro.metrics.database_metrics`):
        op/tier stats, `fence_skips`/`bloom_skips`, the `block_cache`
        block."""
        from repro.metrics import database_metrics

        return database_metrics(self)

    # ================================================================== CLOSE
    def close(self) -> None:
        """Collective close: quiesce, flush, stop the handler."""
        if self._closed:
            return
        self.fence()
        self.coll_comm.barrier()
        self.flush()
        # compaction is not part of flush's contract; close drains it too
        self.clock.advance_to(self.compaction_worker.available)
        self.coll_comm.barrier()  # nobody issues remote ops past this point
        self._stop_handler()
        self._leave()

    def _stop_handler(self) -> None:
        """Stop my handler (a self-send wakes it from its recv)."""
        self.srv_comm.send(msg.StopMsg(), self.rank, tag=0)
        if self._handler_thread is not None:
            self._handler_thread.join(30.0)
            det = get_detector()
            if det is not None and not self._handler_thread.is_alive():
                det.absorb_thread(self._handler_thread)  # join HB edge

    def _leave(self) -> None:
        """The collective tail of close and destroy; past the barrier
        nobody reads my tables, so my share of the device's cache goes."""
        self._closed = True
        self.coll_comm.barrier()
        self.block_cache.detach(self.rank_dir)
        self.env._forget(self.name)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._closed = True  # failing rank: skip collective close
            return
        if not self._closed:
            self.close()

    # ===================================================== PYTHONIC SUGAR
    def __setitem__(self, key: bytes, value: bytes) -> None:
        """``db[key] = value`` — sugar for :meth:`put`."""
        self.put(key, value)

    def __getitem__(self, key: bytes) -> bytes:
        """``db[key]`` — sugar for :meth:`get`.

        :class:`KeyNotFoundError` subclasses :class:`KeyError`, so the
        usual mapping idioms (``try/except KeyError``) apply.
        """
        return self.get(key)

    def __delitem__(self, key: bytes) -> None:
        """``del db[key]`` — sugar for :meth:`delete` (tombstone put).

        Like :meth:`delete`, deleting an absent key is not an error: an
        existence check would cost a (possibly remote) get.
        """
        self.delete(key)

    def __contains__(self, key: bytes) -> bool:
        """``key in db`` — a get that swallows NOT_FOUND."""
        return self.get_or_none(key) is not None

    def batch(self, durability: Optional[str] = None,
              max_bytes: Optional[int] = None) -> "WriteBatch":
        """The write surface: a context manager buffering mutations.

        ::

            with db.batch(durability="fence", max_bytes=1 << 20) as b:
                b[b"k1"] = b"v1"
                b.delete(b"k2")

        Buffered operations flush through the write pipeline (one
        migration batch per owner) whenever the payload reaches
        ``max_bytes`` and on clean exit; on exception nothing further is
        written.  ``durability`` picks the exit guarantee: ``"none"``
        (staged like plain puts), ``"fence"`` (remote writes acked by
        their owners), or ``"flush"`` (fence + local shard flushed to
        SSTables).  See :class:`WriteBatch`.
        """
        return WriteBatch(self, durability=durability, max_bytes=max_bytes)

    # ---------------------------------------------------------------- helpers
    def write_meta(self) -> None:
        """Persist database metadata (rank 0 only, on create)."""
        meta = {"name": self.name, "nranks": self.nranks}
        self.store.write(
            f"{self.dbdir}/meta.json", json.dumps(meta).encode(), self.clock.now
        )

    def read_meta(self) -> Optional[dict]:
        """Load the database metadata file, or None if absent."""
        if not self.store.exists(f"{self.dbdir}/meta.json"):
            return None
        blob, t = self.store.read(f"{self.dbdir}/meta.json", self.clock.now)
        self.clock.advance_to(t)
        return json.loads(blob.decode())
