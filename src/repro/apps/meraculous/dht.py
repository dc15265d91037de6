"""Distributed hash-table backends for the de Bruijn graph.

Figure 12 shows the same k-mer table implemented twice: over UPC's
one-sided shared memory and over a PapyrusKV database with the UPC hash
function installed as the custom hash.  Both backends expose the same
minimal interface (put/get/barrier/close) the graph code uses.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro import config
from repro.apps.meraculous.kmer import kmer_hash
from repro.config import Options
from repro.core.env import Papyrus
from repro.mpi.launcher import RankContext


class PapyrusDHT:
    """The k-mer table as a PapyrusKV database.

    Uses relaxed consistency during construction (remote puts stage in
    the remote MemTable and migrate in batches — the asynchronous
    migration the paper credits for PapyrusKV's competitive
    construction phase), and plain gets during traversal.
    """

    def __init__(self, ctx: RankContext, options: Optional[Options] = None,
                 name: str = "kmers") -> None:
        self.ctx = ctx
        options = options or Options()
        # install the application's hash for thread-data affinity; the
        # consistency mode is the caller's (default RELAXED — pass a
        # SEQUENTIAL option set to ablate the asynchronous migration)
        options = options.with_(hash_fn=kmer_hash)
        self._env = Papyrus(ctx)
        self._db = self._env.open(name, options)

    def put_bulk(self, items) -> None:
        """Insert many k-mer records through the bulk pipeline.

        The construction phase loads a whole UFX share at once, so the
        per-owner coalescing (one migration chunk per owner instead of
        one staged put per k-mer) applies to the entire share.
        """
        if isinstance(items, dict):
            items = items.items()
        with self._db.batch() as b:
            for key, value in items:
                b.put(key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        """Fetch a k-mer record; None when absent."""
        return self._db.get_or_none(key)

    def barrier(self) -> None:
        """Collective: migrate staged puts and synchronize all ranks."""
        self._db.barrier(config.MEMTABLE)

    def protect_readonly(self, enable: bool) -> None:
        """Optional: mark the graph read-only for traversal (§3.2)."""
        self._db.protect(config.RDONLY if enable else config.RDWR)

    def owner_of(self, key: bytes) -> int:
        """Rank owning this k-mer under the shared hash function."""
        return self._db.owner_of(key)

    def scan(self, start: Optional[bytes] = None,
             end: Optional[bytes] = None):
        """Lazy sorted (kmer, record) pairs of this rank's graph shard.

        A streamed range scan over the underlying database — the
        traversal uses it to enumerate its seed k-mers straight off the
        store (no second in-memory copy of the UFX share) after the
        construction barrier has migrated everything to its owner.
        """
        return self._db.scan(start, end)

    def close(self) -> None:
        """Collective teardown of the database and environment."""
        self._db.close()
        self._env.finalize()


class _UpcShared:
    """The shared-heap state of the UPC table: one bucket dict per thread."""

    def __init__(self, nranks: int) -> None:
        self.tables: List[Dict[bytes, bytes]] = [{} for _ in range(nranks)]
        self.locks: List[threading.Lock] = [
            threading.Lock() for _ in range(nranks)
        ]


class UpcDHT:
    """A UPC-style DSM hash table with one-sided remote access.

    Remote puts/gets cost one RDMA round (NIC latency + transfer) and do
    **not** involve the owner's CPU — the "RDMA capability and built-in
    remote atomic operations" advantage the paper gives UPC during
    traversal.  Collective constructor.
    """

    def __init__(self, ctx: RankContext) -> None:
        self.ctx = ctx
        self.rank = ctx.world_rank
        self.nranks = ctx.nranks
        self._coll = ctx.comm.dup()
        shared = _UpcShared(self.nranks) if self.rank == 0 else None
        self._shared: _UpcShared = self._coll.bcast(shared, root=0)
        cpu = ctx.system.cpu
        self._local_cost = cpu.kv_op_s + cpu.dram_latency_s
        self._memcpy_Bps = cpu.memcpy_Bps
        net = ctx.system.network
        self._rdma_latency = net.rdma_latency_s
        self._net_Bps = net.bandwidth_Bps
        self.remote_ops = 0
        self.local_ops = 0

    def owner_of(self, key: bytes) -> int:
        """Owning UPC thread under the shared hash function."""
        return kmer_hash(key) % self.nranks

    def _charge(self, owner: int, nbytes: int) -> None:
        clock = self.ctx.clock
        if owner == self.rank:
            self.local_ops += 1
            clock.advance(self._local_cost + nbytes / self._memcpy_Bps)
        else:
            self.remote_ops += 1
            clock.advance(self._rdma_latency + nbytes / self._net_Bps)

    def put(self, key: bytes, value: bytes) -> None:
        """One-sided store into the owner's bucket (RDMA-cost remote)."""
        owner = self.owner_of(key)
        self._charge(owner, len(key) + len(value))
        with self._shared.locks[owner]:
            self._shared.tables[owner][bytes(key)] = bytes(value)

    def get(self, key: bytes) -> Optional[bytes]:
        """One-sided load from the owner's bucket; None when absent."""
        owner = self.owner_of(key)
        with self._shared.locks[owner]:
            value = self._shared.tables[owner].get(bytes(key))
        self._charge(owner, len(key) + (len(value) if value else 0))
        return value

    def barrier(self) -> None:
        """Collective barrier (upc_barrier)."""
        self._coll.barrier()

    def close(self) -> None:
        """Collective teardown (the shared heap is GC'd with the run)."""
        self._coll.barrier()
