"""Meraculous benchmark driver (Figure 13).

Runs graph construction + traversal over a chosen DHT backend and
verifies the assembled contigs against the serial reference, so a
benchmark number is only reported for a *correct* assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.meraculous.debruijn import build_graph, contigs_from_ufx, traverse
from repro.apps.meraculous.dht import PapyrusDHT, UpcDHT
from repro.apps.meraculous.genome import (
    synthesize_genome,
    ufx_from_genome,
    ufx_partition,
)
from repro.config import Options
from repro.mpi.launcher import RankContext


@dataclass
class MeraculousResult:
    """Per-rank outcome of one assembly run."""

    rank: int
    backend: str
    k: int
    n_kmers_inserted: int
    n_contigs: int
    construction_time: float
    traversal_time: float
    verified: Optional[bool]  # rank 0 only; None elsewhere


def run_meraculous(
    ctx: RankContext,
    backend: str = "papyrus",
    genome_length: int = 20_000,
    k: int = 21,
    seed: int = 7,
    options: Optional[Options] = None,
    verify: bool = True,
    protect_readonly: bool = False,
) -> MeraculousResult:
    """One rank of the Meraculous run.

    Every rank synthesizes the same genome deterministically (standing
    in for reading the shared UFX file), inserts its round-robin share,
    then traverses the contigs seeded at k-mers it owns.
    """
    genome = synthesize_genome(genome_length, seed)
    ufx = ufx_from_genome(genome, k)
    my_share = ufx_partition(ufx, ctx.world_rank, ctx.nranks)

    if backend == "papyrus":
        dht = PapyrusDHT(ctx, options)
    elif backend == "upc":
        dht = UpcDHT(ctx)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    try:
        t0 = ctx.clock.now
        inserted = build_graph(dht, my_share)
        construction_time = ctx.clock.now - t0

        if protect_readonly and isinstance(dht, PapyrusDHT):
            dht.protect_readonly(True)

        # seeds: the entries whose start k-mer this rank owns.  The
        # PapyrusKV backend enumerates them straight off the store with
        # a streamed range scan (construction's barrier has migrated
        # every k-mer to its owner, so the local shard IS the owned
        # set); the UPC baseline has no scan surface and filters the
        # full UFX table by ownership instead.
        if isinstance(dht, PapyrusDHT):
            owned = list(dht.scan())
        else:
            owned = [
                (km, code) for km, code in sorted(ufx.items())
                if dht.owner_of(km) == ctx.world_rank
            ]
        t0 = ctx.clock.now
        contigs = traverse(dht, owned, ctx.world_rank, ctx.nranks)
        dht.barrier()
        traversal_time = ctx.clock.now - t0

        if protect_readonly and isinstance(dht, PapyrusDHT):
            dht.protect_readonly(False)

        verified: Optional[bool] = None
        if verify:
            all_contigs = ctx.comm.gather(contigs, root=0)
            if ctx.world_rank == 0:
                assembled = sorted(
                    c for chunk in all_contigs for c in chunk
                )
                verified = assembled == contigs_from_ufx(ufx, k)
    finally:
        dht.close()

    return MeraculousResult(
        rank=ctx.world_rank,
        backend=backend,
        k=k,
        n_kmers_inserted=inserted,
        n_contigs=len(contigs),
        construction_time=construction_time,
        traversal_time=traversal_time,
        verified=verified,
    )
