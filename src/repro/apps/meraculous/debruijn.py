"""De Bruijn graph construction and traversal (Meraculous §5.2).

Construction inserts each rank's UFX share into the distributed hash
table.  Traversal finds contig-start k-mers among the ones this rank
owns and walks right through unique extensions, one remote get per
step — "the requisite random access pattern in the global de Bruijn
graph".

A k-mer is *UU* (unique-extension) when neither side is a fork ``F``;
sequence-boundary terminators ``X`` count as unique, so a repeat-free
genome reassembles as exactly one contig.  Contigs are maximal
consistent chains of UU k-mers; a UU k-mer starts a contig when its
predecessor does not chain into it (absent, forked, or inconsistent
extension).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apps.meraculous.kmer import ALPHABET, FORK, TERM

Ufx = Dict[bytes, bytes]
_BASES = frozenset(ALPHABET)


def is_uu(code: bytes) -> bool:
    """Neither extension is a fork (terminators count as unique)."""
    return code[0] != FORK and code[1] != FORK


def is_contig_start(kmer: bytes, code: bytes, lookup) -> bool:
    """Decide whether ``kmer`` begins a contig.

    ``lookup(kmer) -> code or None`` abstracts the table (local dict or
    distributed KVS).
    """
    if not is_uu(code):
        return False
    left = code[0]
    if left not in _BASES:  # sequence boundary: nothing precedes us
        return True
    pred = bytes([left]) + kmer[:-1]
    pred_code = lookup(pred)
    if pred_code is None or not is_uu(pred_code):
        return True
    # predecessor is UU: it chains into us only if its right extension
    # reproduces our last base AND our left extension reproduces its
    # first base (mutual consistency)
    if pred_code[1] != kmer[-1]:
        return True
    return False


def walk_contig(start: bytes, code: bytes, lookup,
                max_steps: int = 10_000_000) -> bytes:
    """Extend ``start`` rightward through unique extensions."""
    contig = bytearray(start)
    kmer = start
    right = code[1]
    steps = 0
    while right in _BASES:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("contig walk exceeded max_steps (cycle?)")
        nxt = kmer[1:] + bytes([right])
        nxt_code = lookup(nxt)
        if nxt_code is None or not is_uu(nxt_code):
            break
        if nxt_code[0] != kmer[0]:
            break  # inconsistent back-pointer: treat as contig boundary
        contig.append(right)
        kmer = nxt
        right = nxt_code[1]
    return bytes(contig)


def contigs_from_ufx(ufx: Ufx, k: int) -> List[bytes]:
    """Serial reference traversal over an in-memory UFX table."""
    lookup = ufx.get
    contigs = []
    for kmer in sorted(ufx):
        code = ufx[kmer]
        if is_contig_start(kmer, code, lookup):
            contigs.append(walk_contig(kmer, code, lookup))
    return sorted(contigs)


# --------------------------------------------------------------- distributed
def build_graph(dht, my_entries: Sequence[Tuple[bytes, bytes]]) -> int:
    """Construction phase: insert this rank's UFX share; returns count.

    Backends exposing a bulk pipeline (``put_bulk``) load the whole
    share in one batched call — per-owner message coalescing instead of
    one staged put per k-mer; others fall back to the per-key loop.
    """
    put_bulk = getattr(dht, "put_bulk", None)
    if put_bulk is not None:
        put_bulk(list(my_entries))
    else:
        for kmer, code in my_entries:
            dht.put(kmer, code)
    dht.barrier()
    return len(my_entries)


def traverse(dht, my_entries: Sequence[Tuple[bytes, bytes]],
             rank: int, nranks: int) -> List[bytes]:
    """Traversal phase: generate the contigs seeded by owned k-mers.

    Seed ownership: a contig belongs to the rank that *owns* its start
    k-mer in the table's distribution (so every contig is produced
    exactly once, with no atomics — unlike UPC's claim-based scheme the
    partition is deterministic).  ``my_entries`` is only used as the
    candidate enumeration; ownership is re-checked against the DHT's
    hash so backends agree.
    """
    lookup = dht.get
    contigs: List[bytes] = []
    for kmer, code in my_entries:
        if not is_uu(code):
            continue
        if dht.owner_of(kmer) != rank:
            # candidate enumeration may differ from table affinity
            continue
        if is_contig_start(kmer, code, lookup):
            contigs.append(walk_contig(kmer, code, lookup))
    return contigs
