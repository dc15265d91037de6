"""Synthetic genome and UFX generation.

The paper's evaluation uses the human chr14 UFX dataset, which is not
available offline.  We synthesize a random genome and derive its UFX
set — the (k-mer → left/right extension) table that is the input to
Meraculous' graph construction — preserving the structural properties
the benchmark exercises: unique-extension k-mers form linear chains
(contigs), repeated k-mers become forks, and traversal must reassemble
the genome's inter-fork segments exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.apps.meraculous.kmer import ALPHABET, FORK, TERM, kmers_of

#: kmer -> (left extension, right extension); FORK when ambiguous,
#: TERM at sequence boundaries
UFX = Dict[bytes, bytes]


def synthesize_genome(length: int, seed: int = 42,
                      repeat_fraction: float = 0.02,
                      repeat_length: int = 64) -> bytes:
    """A random DNA sequence with a controlled amount of exact repeats.

    Repeats create fork k-mers, which break contigs just as real
    genomic repeats do — without them the de Bruijn graph would be one
    trivial chain and traversal would not exercise the random-access
    pattern Figure 13 measures.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    rng = random.Random(seed)
    seq = bytearray(rng.choice(ALPHABET) for _ in range(length))
    n_repeats = int(length * repeat_fraction / max(1, repeat_length))
    for _ in range(n_repeats):
        if length <= 2 * repeat_length:
            break
        src = rng.randrange(0, length - repeat_length)
        dst = rng.randrange(0, length - repeat_length)
        seq[dst:dst + repeat_length] = seq[src:src + repeat_length]
    return bytes(seq)


def ufx_from_genome(genome: bytes, k: int) -> UFX:
    """Derive the UFX table: each k-mer's unique extensions or forks.

    For every occurrence of a k-mer, record the preceding and following
    base; a k-mer seen with more than one distinct left (right)
    neighbour gets the FORK code on that side; boundary occurrences get
    TERM.  This matches the role of Meraculous' UFX filter output.
    """
    if k <= 0 or k > len(genome):
        raise ValueError("bad k for genome length")
    lefts: Dict[bytes, set] = {}
    rights: Dict[bytes, set] = {}
    n = len(genome)
    for i in range(n - k + 1):
        km = genome[i:i + k]
        lefts.setdefault(km, set()).add(genome[i - 1] if i > 0 else TERM)
        rights.setdefault(km, set()).add(
            genome[i + k] if i + k < n else TERM
        )

    def fold(exts: set) -> int:
        if len(exts) == 1:
            return next(iter(exts))
        return FORK

    return {
        km: bytes([fold(lefts[km]), fold(rights[km])]) for km in lefts
    }


def ufx_partition(ufx: UFX, rank: int, nranks: int) -> List[Tuple[bytes, bytes]]:
    """The rank's share of UFX entries (round-robin over sorted k-mers).

    Sorting makes the partition deterministic across ranks regardless of
    dict iteration order.
    """
    items = sorted(ufx.items())
    return items[rank::nranks]

