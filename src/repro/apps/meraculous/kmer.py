"""K-mer utilities: extraction and the shared hash function.

"A hash function is used to define the affinities between UPC threads
and hash table entries ... The PapyrusKV runtime calls the same hash
function in the UPC application" (paper §5.2) — :func:`kmer_hash` is
that shared function, passed to PapyrusKV as the custom hash.
"""

from __future__ import annotations

from typing import Iterator

ALPHABET = b"ACGT"
#: extension codes: a concrete base, or F (fork / multiple extensions),
#: or X (no extension / sequence boundary) — following Meraculous' UFX
FORK = ord("F")
TERM = ord("X")

def kmers_of(seq: bytes, k: int) -> Iterator[bytes]:
    """All overlapping k-mers of ``seq`` in order."""
    if k <= 0:
        raise ValueError("k must be positive")
    for i in range(len(seq) - k + 1):
        yield seq[i:i + k]


def kmer_hash(kmer: bytes) -> int:
    """The hash shared between the UPC code and PapyrusKV (FNV-1a over
    the k-mer's bytes, mixed).  Deterministic and platform-independent."""
    h = 0xCBF29CE484222325
    for b in kmer:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    # final avalanche (splitmix-style) for better low-bit behaviour
    h ^= h >> 31
    h = (h * 0x7FB5D329728EA185) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 27
    return h

