"""Deterministic key/value generators.

"The keys are random strings containing letters (a-Z) and digits (0-9),
generated in a uniformly distributed manner" (paper §5.2).  Generation
is seeded per rank so runs are reproducible and ranks draw disjoint
streams.
"""

from __future__ import annotations

import random
import string
from typing import List

_ALPHABET = string.ascii_letters + string.digits


class KeyGenerator:
    """Uniform random alphanumeric keys of a fixed length."""

    def __init__(self, keylen: int, seed: int) -> None:
        if keylen <= 0:
            raise ValueError("keylen must be positive")
        self.keylen = keylen
        self._rng = random.Random(seed)

    def next_key(self) -> bytes:
        """Draw the next random key."""
        return "".join(
            self._rng.choices(_ALPHABET, k=self.keylen)
        ).encode()

    def keys(self, count: int) -> List[bytes]:
        """Draw ``count`` keys."""
        return [self.next_key() for _ in range(count)]


def value_of_size(nbytes: int, fill: int = 0x5A) -> bytes:
    """A value payload of exactly ``nbytes`` bytes."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return bytes([fill]) * nbytes


def rank_seed(base_seed: int, rank: int) -> int:
    """Disjoint per-rank seed stream."""
    return (base_seed * 1_000_003 + rank * 7919) & 0x7FFFFFFF
