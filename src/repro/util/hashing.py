"""Key hashing and owner-rank mapping.

PapyrusKV "hashes the key and divides the result by the total number of
running MPI ranks; the remainder maps the key to the owner rank"
(paper §2.4).  The built-in hash here is 64-bit FNV-1a; applications may
register a custom hash function through ``papyruskv_option_t`` exactly as
the paper's load-balancing hook allows (§2.4, Figure 12).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Signature of a custom hash function: bytes -> unsigned int.
HashFunction = Callable[[bytes], int]


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash (the runtime's built-in hash function)."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=4096)
def builtin_key_hash(key: bytes) -> int:
    """The runtime's default key hash, memoised: FNV-1a is a Python loop
    and every put and get routes its key (a replicated put 2-3 times)."""
    return fnv1a_64(key)


def owner_rank(key: bytes, nranks: int, hash_fn: Optional[HashFunction] = None) -> int:
    """Map ``key`` to its owner rank: ``hash(key) % nranks``."""
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    if hash_fn is None:  # the cache needs a hashable key
        return builtin_key_hash(bytes(key)) % nranks
    return hash_fn(key) % nranks
