"""Generic data structures used by the PapyrusKV runtime."""

from repro.util.bloom import BloomFilter
from repro.util.hashing import fnv1a_64, builtin_key_hash
from repro.util.lru import LRUCache

__all__ = [
    "BloomFilter",
    "LRUCache",
    "builtin_key_hash",
    "fnv1a_64",
]
