"""Bloom filter for SSTable membership tests.

Each SSTable carries a bloom-filter file; a get opens it first "to
determine whether the SSTable can be skipped" (paper §2.6).  The filter
guarantees no false negatives: if ``key in filter`` is False the key is
definitely not in the SSTable's data file.

The implementation uses the standard Kirsch-Mitzenmacher double-hashing
scheme, the approach LevelDB takes: k probe positions stepped from the
two 64-bit halves of one 128-bit BLAKE2b digest (the stdlib's C routine;
two independent hashes, which two seeds of one CRC would not be).

A table's filter is built by one :meth:`BloomFilter.update` over its
keys: one ``struct`` unpack splits each digest into its halves, the
probes step ``h1 += h2`` mod 2**64 (= ``h1 + i * h2``), and the probed
bits, marked one ASCII ``"1"`` each, are packed by one
``int(flags[::-1], 2)``: bit ``p`` of the vector read little-endian,
the bit ``add`` (``update((key,))``) sets for ``p``.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

try:  # the C routine hashlib.blake2b is bound to, taken the way the
    # stdlib's ``random`` takes its digest: ``hashlib`` itself loads
    # OpenSSL, ~4 MB of resident memory the store has no other use for
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - not CPython
    from hashlib import blake2b

_MASK64 = (1 << 64) - 1
_HALVES = struct.Struct("<QQ")  # a digest's two 64-bit halves


class BloomFilter:
    """Fixed-size bloom filter over byte-string keys."""

    __slots__ = ("nbits", "nhashes", "_bits", "count")

    def __init__(self, nbits: int, nhashes: int) -> None:
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if nhashes <= 0:
            raise ValueError("nhashes must be positive")
        self.nbits = nbits
        self.nhashes = nhashes
        self._bits = bytearray((nbits + 7) // 8)
        self.count = 0

    # ---------------------------------------------------------------- sizing
    @classmethod
    def for_capacity(cls, n: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``n`` keys at the requested false-positive rate."""
        n = max(1, n)
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        nbits = max(8, int(math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2))))
        nhashes = max(1, int(round(nbits / n * math.log(2))))
        return cls(nbits, nhashes)

    # ------------------------------------------------------------- operations
    def update(self, keys: Sequence[bytes]) -> None:
        """Insert every key of ``keys``, duplicates counted (a table's
        whole key list in one call)."""
        nbits, nhashes = self.nbits, self.nhashes
        flags = bytearray(b"0") * nbits  # one ASCII digit per bit
        for key in keys:
            h1, h2 = _HALVES.unpack(blake2b(key, digest_size=16).digest())
            h2 |= 1
            for _ in range(nhashes):
                flags[h1 % nbits] = 49  # ord("1")
                h1 = (h1 + h2) & _MASK64
        bits = int(flags[::-1], 2) | int.from_bytes(self._bits, "little")
        self._bits = bytearray(bits.to_bytes(len(self._bits), "little"))
        self.count += len(keys)

    def add(self, key: bytes) -> None:
        """Insert ``key``; a whole table's keys go to :meth:`update`."""
        self.update((key,))

    def __contains__(self, key: bytes) -> bool:
        """Probe the ``nhashes`` positions :meth:`update` sets for
        ``key``, stopping at the first clear bit."""
        h1, h2 = _HALVES.unpack(blake2b(key, digest_size=16).digest())
        h2 |= 1  # odd => full-period stepping
        nbits, bits = self.nbits, self._bits
        for _ in range(self.nhashes):
            pos = h1 % nbits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h1 = (h1 + h2) & _MASK64
        return True

    def may_contain(self, key: bytes) -> bool:
        """Alias of ``key in filter``; False means definitely absent."""
        return key in self

    # ------------------------------------------------------------- serialize
    def to_bytes(self) -> bytes:
        """Serialize as ``nbits(8) nhashes(4) count(8) bitvector``."""
        header = self.nbits.to_bytes(8, "little") + self.nhashes.to_bytes(
            4, "little"
        ) + self.count.to_bytes(8, "little")
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        if len(blob) < 20:
            raise ValueError("bloom filter blob too short")
        nbits = int.from_bytes(blob[0:8], "little")
        nhashes = int.from_bytes(blob[8:12], "little")
        count = int.from_bytes(blob[12:20], "little")
        bf = cls(nbits, nhashes)
        body = blob[20:]
        if len(body) != len(bf._bits):
            raise ValueError("bloom filter bit vector length mismatch")
        bf._bits = bytearray(body)
        bf.count = count
        return bf

    def __len__(self) -> int:
        return self.count

    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostic for FP-rate estimation)."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.nbits
