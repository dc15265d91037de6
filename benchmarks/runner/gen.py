"""Inputs from the seed: keys, values, Zipfian ranks, op streams, the oracle.

Nothing here imports the store (and nothing is taken from
``repro.workloads``), so a change under ``src/`` cannot change the load:
the store only ever sees the bytes generated here.

Keys are ``user<rank>:<i>``; rank *r* writes only namespace *r* and
reads both, so each namespace has exactly one writer and the latest
version of every key is known exactly (:class:`Oracle`).  Values encode
``key|version|`` padded to ``VALUE_SIZE``, so a returned value names the
write that produced it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Sequence, Tuple

from benchmarks.runner.spec import (
    INSERT, MAX_SCAN_LEN, NPROC, READ, SCAN, UPDATE, VALUE_SIZE, ZIPF_THETA,
    Workload,
)


def key_of(ns: int, i: int) -> bytes:
    """Key *i* of namespace ``ns`` (zero-padded so keys sort by index)."""
    return b"user%d:%08d" % (ns, i)


def value_of(key: bytes, version: int) -> bytes:
    """The ``VALUE_SIZE``-byte value recording ``key`` and ``version``."""
    return (b"%s|%d|" % (key, version)).ljust(VALUE_SIZE, b".")


def parse_value(value: bytes) -> Tuple[bytes, int]:
    """``(key, version)`` a value was built from; raises ValueError if
    the bytes are not a value of ours."""
    key, version, pad = value.split(b"|", 2)
    if len(value) != VALUE_SIZE or pad.strip(b"."):
        raise ValueError("not a generated value")
    return key, int(version)


class Zipfian:
    """Zipfian ranks over ``n`` items (Gray et al., as YCSB uses it),
    scattered over the item space by a permutation so that the hot items
    are not adjacent.  The permutation is the same for every seed and
    rank: the hottest item alone draws an eighth of the operations, so
    where it sits (whose shard, which block, how near the shard's end)
    would otherwise move a run's throughput more than any code change.
    The seed decides the order in which items are drawn."""

    def __init__(self, n: int, theta: float = ZIPF_THETA) -> None:
        self.n = n
        self.zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        self.half = 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - (1.0 + self.half) / self.zetan
        ) if n > 2 else 0.0
        self.perm = list(range(n))
        random.Random(f"zipfian-scatter/{n}").shuffle(self.perm)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + self.half:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return self.perm[min(rank, self.n - 1)]


class Op(NamedTuple):
    """One operation of a stream.  ``idx`` is -1 for an INSERT (the next
    unused index of the rank's namespace); ``n`` is the scan bound."""

    kind: str
    ns: int
    idx: int
    n: int = 0


def op_stream(w: Workload, rank: int, seed: int, phase: str,
              count: int, records: int) -> List[Op]:
    """The ``count`` operations rank ``rank`` issues in ``phase``
    ("warmup" or "timed") of workload ``w`` under ``seed``, over the
    ``records`` preloaded keys of each namespace."""
    rng = random.Random(f"{seed}/{w.name}/{rank}/{phase}")
    read_pct, update_pct, insert_pct, _scan_pct = w.mix
    zipf = Zipfian(records) if records else None
    ops: List[Op] = []
    for _ in range(count):
        roll = rng.randrange(100)
        if roll < read_pct:
            ops.append(Op(READ, rng.randrange(NPROC), zipf.sample(rng)))
        elif roll < read_pct + update_pct:
            ops.append(Op(UPDATE, rank, zipf.sample(rng)))
        elif roll < read_pct + update_pct + insert_pct:
            ops.append(Op(INSERT, rank, -1))
        else:
            ops.append(Op(SCAN, rng.randrange(NPROC), zipf.sample(rng),
                          rng.randint(1, MAX_SCAN_LEN)))
    return ops


def verify_keys(w: Workload, rank: int, seed: int, count: int,
                sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """``count`` seeded ``(ns, idx)`` to read back, over both namespaces
    (``sizes[ns]`` keys exist in namespace ``ns``)."""
    rng = random.Random(f"{seed}/{w.name}/{rank}/verify")
    out = []
    for _ in range(count):
        ns = rng.randrange(NPROC)
        out.append((ns, rng.randrange(sizes[ns])))
    return out


class Oracle:
    """Latest written version of every key, per namespace.

    ``versions[ns][i]`` is written only by rank ``ns``; the other rank
    reads it after its own store call returned, so what it sees is an
    upper bound on the version that call may have observed.  ``floor``
    is the version of every key at the last barrier: the lower bound.
    """

    def __init__(self) -> None:
        self.versions: List[List[int]] = [[] for _ in range(NPROC)]
        self.floor: List[List[int]] = [[] for _ in range(NPROC)]

    def write(self, op: Op) -> Tuple[bytes, bytes]:
        """``(key, value)`` for the write ``op``, recorded as the latest
        version *before* the store sees it: a migration inside the put
        can show the value to the peer before the put returns."""
        mine = self.versions[op.ns]
        if op.kind == INSERT:
            idx, version = len(mine), 0
            mine.append(0)
        else:
            idx, version = op.idx, mine[op.idx] + 1
            mine[idx] = version
        key = key_of(op.ns, idx)
        return key, value_of(key, version)

    def settle(self) -> None:
        """Call after a barrier: every write so far is visible to all."""
        self.floor = [list(v) for v in self.versions]

    def read_ok(self, me: int, ns: int, idx: int,
                value: Optional[bytes]) -> bool:
        """Whether ``value`` is a legal result of rank ``me`` reading
        key ``idx`` of namespace ``ns``: exactly the latest version of
        its own keys, a version actually written for the peer's."""
        if value is None:
            return False
        try:
            key, version = parse_value(value)
        except ValueError:
            return False
        if key != key_of(ns, idx):
            return False
        latest = self.versions[ns][idx]
        if ns == me:
            return version == latest
        floor = self.floor[ns]
        return (floor[idx] if idx < len(floor) else 0) <= version <= latest

    def scan_ok(self, me: int, shard: Sequence[bytes], start: bytes, n: int,
                pairs: Sequence[Tuple[bytes, bytes]]) -> bool:
        """Whether ``pairs`` is a legal result of scanning ``n`` records
        from ``start``: strictly ascending from ``start``, every value a
        written version of its key, and no settled key of the rank's
        ``shard`` (sorted) skipped."""
        if len(pairs) > n:
            return False
        prev = None
        settled = []
        for key, value in pairs:
            if key < start or (prev is not None and key <= prev):
                return False
            prev = key
            try:
                vkey, version = parse_value(value)
                ns, idx = int(key[4:key.index(b":")]), int(key[-8:])
            except ValueError:
                return False
            if vkey != key or not 0 <= ns < NPROC:
                return False
            known = self.versions[ns]
            latest = known[idx] if idx < len(known) else -1
            wrong = version != latest if ns == me else version > latest
            if wrong:
                return False
            if idx < len(self.floor[ns]):
                settled.append(key)
        lo = bisect_left(shard, start)
        expect = shard[lo:lo + len(settled)]
        if settled != list(expect):
            return False
        # a short result must have run off the end of the shard
        return len(pairs) == n or lo + len(settled) == len(shard)
