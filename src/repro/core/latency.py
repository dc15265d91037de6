"""Per-operation latency tracking (virtual time) with percentiles.

A bounded reservoir sampler per operation kind keeps memory constant
while giving accurate p50/p95/p99 for any run length — the numbers an
operator actually tunes MemTable sizes and consistency modes against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional


class LatencyReservoir:
    """Reservoir sampler over latency observations (seconds)."""

    __slots__ = ("capacity", "_samples", "count", "total", "max_seen", "_rng")

    def __init__(self, capacity: int = 512, seed: int = 12345) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0
        self._rng = random.Random(seed)

    def observe(self, latency_s: float) -> None:
        """Record one latency observation (seconds, virtual time)."""
        if latency_s < 0:
            raise ValueError("negative latency")
        self.count += 1
        self.total += latency_s
        if latency_s > self.max_seen:
            self.max_seen = latency_s
        if len(self._samples) < self.capacity:
            self._samples.append(latency_s)
        else:
            # Vitter's algorithm R; _randbelow(n) is what randrange(n)
            # returns for n > 0, without its argument checks
            j = self._rng._randbelow(self.count)
            if j < self.capacity:
                self._samples[j] = latency_s

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """p in [0, 100]; returns 0.0 with no observations."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        idx = min(len(data) - 1, int(round(p / 100.0 * (len(data) - 1))))
        return data[idx]

    def summary(self) -> Dict[str, float]:
        """Count, mean, p50/p95/p99 and max as a plain dict."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max_seen,
        }


class LatencyTracker:
    """Latency reservoirs keyed by operation kind ("put", "get", ...)."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._by_op: Dict[str, LatencyReservoir] = {}

    def observe(self, op: str, latency_s: float) -> None:
        """Record one observation under operation kind ``op``."""
        res = self._by_op.get(op)
        if res is None:
            res = self._by_op[op] = LatencyReservoir(self.capacity)
        res.observe(latency_s)

    def get(self, op: str) -> Optional[LatencyReservoir]:
        """The reservoir for ``op``, or None if never observed."""
        return self._by_op.get(op)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-operation summaries, sorted by operation name."""
        return {op: r.summary() for op, r in sorted(self._by_op.items())}

    def __contains__(self, op: str) -> bool:
        return op in self._by_op
