"""Timed shared resources: devices, links, and background workers.

A :class:`TimedResource` serializes virtual-time access the way a real
device serializes DMA: an operation arriving at time ``t`` starts at
``max(t, available)`` and completes ``latency + bytes/bandwidth`` later.
When 20 ranks of a Summitdev node hammer one NVMe, their aggregate
throughput saturates at the device bandwidth — exactly the effect the
paper's Figure 6 measures.  Because work executes eagerly while being
*charged* at virtual request times, the device also remembers idle
windows left behind its horizon by far-future requests, and serves a
later call inside one when its request time fits — service order
follows virtual arrival time, not Python call order.

A :class:`StripedResource` models Lustre OSTs and Cori burst-buffer
nodes: a transfer is split across ``nstripes`` member resources and
completes when the slowest stripe does, which is why striped stores win
at large transfer sizes in Figure 6.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import List

_END = itemgetter(1)  # an idle window is ``[start, end]``


@dataclass
class TimedResource:
    """A bandwidth/latency resource with an availability horizon.

    Parameters
    ----------
    name: diagnostic label.
    latency_s: fixed per-operation latency in seconds.
    bandwidth_Bps: sustained bandwidth in bytes/second.
    """

    name: str
    latency_s: float
    bandwidth_Bps: float
    available: float = 0.0
    busy_time: float = 0.0
    ops: int = 0
    bytes_moved: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: idle windows left behind the horizon by operations that were
    #: requested beyond it; later requests may be served inside one
    _free: List[List[float]] = field(default_factory=list, repr=False)

    #: once this many idle windows are remembered, each new one drops
    #: the one furthest in the virtual past (splitting a window to serve
    #: a request inside it may still take the list past this)
    MAX_FREE_WINDOWS = 64

    def service_time(self, nbytes: int) -> float:
        """Duration of one operation of ``nbytes`` (no queueing)."""
        return self.latency_s + (nbytes / self.bandwidth_Bps if nbytes else 0.0)

    def _reserve(self, t_request: float, duration: float) -> float:
        """Pick a start time for ``duration`` of device time (lock held).

        Work executes eagerly here, so operations arrive in *call*
        order, not virtual-time order: a background job scheduled for
        the far future, or a rank thread that ran a scheduler slice
        ahead, must not make the device look busy in between.  When a
        request lands beyond the horizon the idle window behind it is
        remembered, and a later call whose request time falls inside
        such a window is served there — like a real device, which
        orders service by arrival time, not by who asked first.
        ``_free`` stays sorted and disjoint (windows are only appended
        at the horizon or split in place): index 0 is the oldest.
        """
        free = self._free
        if t_request >= self.available:
            if t_request > self.available:
                free.append([self.available, t_request])
                if len(free) > self.MAX_FREE_WINDOWS:
                    del free[0]
            self.available = t_request + duration
            return t_request
        # behind the horizon: windows ending before the operation could
        # finish cannot hold it; take the first later one that can
        for i in range(bisect_left(free, t_request + duration, key=_END),
                       len(free)):
            lo, hi = free[i]
            start = max(lo, t_request)
            if start + duration <= hi:
                rest = []
                if start > lo:
                    rest.append([lo, start])
                if start + duration < hi:
                    rest.append([start + duration, hi])
                free[i:i + 1] = rest
                return start
        start = self.available
        self.available = start + duration
        return start

    def access(self, t_request: float, nbytes: int) -> float:
        """Reserve the resource for an operation; return completion time."""
        duration = self.service_time(nbytes)
        with self._lock:
            start = self._reserve(t_request, duration)
            self.busy_time += duration
            self.ops += 1
            self.bytes_moved += nbytes
            return start + duration

    def access_concurrent(self, t_request: float, nbytes: int) -> float:
        """An operation that shares the resource without exclusive queueing.

        Used for read paths on parallel file systems where many readers
        proceed concurrently and only bandwidth matters statistically: the
        operation takes its full service time but occupies the device
        only for the *bandwidth share* it consumed — reserved through
        the same idle windows as :meth:`access`, so a reader is queued
        behind the transfers that precede it in virtual time, not
        behind whichever thread happened to call first.
        """
        share = nbytes / self.bandwidth_Bps if nbytes else 0.0
        duration = self.latency_s + share
        with self._lock:
            start = self._reserve(t_request, share)
            self.busy_time += duration
            self.ops += 1
            self.bytes_moved += nbytes
            return start + duration


class StripedResource:
    """A file-system striped across ``nstripes`` member resources.

    A transfer of N bytes is divided into N/nstripes chunks written in
    parallel; completion is the max across stripes.  Small transfers pay
    one stripe's latency; large transfers enjoy aggregate bandwidth.
    """

    def __init__(
        self,
        name: str,
        nstripes: int,
        stripe_latency_s: float,
        stripe_bandwidth_Bps: float,
    ) -> None:
        if nstripes <= 0:
            raise ValueError("nstripes must be positive")
        self.name = name
        self.nstripes = nstripes
        self.stripes: List[TimedResource] = [
            TimedResource(f"{name}[{i}]", stripe_latency_s, stripe_bandwidth_Bps)
            for i in range(nstripes)
        ]
        self._rr = 0
        self._lock = threading.Lock()

    def service_time(self, nbytes: int) -> float:
        """Uncontended duration of a striped transfer of ``nbytes``."""
        per_stripe = -(-nbytes // self.nstripes) if nbytes else 0
        return self.stripes[0].latency_s + (
            per_stripe / self.stripes[0].bandwidth_Bps if per_stripe else 0.0
        )

    def access(self, t_request: float, nbytes: int) -> float:
        """Stripe a transfer across all members; return completion time."""
        per_stripe = -(-nbytes // self.nstripes) if nbytes else 0
        end = t_request
        for stripe in self.stripes:
            end = max(end, stripe.access(t_request, per_stripe))
        return end

    def access_one(self, t_request: float, nbytes: int) -> float:
        """Route a small un-striped op to one stripe round-robin (metadata)."""
        with self._lock:
            idx = self._rr
            self._rr = (self._rr + 1) % self.nstripes
        return self.stripes[idx].access(t_request, nbytes)

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.stripes)

    @property
    def bytes_moved(self) -> int:
        return sum(s.bytes_moved for s in self.stripes)


class BackgroundWorker:
    """A virtual background thread timeline (compaction thread, dispatcher).

    The paper overlaps flushing/migration with the application by running
    them on background threads.  We execute the *work* eagerly on the
    caller (keeping data structures simple) but charge its *time* here, so
    the main timeline only blocks when the queue back-pressures.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.available = 0.0
        self.busy_time = 0.0
        self.jobs = 0
        self._lock = threading.Lock()

    def schedule(self, t_enqueue: float, job) -> float:
        """Run ``job(start_time) -> end_time`` serialized on this worker.

        The job executes eagerly (real work, e.g. writing SSTable files)
        but its virtual time occupies this background timeline, so it
        overlaps the caller's main timeline.
        """
        with self._lock:
            start = max(t_enqueue, self.available)
            end = job(start)
            if end < start:
                raise ValueError("job returned end < start")
            self.available = end
            self.busy_time += end - start
            self.jobs += 1
            return end

    def idle_until(self, t: float) -> None:
        """Force the worker idle until ``t`` (e.g. after a barrier)."""
        with self._lock:
            if t > self.available:
                self.available = t
