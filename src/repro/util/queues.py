"""Bounded FIFO queues used for flushing and migration.

The paper's flushing queue is "a lock-free, fixed-size, FIFO queue"
(§2.4); when it is full the caller rank blocks on the put operation
until the compaction thread drains a slot, which "prevents the unflushed
MemTables from consuming too much system memory".  CPython cannot express
a lock-free queue, but the blocking/back-pressure semantics are identical.

The queue also supports snapshot iteration newest-first, which get
operations use to search immutable MemTables "from the tail to the head"
(§2.6).
"""

from __future__ import annotations

import threading
from typing import Generic, Iterator, List, Optional, TypeVar

from repro.analysis.runtime import get_detector, make_lock
from repro.analysis.vector_clock import Clock

T = TypeVar("T")


class QueueClosed(Exception):
    """Raised when operating on a closed queue."""


class BoundedFIFO(Generic[T]):
    """Fixed-capacity FIFO with blocking enqueue and snapshot iteration."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: List[T] = []
        #: producer vector clocks, parallel to _items (race detector
        #: hand-off edges; None entries when the detector is off)
        self._vcs: List[Optional[Clock]] = []
        self._lock = make_lock("queue.fifo")
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    @staticmethod
    def _handoff_vc() -> Optional[Clock]:
        det = get_detector()
        return None if det is None else det.on_handoff_send()

    @staticmethod
    def _join_vc(vc: Optional[Clock]) -> None:
        det = get_detector()
        if det is not None and vc:
            det.on_handoff_recv(vc)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Enqueue, blocking while the queue is full."""
        with self._not_full:
            while len(self._items) >= self.capacity:
                if self._closed:
                    raise QueueClosed
                if not self._not_full.wait(timeout):
                    raise TimeoutError("queue full")
            if self._closed:
                raise QueueClosed
            self._items.append(item)
            self._vcs.append(self._handoff_vc())
            self._not_empty.notify()

    def try_put(self, item: T) -> bool:
        """Enqueue without blocking. Returns False if full."""
        with self._not_full:
            if self._closed:
                raise QueueClosed
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._vcs.append(self._handoff_vc())
            self._not_empty.notify()
            return True

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue the oldest item, blocking while empty.

        Raises :class:`QueueClosed` once the queue is closed *and* drained.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise QueueClosed
                if not self._not_empty.wait(timeout):
                    raise TimeoutError("queue empty")
            item = self._items.pop(0)
            self._join_vc(self._vcs.pop(0))
            self._not_full.notify()
            return item

    def remove(self, item: T) -> bool:
        """Remove a specific item (identity match). Returns True if found.

        Used when a flushed MemTable is retired out of the snapshot the
        background worker took.
        """
        with self._lock:
            for i, existing in enumerate(self._items):
                if existing is item:
                    del self._items[i]
                    self._join_vc(self._vcs.pop(i))
                    self._not_full.notify()
                    return True
            return False

    def snapshot_newest_first(self) -> Iterator[T]:
        """Immutable snapshot, newest (tail) first — the get search order."""
        with self._lock:
            return iter(list(reversed(self._items)))

    def drain(self) -> List[T]:
        """Atomically remove and return everything (oldest first)."""
        with self._lock:
            items, self._items = self._items, []
            vcs, self._vcs = self._vcs, []
            for vc in vcs:
                self._join_vc(vc)
            self._not_full.notify_all()
            return items

    def close(self) -> None:
        """Close the queue: getters drain then raise QueueClosed."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
