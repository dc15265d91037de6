"""MiniKV store: MemTable + two-level table hierarchy (LevelDB-style).

Writes land in an in-memory MemTable (its *own* structure, separate
from any distribution layer above — the duplication the paper charges
MDHIM for).  Full MemTables flush to level-0 files, which may overlap;
when L0 grows past a threshold all of L0 merges with L1 into sorted,
non-overlapping L1 files.  Gets check MemTable, then L0 newest-first,
then the one overlapping L1 file.

All timing is explicit: each call takes and returns a virtual time, so
the caller (a rank's main timeline or MDHIM's server loop) charges the
right clock.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.baselines.minikv.table import Item, Table, write_table
from repro.nvm.posixfs import PosixStore


class MiniKV:
    """A single-node LSM store rooted at ``directory`` in ``store``."""

    def __init__(
        self,
        store: PosixStore,
        directory: str,
        memtable_capacity: int = 1 << 20,
        l0_limit: int = 4,
        cpu=None,
    ) -> None:
        self.store = store
        self.directory = directory
        self.memtable_capacity = memtable_capacity
        self.l0_limit = l0_limit
        self.cpu = cpu
        self._mem: Dict[bytes, Tuple[bytes, bool]] = {}
        self._mem_bytes = 0
        self._next_file = 1
        self._l0: List[Table] = []  # oldest first
        self._l1: List[Table] = []  # sorted by key range, non-overlapping
        self._lock = threading.RLock()
        self.stats: Dict[str, int] = {
            "puts": 0, "gets": 0, "deletes": 0, "flushes": 0, "compactions": 0,
        }
        store.makedirs(directory)

    # ---------------------------------------------------------------- costing
    def _charge(self, t: float, nbytes: int) -> float:
        if self.cpu is None:
            return t
        return t + self.cpu.kv_op_s + nbytes / self.cpu.memcpy_Bps

    # ------------------------------------------------------------------ write
    def put(self, key: bytes, value: bytes, t: float,
            tombstone: bool = False) -> float:
        """Insert/replace; returns the virtual completion time.

        The value is **copied** into the MemTable — LevelDB owns its
        buffers, so a layered client pays this copy on top of its own.
        """
        with self._lock:
            self.stats["puts"] += 1
            t = self._charge(t, len(key) + len(value))
            old = self._mem.get(key)
            if old is not None:
                self._mem_bytes -= len(key) + len(old[0])
            self._mem[key] = (bytes(value), tombstone)
            self._mem_bytes += len(key) + len(value)
            if self._mem_bytes >= self.memtable_capacity:
                t = self._flush(t)
            return t

    def delete(self, key: bytes, t: float) -> float:
        """Delete = put of a tombstone (LevelDB semantics)."""
        self.stats["deletes"] += 1
        return self.put(key, b"", t, tombstone=True)

    def _flush(self, t: float) -> float:
        """MemTable -> one L0 table (synchronous, unlike PapyrusKV).

        LevelDB stalls writers when flushes/compactions fall behind; the
        synchronous model reproduces that back-pressure at full strength.
        """
        items: List[Item] = [
            (k, v, tomb) for k, (v, tomb) in sorted(self._mem.items())
        ]
        if not items:
            return t
        path = f"{self.directory}/{self._next_file:08d}.ldb"
        self._next_file += 1
        _, t = write_table(self.store, path, items, t)
        self._l0.append(Table(self.store, path))
        self._mem = {}
        self._mem_bytes = 0
        self.stats["flushes"] += 1
        if len(self._l0) > self.l0_limit:
            t = self._compact_l0(t)
        return t

    def _compact_l0(self, t: float) -> float:
        """Merge all of L0 and L1 into fresh non-overlapping L1 files."""
        runs: List[List[Item]] = []
        for table in self._l1 + self._l0:  # oldest first; L1 older than L0
            items, t = table.scan(t)
            runs.append(items)
        merged: Dict[bytes, Tuple[bytes, bool]] = {}
        for run in runs:  # later runs overwrite earlier: newest wins
            for k, v, tomb in run:
                merged[k] = (v, tomb)
        live = sorted(
            (k, v, tomb) for k, (v, tomb) in merged.items() if not tomb
        )
        for table in self._l1 + self._l0:
            t = table.delete(t)
        self._l1 = []
        self._l0 = []
        # split into ~2MB non-overlapping L1 files
        target = 2 << 20
        chunk: List[Item] = []
        size = 0
        for item in live:
            chunk.append(item)
            size += len(item[0]) + len(item[1])
            if size >= target:
                t = self._write_l1(chunk, t)
                chunk, size = [], 0
        if chunk:
            t = self._write_l1(chunk, t)
        self.stats["compactions"] += 1
        return t

    def _write_l1(self, items: List[Item], t: float) -> float:
        path = f"{self.directory}/{self._next_file:08d}.ldb"
        self._next_file += 1
        _, t = write_table(self.store, path, items, t)
        self._l1.append(Table(self.store, path))
        return t

    # ------------------------------------------------------------------- read
    def get(self, key: bytes, t: float) -> Tuple[Optional[bytes], float]:
        """Returns (value or None, completion time); tombstones are None."""
        with self._lock:
            self.stats["gets"] += 1
            t = self._charge(t, len(key))
            entry = self._mem.get(key)
            if entry is not None:
                value, tomb = entry
                return (None if tomb else value), t
            for table in reversed(self._l0):
                item, t = table.get(key, t)
                if item is not None:
                    _, value, tomb = item
                    return (None if tomb else value), t
            for table in self._l1:
                rng, t = table.key_range(t)
                if rng[0] <= key <= rng[1]:
                    item, t = table.get(key, t)
                    if item is not None:
                        _, value, tomb = item
                        return (None if tomb else value), t
                    break
            return None, t

    # --------------------------------------------------------------- flushing
    def flush_all(self, t: float) -> float:
        """Force the MemTable to disk (shutdown path)."""
        with self._lock:
            return self._flush(t)

    def file_count(self) -> int:
        """Number of live table files across L0 and L1."""
        with self._lock:
            return len(self._l0) + len(self._l1)

    def close(self, t: float) -> float:
        """Flush and shut down; returns the virtual completion time."""
        return self.flush_all(t)
