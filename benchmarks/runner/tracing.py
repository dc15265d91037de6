"""Wall-clock spans around the layers' public functions, from outside.

A traced run (and only a traced run) imports this module.  ``install``
replaces each function in :data:`TARGETS` with a wrapper that records a
span -- name, thread, start, end, parent -- on a thread-local stack, so
the spans under one front-end operation form a tree whose root is the
span the client opens around the public call.  Spans stay in memory;
:func:`rollup` turns them into per-layer self times and counts and
:func:`write_chrome_trace` writes them out when the run is over.

Self time is a span's duration minus its direct children's.  All threads
share one interpreter lock, so a thread's self time includes the time it
waited for the lock while another thread ran; layer shares are exact per
thread and approximate across threads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer, units) -- ``units(args, result)``
#: counts the work one call did (bytes), where a layer's work is not the
#: number of calls.  Span names are the module path without ``repro.``.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.core.db", "Database.put", "core.db", None),
    ("repro.core.db", "Database.get_or_none", "core.db", None),
    ("repro.core.db", "Database.barrier", "core.db", None),
    ("repro.core.db", "Database.fence", "core.db", None),
    ("repro.core.db", "WriteBatch.flush", "core.db", None),
    ("repro.core.db", "Database.scan", "core.scan", None),
    ("repro.core.scan", "ScanIterator.__next__", "core.scan", None),
    ("repro.core.scan", "ScanIterator.close", "core.scan", None),
    ("repro.core.memtable", "MemTable.put", "core.memtable", None),
    ("repro.core.memtable", "MemTable.get", "core.memtable", None),
    ("repro.sstable.writer", "encode_table", "sstable.writer",
     lambda a, r: sum(len(b) for b in r.values())),
    ("repro.sstable.writer", "write_sstable_blobs", "sstable.writer",
     lambda a, r: r[0]),
    ("repro.sstable.writer", "write_tables_ordered", "sstable.writer",
     lambda a, r: r[0]),
    ("repro.sstable.compaction", "compact", "sstable.compaction", None),
    ("repro.sstable.compaction", "read_and_merge", "sstable.compaction",
     None),
    ("repro.sstable.compaction", "partition_records", "sstable.compaction",
     None),
    ("repro.sstable.reader", "SSTableReader.get", "sstable.reader", None),
    ("repro.sstable.reader", "SSTableReader.find_ge", "sstable.reader",
     None),
    ("repro.sstable.reader", "SSTableReader.read_span", "sstable.reader",
     None),
    ("repro.sstable.reader", "SSTableReader.load_bloom", "sstable.reader",
     None),
    ("repro.sstable.reader", "SSTableReader.load_index", "sstable.reader",
     None),
    ("repro.sstable.block_cache", "BlockCache.get", "sstable.block_cache",
     None),
    ("repro.sstable.block_cache", "BlockCache.put", "sstable.block_cache",
     None),
    ("repro.nvm.posixfs", "PosixStore.read", "nvm.posixfs", None),
    ("repro.nvm.posixfs", "PosixStore.read_spans", "nvm.posixfs", None),
    ("repro.nvm.posixfs", "PosixStore.write", "nvm.posixfs", None),
    ("repro.nvm.posixfs", "PosixStore.write_ordered", "nvm.posixfs", None),
    ("repro.nvm.posixfs", "PosixStore.delete_many", "nvm.posixfs", None),
    ("repro.mpi.comm", "Comm.send", "mpi.comm", None),
    ("repro.mpi.comm", "Comm.send_at", "mpi.comm", None),
    ("repro.mpi.comm", "Comm.fanout", "mpi.comm", None),
    ("repro.mpi.comm", "Comm.recv", "mpi.comm", None),
    ("repro.mpi.comm", "Comm.barrier", "mpi.comm", None),
    # comm sizes every message it sends exactly once, through this name
    ("repro.mpi.comm", "payload_nbytes", "mpi.comm", lambda a, r: r),
    ("repro.util.checksum", "crc32c", "util.checksum",
     lambda a, r: len(a[0])),
    ("repro.util.bloom", "BloomFilter.may_contain", "util.bloom", None),
    ("repro.util.bloom", "BloomFilter.__contains__", "util.bloom", None),
]

#: layer of the span the client opens around each front-end operation
RUNNER = "runner"


class SpanTracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.layer_of: Dict[str, str] = {}
        self.thread_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            self._tls.ident = ident = threading.get_ident()
            self.thread_names[ident] = threading.current_thread().name
            return stack

    def begin(self, name: str) -> tuple:
        """Open a span by hand (the client's front-end op spans)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, token: tuple, units: int = 0) -> None:
        t1 = time.perf_counter()
        sid, parent, name, t0 = token
        self._tls.stack.pop()
        self.spans.append((sid, parent, name, self._tls.ident, t0, t1, units))

    def wrap(self, fn: Callable, name: str,
             units: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call."""
        ids, spans, get_stack, tls = (
            self._ids, self.spans, self._stack, self._tls)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = get_stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            done = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    done = units(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, tls.ident, t0, t1, done))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every target that exists; the ones a refactor removed
        are listed in ``missing`` and simply go unobserved."""
        for modname, path, layer, units in TARGETS:
            name = f"{modname.removeprefix('repro.')}.{path}"
            self.layer_of[name] = layer
            try:
                module = importlib.import_module(modname)
                owner = module
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, units)
            if parents:
                self._set(owner, attr, wrapper)
                continue
            # A module-level function named where it is defined: every
            # repro module that imported it by name holds a reference of
            # its own.  Named where it is merely used (comm's
            # payload_nbytes): only that module's calls are observed.
            everywhere = getattr(original, "__module__", None) == modname
            for mod in list(sys.modules.values()):
                if (mod is module or everywhere) \
                        and getattr(mod, "__name__", "").startswith("repro") \
                        and getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _role(thread_name: str) -> str:
    if thread_name.startswith("spmd-rank-"):
        return "rank"
    if thread_name.startswith("pkv-handler-"):
        return "handler"
    return "other"


def rollup(tracer: SpanTracer) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, units, and how many
    calls had a child span; plus per-layer self seconds by thread role.

    Returns ``{"names": {name: {...}}, "layers": {layer: {role: self_s}},
    "handler": {"busy_s": ..., "self_s": ...}}``.
    """
    spans = tracer.spans
    child_time: Dict[int, float] = {}
    for sid, parent, _name, _th, t0, t1, _u in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    names: Dict[str, Dict[str, float]] = {}
    layers: Dict[str, Dict[str, float]] = {}
    roles = {ident: _role(n) for ident, n in tracer.thread_names.items()}
    top: Dict[int, List[tuple]] = {}
    for span in spans:
        sid, parent, name, th, t0, t1, units = span
        dur = t1 - t0
        kids = child_time.get(sid, 0.0)
        self_s = max(0.0, dur - kids)
        agg = names.setdefault(name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0,
            "with_children": 0, "rank_self_s": 0.0,
        })
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += self_s
        agg["units"] += units
        if kids:
            agg["with_children"] += 1
        role = roles.get(th, "other")
        if role == "rank":
            agg["rank_self_s"] += self_s
        layer = tracer.layer_of.get(name, RUNNER)
        by_role = layers.setdefault(layer, {})
        by_role[role] = by_role.get(role, 0.0) + self_s
        if not parent and role == "handler":
            top.setdefault(th, []).append(span)

    # A handler thread alternates recv (idle until a request arrives)
    # and service.  Its own code has no public entry point to wrap, so
    # service time is the gap between consecutive top-level recvs, and
    # the handler's self time is the gap minus the spans inside it.
    recv = "mpi.comm.Comm.recv"
    busy = inner = 0.0
    for sp in top.values():
        sp.sort(key=lambda s: s[4])
        last_recv_end = None
        for _sid, _p, name, _th, t0, t1, _u in sp:
            if name == recv:
                if last_recv_end is not None:
                    busy += t0 - last_recv_end
                last_recv_end = t1
            elif last_recv_end is not None:
                inner += t1 - t0
    return {
        "names": names,
        "layers": layers,
        "handler": {"busy_s": busy, "self_s": max(0.0, busy - inner)},
    }


def write_chrome_trace(tracer: SpanTracer, path: str, t_zero: float) -> None:
    """Write the spans as Chrome Trace Event JSON."""
    events = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": ident,
         "args": {"name": name}}
        for ident, name in tracer.thread_names.items()
    ]
    for sid, parent, name, th, t0, t1, units in tracer.spans:
        events.append({
            "name": name, "ph": "X", "pid": 0, "tid": th,
            "ts": (t0 - t_zero) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"id": sid, "parent": parent, "units": units,
                     "layer": tracer.layer_of.get(name, RUNNER)},
        })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
