"""The canonical lock-acquisition order of the whole runtime.

This registry is the single source of truth consumed by three clients:

* pkvlint rule **R004** checks lexically nested ``with`` blocks against
  it (a lock may only be acquired while holding locks of *lower*
  level);
* the dynamic lock-order checker (:mod:`repro.analysis.runtime`)
  enforces the same rule on real acquisitions and builds the deadlock
  graph from the levels declared here;
* ``docs/architecture.md`` embeds :func:`render_lock_table` /
  :func:`render_threads_map` between ``lock-order`` markers, and
  ``tests/analysis/test_docs_sync.py`` regenerates the section and
  fails on drift — the docs cannot diverge from the registry.

Levels increase in acquisition order: while holding a lock at level
``L`` a thread may only acquire locks with level strictly greater than
``L``.  Locks that are never nested still get distinct levels so an
accidental nesting is caught the first time it happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class LockClass:
    """One named lock class in the canonical order."""

    name: str
    level: int
    #: attribute names this lock appears under in source (for pkvlint)
    attrs: Tuple[str, ...]
    #: who holds an instance of it
    holder: str
    #: what it guards
    guards: str


#: The canonical order, lowest level acquired first.
LOCK_ORDER: Tuple[LockClass, ...] = (
    LockClass(
        name="db.state",
        level=10,
        attrs=("_lock",),
        holder="core.db.Database (RLock)",
        guards="writes to the MemTables, ssids and quarantine list and "
               "the publication of the read view gets take unlocked; "
               "unacked sends; a cache fill's check",
    ),
    LockClass(
        name="db.local_cache",
        level=11,
        attrs=("_cache_lock",),
        holder="core.db.Database",
        guards="the local (SSTable-hit) cache: looked up alone by gets, "
               "filled and evicted nested inside db.state (leaf lock)",
    ),
    LockClass(
        name="db.scan_pins",
        level=12,
        attrs=("_scan_lock",),
        holder="core.db.Database",
        guards="scan snapshot pins (ssid -> open-iterator count) and the "
               "deferred-unlink map compaction parks pinned tables in",
    ),
    LockClass(
        name="db.membership",
        level=15,
        attrs=("_mv_lock",),
        holder="core.membership.MembershipView",
        guards="changes to replica-group membership (a death, a merged "
               "view, proof of life, suspicion, the re-replication "
               "queue); readers take the published snapshot unlocked",
    ),
    LockClass(
        name="world.comm",
        level=30,
        attrs=("_comm_lock",),
        holder="mpi.comm.World",
        guards="communicator-id allocation, collective-state registry",
    ),
    LockClass(
        name="world.mailboxes",
        level=40,
        attrs=("_mbx_lock",),
        holder="mpi.comm.World",
        guards="creating an entry of the (comm, rank) -> mailbox map",
    ),
    LockClass(
        name="comm.collective",
        level=50,
        attrs=("lock",),
        holder="mpi.comm._CollectiveState",
        guards="collective slots/scratch around the rendezvous barrier",
    ),
    LockClass(
        name="sstable.reader",
        level=65,
        attrs=("_io_lock",),
        holder="sstable.reader.SSTableReader",
        guards="one table's device reads (lazy sidecar loads, block "
               "fetch-and-fill), so ranks sharing the reader read each once",
    ),
    LockClass(
        name="sstable.block_cache",
        level=70,
        attrs=("_blocks_lock",),
        holder="sstable.block_cache.BlockCache (one per storage device)",
        guards="the device's read cache, shared by every rank on it: "
               "block LRU order, byte budget, per-table index, file-built "
               "reader registry, counters (leaf lock, never nested under)",
    ),
)

_BY_NAME: Dict[str, LockClass] = {lc.name: lc for lc in LOCK_ORDER}

_BY_ATTR: Dict[str, LockClass] = {}
for _lc in LOCK_ORDER:
    for _attr in _lc.attrs:
        _BY_ATTR.setdefault(_attr, _lc)

#: every attribute name that denotes a registered lock (pkvlint R001/R004)
LOCK_ATTRS: Tuple[str, ...] = tuple(sorted(_BY_ATTR))


def level_of(name: str) -> Optional[int]:
    """Level of a lock class by canonical name; None if unregistered."""
    lc = _BY_NAME.get(name)
    return None if lc is None else lc.level


def level_of_attr(attr: str) -> Optional[int]:
    """Level of a lock by source attribute name; None if unregistered."""
    lc = _BY_ATTR.get(attr)
    return None if lc is None else lc.level


def render_lock_table() -> str:
    """The canonical order as a markdown table (embedded in docs)."""
    lines = [
        "| order | lock | held by | guards |",
        "|---|---|---|---|",
    ]
    for lc in LOCK_ORDER:
        attrs = ", ".join(f"`{a}`" for a in lc.attrs)
        lines.append(
            f"| {lc.level} | **{lc.name}** ({attrs}) | {lc.holder} "
            f"| {lc.guards} |"
        )
    return "\n".join(lines)


def render_threads_map() -> str:
    """The threads-and-locks map as markdown (embedded in docs)."""
    return "\n".join([
        "Threads and the locks they take, in acquisition order:",
        "",
        "* **rank main** — `db.state` (every local put; a get or scan "
        "open only to retire a finished flush, a get to fill the local "
        "cache; both read the published view unlocked), "
        "`db.local_cache` (a get's cache lookup), "
        "`db.scan_pins` (pinning a scan's view's tables at open, "
        "releasing them at iterator close), "
        "`db.membership` (failure declarations and the "
        "re-replication queue when `replicas > 1`; routing reads the "
        "published snapshot unlocked), "
        "`world.comm`/`world.mailboxes` "
        "(comm management), `comm.collective` (collectives), "
        "`sstable.reader` (a table's sidecar loads and block fetches), "
        "`sstable.block_cache` (resolving a view's readers, "
        "block-cached SSData probes, invalidation).",
        "* **message handler** (per rank × database) — `db.state` "
        "(applying migrations; a remote get reads the published view "
        "like a local one), `db.local_cache`, `db.membership` "
        "(merging piggybacked views, proof of life; epoch checks read "
        "the snapshot unlocked), "
        "`sstable.reader` and `sstable.block_cache` (SSTable lookups "
        "on behalf of remote ranks); its blocking receive takes no "
        "registered lock — it sleeps on a wake lock of its own that "
        "the matching sender releases.",
        "* **virtual background workers** (compaction, dispatcher) are "
        "*not* real threads: their jobs run eagerly on whichever real "
        "thread schedules them and inherit that thread's held locks — "
        "which is why flush jobs must never send (`pkvlint` R001).",
        "",
        "Rule: a thread holding a lock at level *L* may only acquire "
        "locks at levels strictly greater than *L*.  `db.state` is an "
        "RLock (re-entry allowed); everything else is plain.  No lock "
        "is ever held across a blocking receive.",
    ])


def render_markdown() -> str:
    """The full generated docs section (table + threads map)."""
    return render_lock_table() + "\n\n" + render_threads_map()
