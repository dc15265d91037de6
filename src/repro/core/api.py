"""The C-style functional API (paper Table 1).

Every function returns a 32-bit error code; out-parameters become return
tuple elements.  This layer is a thin veneer over the object API for
code ported from the original C, and for tests asserting the exact
Table 1 surface:

=====================================  =====================================
Paper function                         This module
=====================================  =====================================
``papyruskv_init``                     :func:`papyruskv_init`
``papyruskv_finalize``                 :func:`papyruskv_finalize`
``papyruskv_open`` / ``close``         :func:`papyruskv_open` / ``close``
``papyruskv_put`` / ``get`` /          :func:`papyruskv_put` / ``get`` /
``delete`` / ``free``                  ``delete`` / ``free``
``papyruskv_signal_notify`` / ``wait`` :func:`papyruskv_signal_notify` / ...
``papyruskv_fence`` / ``barrier``      :func:`papyruskv_fence` / ``barrier``
``papyruskv_consistency``              :func:`papyruskv_consistency`
``papyruskv_protect``                  :func:`papyruskv_protect`
``papyruskv_checkpoint`` / ``restart`` :func:`papyruskv_checkpoint` / ...
``papyruskv_destroy`` / ``wait``       :func:`papyruskv_destroy` / ``wait``
=====================================  =====================================

Bulk extension (beyond Table 1, same code/out-parameter conventions —
the Table 1 surface above is untouched):

=====================================  =====================================
Bulk veneer                            Object API it wraps
=====================================  =====================================
``papyruskv_put_bulk(db, items)``      :meth:`Database.batch` — per-owner
→ ``code``                             coalesced migration
``papyruskv_get_bulk(db, keys)``       :meth:`Database.get_bulk` — one
→ ``(code, values)``                   GetMsg round per owner; ``values``
                                       aligns with ``keys``, ``None``
                                       marking NOT_FOUND
``papyruskv_delete_bulk(db, keys)``    :meth:`Database.batch` — batched
→ ``code``                             tombstone puts
``papyruskv_flush(db, wait=True)``     :meth:`Database.flush` — drain the
→ ``code``                             local flush pipeline
=====================================  =====================================
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.config import Options
from repro.core.db import Database
from repro.core.env import Papyrus
from repro.core.events import Event
from repro.errors import ErrorCode, PapyrusError, code_of
from repro.mpi.launcher import RankContext, current_rank_context

_ENVS: dict = {}


def _env() -> Papyrus:
    ctx = current_rank_context()
    env = _ENVS.get((id(ctx.machine), ctx.world_rank))
    if env is None:
        raise RuntimeError("papyruskv_init was not called on this rank")
    return env


def papyruskv_init(repository: str = "nvm",
                   ctx: Optional[RankContext] = None) -> int:
    """Initialize the execution environment (collective)."""
    ctx = ctx or current_rank_context()
    try:
        env = Papyrus(ctx, repository)
    except PapyrusError as exc:
        return int(code_of(exc))
    _ENVS[(id(ctx.machine), ctx.world_rank)] = env
    return int(ErrorCode.SUCCESS)


def papyruskv_finalize() -> int:
    """Terminate the execution environment (collective)."""
    ctx = current_rank_context()
    env = _ENVS.pop((id(ctx.machine), ctx.world_rank), None)
    if env is None:
        return int(ErrorCode.NOT_INITIALIZED)
    env.finalize()
    return int(ErrorCode.SUCCESS)


def papyruskv_open(name: str, flags: int = 0,
                   opt: Optional[Options] = None
                   ) -> Tuple[int, Optional[Database]]:
    """Open or create a database; returns ``(code, db)``.

    ``flags`` accepts :data:`repro.config.RDONLY_OPEN` to open the
    database with read-only protection from the start (equivalent to an
    immediate ``papyruskv_protect(db, PAPYRUSKV_RDONLY)``).
    """
    from repro.config import RDONLY, RDONLY_OPEN

    try:
        if flags & RDONLY_OPEN:
            opt = (opt or Options()).with_(protection=RDONLY)
        return int(ErrorCode.SUCCESS), _env().open(name, opt)
    except (PapyrusError, RuntimeError) as exc:
        return int(code_of(exc)), None


def papyruskv_close(db: Database) -> int:
    """Close ``db`` (collective); returns an error code."""
    try:
        db.close()
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_put(db: Database, key: bytes, value: bytes) -> int:
    """Insert or update a key-value pair; returns an error code."""
    try:
        db.put(key, value)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_get(db: Database, key: bytes
                  ) -> Tuple[int, Optional[bytes]]:
    """Returns ``(code, value)``; value is None on NOT_FOUND."""
    try:
        return int(ErrorCode.SUCCESS), db.get(key)
    except PapyrusError as exc:
        return int(code_of(exc)), None


def papyruskv_delete(db: Database, key: bytes) -> int:
    """Delete a key-value pair; returns an error code."""
    try:
        db.delete(key)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_put_bulk(db: Database, items) -> int:
    """Insert many pairs via the bulk pipeline; returns an error code.

    ``items`` is a mapping or an iterable of ``(key, value)`` pairs;
    remote keys coalesce into one migration batch per owner rank.
    Routed through :meth:`Database.batch`, the object API's one write
    surface.
    """
    if isinstance(items, dict):
        items = items.items()
    try:
        with db.batch() as b:
            for key, value in items:
                b.put(key, value)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_get_bulk(db: Database, keys: Sequence[bytes]
                       ) -> Tuple[int, Optional[list]]:
    """Fetch many keys in one pipelined round per owner.

    Returns ``(code, values)`` with ``values`` parallel to ``keys``;
    absent keys come back as ``None`` entries (the bulk analogue of the
    per-key NOT_FOUND code, which would otherwise poison the whole
    batch).  ``values`` is None only when the batch itself failed.
    """
    try:
        return int(ErrorCode.SUCCESS), db.get_bulk(keys)
    except PapyrusError as exc:
        return int(code_of(exc)), None


def papyruskv_delete_bulk(db: Database, keys: Sequence[bytes]) -> int:
    """Delete many keys via the bulk pipeline; returns an error code."""
    try:
        with db.batch() as b:
            for key in keys:
                b.delete(key)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_flush(db: Database, wait: bool = True) -> int:
    """Flush the local MemTable to SSTables; returns an error code.

    With ``wait`` (default) the call blocks until every enqueued table
    has drained through the flush pipeline's build and sync stages.
    """
    try:
        db.flush(wait=wait)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_free(db: Database, value: bytes) -> int:
    """Release a value buffer.

    Python's allocator manages memory, so this is a semantic no-op kept
    for Table 1 parity; passing a non-bytes object is an error as it
    would be in C.
    """
    if not isinstance(value, (bytes, bytearray)):
        return int(ErrorCode.INVALID_VALUE)
    return int(ErrorCode.SUCCESS)


def papyruskv_signal_notify(signum: int, ranks: Sequence[int]) -> int:
    """Send signal ``signum`` to ``ranks``; returns an error code."""
    try:
        _env().signal_notify(signum, ranks)
    except (PapyrusError, RuntimeError) as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_signal_wait(signum: int, ranks: Sequence[int]) -> int:
    """Wait for ``signum`` from every rank in ``ranks``."""
    try:
        _env().signal_wait(signum, ranks)
    except (PapyrusError, RuntimeError) as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_fence(db: Database) -> int:
    """Migrate the remote MemTable immediately; returns an error code."""
    try:
        db.fence()
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_barrier(db: Database, level: int) -> int:
    """Collective fence with a flushing level (MEMTABLE or SSTABLE)."""
    try:
        db.barrier(level)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_consistency(db: Database, mode: int) -> int:
    """Collectively switch the consistency mode."""
    try:
        db.set_consistency(mode)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_protect(db: Database, prot: int) -> int:
    """Collectively set the protection attribute."""
    try:
        db.protect(prot)
    except PapyrusError as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)


def papyruskv_checkpoint(db: Database, path: str
                         ) -> Tuple[int, Optional[Event]]:
    """Asynchronous snapshot to the parallel FS; returns (code, event)."""
    try:
        return int(ErrorCode.SUCCESS), db.checkpoint(path)
    except PapyrusError as exc:
        return int(code_of(exc)), None


def papyruskv_restart(path: str, name: str, flags: int = 0,
                      opt: Optional[Options] = None,
                      force_redistribute: bool = False
                      ) -> Tuple[int, Optional[Database], Optional[Event]]:
    """Revert ``name`` from a snapshot; returns (code, db, event)."""
    try:
        db, event = _env().restart(path, name, opt, force_redistribute)
        return int(ErrorCode.SUCCESS), db, event
    except (PapyrusError, RuntimeError) as exc:
        return int(code_of(exc)), None, None


def papyruskv_destroy(db: Database) -> Tuple[int, Optional[Event]]:
    """Remove the database and its NVM data; returns (code, event)."""
    try:
        return int(ErrorCode.SUCCESS), db.destroy()
    except PapyrusError as exc:
        return int(code_of(exc)), None


def papyruskv_wait(db: Database, event: Event) -> int:
    """Block (virtually) until ``event`` completes."""
    try:
        event.wait(db.clock)
    except (PapyrusError, RuntimeError) as exc:
        return int(code_of(exc))
    return int(ErrorCode.SUCCESS)
