"""Persistence: checkpoint, restart, restart-with-redistribution, destroy.

"A collective function ``papyruskv_checkpoint()`` generates a snapshot
image of the database ... the compaction thread in each rank starts to
transfer the SSTables from NVM to the target parallel file system"
(paper §4.2).  Checkpoint and restart are asynchronous: they return an
:class:`~repro.core.events.Event` whose completion time lies on the
background compaction timeline, so the application overlaps them with
useful work until ``papyruskv_wait``.

Crash consistency (layout version 4).  Repeated checkpoints to one path
land in numbered *generations* —
``ckpt/<path>/db_<name>/gen<k>/rank<r>/`` — and every file inside a
generation is covered by a manifest chain written strictly after the
data it describes:

* each rank writes its files, then ``rank<r>/MANIFEST.json`` recording
  every file's length and CRC-32;
* after a barrier, rank 0 writes ``gen<k>/manifest.json``.

All writes are atomic (tmp + fsync + rename), so a crash mid-checkpoint
leaves *missing* files, never torn ones — and a missing file makes the
generation incomplete.  ``restart()`` resolves the newest **complete**
generation and verifies each file's checksum during the copy back to
NVM, counting mismatches; when no generation is complete it
degrades to a best-effort restore of the newest one rather than losing
the surviving shards.  A generation written under another layout
version is refused by number — its checksums mean something else.

A quarantined table travels as its ``*.quar`` files, so the copy
restore fences the hole again on reopen, and a snapshot table whose
SSData fails its checksum comes back as such a hole.  A redistributing
restore cannot fence a range on a new owner and refuses a snapshot
with a hole or a damaged table (docs/durability.md).
"""

from __future__ import annotations

import json
import posixpath
import warnings
from typing import List, Optional, Tuple

from repro import config
from repro.core.events import Event
from repro.errors import CorruptionError, StorageError
from repro.sstable.format import (
    DATA_SUFFIX,
    QUARANTINE_SUFFIX,
    parse_index,
    sstable_filenames,
    sstable_paths,
)
from repro.sstable.reader import SSTableReader, list_ssids
from repro.util.checksum import crc32c

#: snapshot layout version written into every generation manifest and
#: checked on restore (4: per-file ``crc32`` is CRC-32/ISO-HDLC and the
#: tables inside are SSTable format 4)
CHECKPOINT_FORMAT = 4

_RANK_MANIFEST = "MANIFEST.json"
_GEN_MANIFEST = "manifest.json"


def _snapshot_dir(path: str, db_name: str) -> str:
    """Snapshot directory (relative to the Lustre store root)."""
    clean = path.strip("/").replace("..", "_")
    return posixpath.join("ckpt", clean, f"db_{db_name}")


def _gen_dir(snap: str, gen: int) -> str:
    return posixpath.join(snap, f"gen{gen}")


def _list_generations(lustre, snap: str) -> List[int]:
    """Ascending generation numbers present under a snapshot dir."""
    gens = []
    for name in lustre.listdir(snap):
        if name.startswith("gen"):
            try:
                gens.append(int(name[3:]))
            except ValueError:
                continue
    return sorted(gens)


def _read_json(lustre, rel: str) -> Optional[dict]:
    """Parse a manifest file; None if absent or undecodable."""
    if not lustre.exists(rel):
        return None
    try:
        blob, _ = lustre.read(rel, 0.0)
        return json.loads(blob.decode())
    except (StorageError, ValueError):
        return None


def _rank_manifest(lustre, rank_dir: str) -> Optional[dict]:
    return _read_json(lustre, posixpath.join(rank_dir, _RANK_MANIFEST))


def _generation_complete(lustre, gen_dir: str) -> Optional[dict]:
    """The generation's manifest if every recorded file is present.

    Completeness is a metadata check (existence + exact length): all
    snapshot writes are atomic renames, so an interrupted checkpoint
    manifests as missing files, not torn ones.  Content checksums are
    verified later, during the restore copy.
    """
    manifest = _read_json(lustre, posixpath.join(gen_dir, _GEN_MANIFEST))
    if manifest is None:
        return None
    for rank in range(int(manifest.get("nranks", 0))):
        rank_dir = posixpath.join(gen_dir, f"rank{rank}")
        rman = _rank_manifest(lustre, rank_dir)
        if rman is None:
            return None
        for fname, info in rman.get("files", {}).items():
            rel = posixpath.join(rank_dir, fname)
            if not lustre.exists(rel) or lustre.size(rel) != info["len"]:
                return None
    return manifest


def checkpoint(db, path: str) -> Event:
    """Collective asynchronous snapshot of ``db`` to the parallel FS."""
    db._check_open()
    # 1. global SSTable-level barrier: the snapshot image now exists on NVM
    db.barrier(config.SSTABLE)
    lustre = db.ctx.machine.lustre_store()
    snap = _snapshot_dir(path, db.name)
    # every rank derives the new generation from the same pre-write
    # state; the barrier keeps any rank from creating gen<k> before the
    # slowest rank has finished listing
    gens = _list_generations(lustre, snap)
    gen = (gens[-1] + 1) if gens else 1
    db.coll_comm.barrier()
    gen_dir = _gen_dir(snap, gen)
    rank_src = db.rank_dir
    rank_dst = posixpath.join(gen_dir, f"rank{db.rank}")
    ssids = db._ssids_snapshot()
    holes = [q.ssid for q in db._view.quarantined]

    # 2. background transfer NVM -> Lustre on the compaction timeline,
    # staged out as one bulk streaming copy per rank; the rank manifest
    # goes last so its presence certifies the files before it.  A hole
    # goes as its quarantined files: the reopen fences it again.
    def job(start: float) -> float:
        paths = []
        for ssid in ssids:
            paths.extend(SSTableReader(db.store, rank_src, ssid).file_paths())
        for ssid in holes:
            paths.extend(
                p for p in (rel + QUARANTINE_SUFFIX
                            for rel in sstable_paths(rank_src, ssid))
                if db.store.exists(p))
        blobs, t = db.store.bulk_read(paths, start)
        out = {}
        files = {}
        for rel, data in blobs.items():
            base = posixpath.basename(rel)
            out[posixpath.join(rank_dst, base)] = data
            files[base] = {"crc32": crc32c(data), "len": len(data)}
        t = lustre.bulk_write(out, t)
        rman = {"rank": db.rank, "files": files}
        t = lustre.write(
            posixpath.join(rank_dst, _RANK_MANIFEST),
            json.dumps(rman).encode(), t,
        )
        return t

    end = db.compaction_worker.schedule(db.clock.now, job)
    # 3. the generation manifest exists only once every rank's files and
    # manifest have landed: it is the snapshot's commit record
    db.coll_comm.barrier()
    if db.rank == 0:
        manifest = {
            "name": db.name,
            "nranks": db.nranks,
            "path": path,
            "generation": gen,
            "format": CHECKPOINT_FORMAT,
        }
        end = lustre.write(
            posixpath.join(gen_dir, _GEN_MANIFEST),
            json.dumps(manifest).encode(), max(end, db.clock.now),
        )
    db.coll_comm.barrier()
    return Event(f"checkpoint:{db.name}:{path}:gen{gen}").complete_at(end)


def _resolved(manifest: dict, gen: int) -> dict:
    """``manifest`` tagged with its generation, if this build reads it."""
    version = manifest.get("format")
    if version != CHECKPOINT_FORMAT:
        raise CorruptionError(
            f"checkpoint layout version {version} is not supported (this "
            f"build reads version {CHECKPOINT_FORMAT}); checkpoint again "
            "from a live database to migrate"
        )
    return {**manifest, "generation": gen}


def read_manifest(machine, path: str, name: str) -> dict:
    """Resolve a snapshot to its newest usable generation's manifest.

    Preference order: the newest *complete* generation; failing that,
    the newest generation with a readable manifest (best-effort restore
    of whatever shards survive).  The returned dict always carries a
    ``generation`` key.  Raises :class:`CorruptionError` when the chosen
    generation was written under another layout version.
    """
    lustre = machine.lustre_store()
    snap = _snapshot_dir(path, name)
    gens = _list_generations(lustre, snap)
    for gen in reversed(gens):
        manifest = _generation_complete(lustre, _gen_dir(snap, gen))
        if manifest is not None:
            return _resolved(manifest, gen)
    for gen in reversed(gens):  # degraded: no generation is complete
        manifest = _read_json(
            lustre, posixpath.join(_gen_dir(snap, gen), _GEN_MANIFEST)
        )
        if manifest is not None:
            return _resolved(manifest, gen)
    raise StorageError(f"no usable snapshot generation under {snap}")


def restore_table_blobs(db, path: str, ssid: int, t: float
                        ) -> Tuple[Optional[dict], float]:
    """Fetch one SSTable's checksum-verified files from a checkpoint.

    The damage ladder's restore rung, starting at ``t``: returns
    ``({filename: bytes}, end)`` for this rank's copy of ``ssid`` in the
    newest complete generation, or ``(None, end)`` when the snapshot
    does not hold a clean copy.
    """
    try:
        manifest = read_manifest(db.ctx.machine, path, db.name)
    except StorageError:
        return None, t
    if int(manifest.get("nranks", -1)) != db.nranks:
        return None, t  # different layout: this rank's shard moved
    lustre = db.ctx.machine.lustre_store()
    rank_dir = posixpath.join(
        _gen_dir(_snapshot_dir(path, db.name), manifest["generation"]),
        f"rank{db.rank}",
    )
    rman = _rank_manifest(lustre, rank_dir)
    if rman is None:
        return None, t
    blobs = {}
    for name in sstable_filenames(ssid):
        info = rman.get("files", {}).get(name)
        if info is None:
            return None, t
        try:
            data, t = lustre.read(posixpath.join(rank_dir, name), t)
        except StorageError:
            return None, t
        if len(data) != info["len"] or crc32c(data) != info["crc32"]:
            return None, t  # the snapshot copy is itself damaged
        blobs[name] = data
    return blobs, t


def restart(env, path: str, name: str,
            options=None, force_redistribute: bool = False
            ) -> Tuple["object", Event]:
    """Collective restart of database ``name`` from a snapshot (§4.2).

    Returns ``(db, event)``; the database contents are guaranteed only
    after ``event.wait()``.  When the snapshot was taken with a
    different rank count (or ``force_redistribute`` is set), every pair
    is re-put through the normal distribution path — "restart with
    redistribution".

    The decision is explicit on the returned event:
    ``event.redistributed`` is True when the redistribution path ran and
    ``event.redistribute_reason`` says why (``"forced"`` or
    ``"rank count changed N->M"``; ``"none"`` for the plain copy path).
    A rank-count change overrides ``force_redistribute=False`` — the
    copy path cannot relocate shards — and emits a ``RuntimeWarning`` on
    rank 0 rather than redistributing silently.
    """
    manifest = read_manifest(env.ctx.machine, path, name)
    snap_nranks = int(manifest["nranks"])
    gen = int(manifest["generation"])
    db = env.open(name, options)
    db._last_checkpoint_path = path
    if force_redistribute:
        redistribute, reason = True, "forced"
    elif snap_nranks != db.nranks:
        redistribute = True
        reason = f"rank count changed {snap_nranks}->{db.nranks}"
        if db.rank == 0:
            warnings.warn(
                f"restart({path!r}, {name!r}): snapshot was taken with "
                f"{snap_nranks} ranks but the job has {db.nranks}; "
                "redistributing despite force_redistribute=False",
                RuntimeWarning,
                stacklevel=2,
            )
    else:
        redistribute, reason = False, "none"
    if redistribute:
        end = _restart_redistribute(env, db, path, name, snap_nranks, gen)
    else:
        end = _restart_copy(env, db, path, name, gen)
    event = Event(f"restart:{name}:{path}").complete_at(end)
    event.redistributed = redistribute
    event.redistribute_reason = reason
    event.on_wait(lambda: _refresh(db))
    return db, event


def _refresh(db) -> None:
    with db._lock:
        db._invalidate_readers()
        db._load_existing_sstables()


def _restart_copy(env, db, path: str, name: str, gen: int) -> float:
    """Same rank count: copy SSTable files back as they are (zero reshuffle).

    Every file is checksum-verified against the rank manifest during the
    copy; a mismatched or missing file is left out and counted.  A lost
    sidecar is the damage ladder's to rebuild on reopen.  A lost SSData
    comes back as a hole — ``*.quar`` files the reopen fences by the
    index's key range, as it fences a hole the snapshot carried — so no
    older table answers for its keys; with no intact index to give that
    range, every rank refuses the restart with :class:`CorruptionError`
    naming the table, before anything is copied.  A carried hole's files
    come back as they are (empty if lost): a hole is never read.
    """
    lustre = env.ctx.machine.lustre_store()
    snap = _snapshot_dir(path, name)
    rank_src = posixpath.join(_gen_dir(snap, gen), f"rank{db.rank}")
    files = (_rank_manifest(lustre, rank_src) or {"files": {}})["files"]
    out = {}

    def verify(start: float) -> float:
        blobs, t = lustre.bulk_read(
            [posixpath.join(rank_src, f) for f in files
             if lustre.exists(posixpath.join(rank_src, f))], start
        )
        got = {posixpath.basename(rel): data for rel, data in blobs.items()}
        for base, info in files.items():
            data = got.get(base)
            if data is not None and len(data) == info["len"] and (
                    crc32c(data) == info["crc32"]):
                out[base] = data
            else:
                db.stats.corruptions_detected += 1
                if base.endswith(QUARANTINE_SUFFIX):
                    out[base] = data or b""
        return t

    db.compaction_worker.schedule(db.clock.now, verify)
    refusal = None
    for base in files:
        if base.endswith(DATA_SUFFIX) and base not in out:
            ssid = int(base[:-len(DATA_SUFFIX)])
            _, index, bloom = sstable_filenames(ssid)
            out.pop(bloom, None)
            blob = out.pop(index, None)
            try:
                parse_index(blob or b"")
            except ValueError:
                refusal = (f"rank {db.rank}: snapshot sstable {ssid} is "
                           "damaged and no intact index gives its key range")
                break
            out[base + QUARANTINE_SUFFIX] = b""
            out[index + QUARANTINE_SUFFIX] = blob
    refusals = [r for r in db.coll_comm.allgather(refusal) if r]
    if refusals:
        raise CorruptionError(refusals[0])

    def copy(start: float) -> float:
        return db.store.bulk_write(
            {posixpath.join(db.rank_dir, base): data
             for base, data in out.items()}, start)

    end = db.compaction_worker.schedule(db.clock.now, copy)
    db.coll_comm.barrier()
    return end


def _restart_redistribute(env, db, path: str, name: str,
                          snap_nranks: int, gen: int) -> float:
    """Different rank count: re-put every pair through the hash path.

    "The compaction thread in each MPI rank reads the SSTables from the
    parallel file system, and calls a put operation for every key-value
    pair ... partitioned across all the MPI ranks and executed in
    parallel" (§4.2).

    A snapshot that holds a quarantined or a damaged table is refused,
    on every rank alike and before any re-put, with
    :class:`CorruptionError`: its key range cannot be fenced on the new
    owners, and re-putting the tables below it would serve their older
    versions.
    """
    lustre = env.ctx.machine.lustre_store()
    snap = _snapshot_dir(path, name)
    for old in range(snap_nranks):
        holes = list_ssids(
            lustre, posixpath.join(_gen_dir(snap, gen), f"rank{old}"),
            DATA_SUFFIX + QUARANTINE_SUFFIX)
        if holes:
            raise CorruptionError(
                f"snapshot rank {old} holds quarantined sstable "
                f"{holes[0]}: a redistributing restart cannot fence its "
                "key range on the new owners")
    # partition the snapshot's rank directories across the new ranks
    my_dirs: List[str] = [
        posixpath.join(_gen_dir(snap, gen), f"rank{old}")
        for old in range(snap_nranks)
        if old % db.nranks == db.rank
    ]
    t = db.clock.now
    tables = []  # ascending: newest puts last win
    damaged = None
    for d in my_dirs:
        for ssid in list_ssids(lustre, d):
            try:
                records, t = SSTableReader(lustre, d, ssid).read_all(t)
            except CorruptionError:
                db.stats.corruptions_detected += 1
                damaged = (f"snapshot {posixpath.basename(d)} sstable "
                           f"{ssid} is damaged")
                break
            tables.append(records)
        if damaged:
            break
    db.clock.advance_to(t)
    refusals = [r for r in db.coll_comm.allgather(damaged) if r]
    if refusals:
        raise CorruptionError(
            f"{refusals[0]}: a redistributing restart would serve the "
            "older versions below it")
    for records in tables:
        for rec in records:
            if rec.tombstone:
                db.delete(rec.key)
            else:
                db.put(rec.key, rec.value)
    # the restored database must be materialized on NVM like a plain
    # restart's copied SSTables, so redistribution includes the rebuild
    db.barrier(config.SSTABLE)
    return db.clock.now


def destroy(db) -> Event:
    """Collective removal of the database and all its NVM data (async)."""
    db._check_open()
    db.fence()
    db.coll_comm.barrier()
    db._stop_handler()
    rank_dir = db.rank_dir

    def job(start: float) -> float:
        return db.store.delete_tree(rank_dir, start)

    end = db.compaction_worker.schedule(db.clock.now, job)
    db.coll_comm.barrier()
    if db.rank == 0:
        end = max(end, db.store.delete(f"{db.dbdir}/meta.json", end))
    db._leave()
    return Event(f"destroy:{db.name}").complete_at(end)
