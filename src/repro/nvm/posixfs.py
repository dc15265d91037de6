"""Costed POSIX file access.

"The PapyrusKV runtime accesses the NVM storages through the standard
POSIX file system interface" (paper §2.3).  :class:`PosixStore` performs
real file I/O under a base directory while charging virtual time to a
timed device resource.  Each call returns the *virtual completion time*
so callers can charge it to the right timeline (main rank clock or the
background compaction worker).

Durability discipline: every :meth:`write` (and each file of a
:meth:`bulk_write`) goes through a unique tmp file, ``fsync``, atomic
``os.replace``, and a directory ``fsync`` — a crash can only ever leave
the old file or the new file, never a torn hybrid.  A non-``None``
``faults`` attribute (a :class:`repro.faults.FaultPlan`) is consulted
around these steps; with faults off the hot path pays one attribute
check.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import List, Optional, Tuple, Union

from repro.errors import StorageError
from repro.simtime.resources import StripedResource, TimedResource

Device = Union[TimedResource, StripedResource]

#: process-wide counter making concurrent tmp files collision-free
_TMP_IDS = itertools.count()


def _fsync_dir(path: str) -> None:
    """Flush a directory's metadata (rename durability); best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class PosixStore:
    """File operations on one (simulated) storage device.

    Parameters
    ----------
    root: directory all paths are resolved under.
    device: the timed resource charged for data transfer.
    extra_latency_s: added per operation (e.g. interconnect hop for a
        burst buffer or Lustre reached through the network).
    """

    def __init__(self, root: str, device: Device,
                 extra_latency_s: float = 0.0,
                 read_device: Optional[Device] = None) -> None:
        self.root = root
        self.device = device
        self.read_device = read_device if read_device is not None else device
        self.extra_latency_s = extra_latency_s
        self.faults = None  # Optional[repro.faults.FaultPlan]
        self.read_cache = None  # the device's BlockCache; Machine sets it
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ paths
    def path(self, *parts: str) -> str:
        """Absolute path under the store root (escape-checked)."""
        p = os.path.join(self.root, *parts)
        ap = os.path.abspath(p)
        if not ap.startswith(os.path.abspath(self.root)):
            raise StorageError(f"path escapes store root: {p}")
        return p

    def makedirs(self, *parts: str) -> str:
        """Create (if needed) and return a directory under the root."""
        p = self.path(*parts)
        os.makedirs(p, exist_ok=True)
        return p

    # ------------------------------------------------------------------ write
    def _atomic_write(self, relpath: str, data: bytes) -> None:
        """tmp file + fsync + atomic rename + dir fsync, with crash sites."""
        plan = self.faults
        p = self.path(relpath)
        if plan is not None:
            plan.at_site(f"posix.write:{relpath}")
            data = plan.filter_write(relpath, data)
        tmp = f"{p}.tmp{next(_TMP_IDS)}"
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            if plan is not None:
                plan.at_site(f"posix.rename:{relpath}")
            os.replace(tmp, p)
            _fsync_dir(os.path.dirname(p))
        except BaseException as exc:  # a crash site too: drop the tmp file
            try:
                os.remove(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise StorageError(str(exc)) from exc
            raise
        if plan is not None:
            plan.at_site(f"posix.synced:{relpath}")

    def write(self, relpath: str, data: bytes, t: float) -> float:
        """Create/overwrite a file atomically and durably; returns the
        virtual completion time."""
        self.makedirs(os.path.dirname(relpath))
        self._atomic_write(relpath, data)
        return self._charge_write(t, len(data))

    # ------------------------------------------------------------------- read
    def read(self, relpath: str, t: float, offset: int = 0,
             length: Optional[int] = None) -> Tuple[bytes, float]:
        """Read (part of) a file; returns (data, virtual completion time).

        A bounded read models one random-access probe: it pays the
        device's read latency plus the transfer of just those bytes —
        the property that makes SSTable binary search profitable on NVM.
        """
        if self.faults is not None:
            self.faults.check_read(relpath)
        p = self.path(relpath)
        try:
            with open(p, "rb") as f:
                if offset:
                    f.seek(offset)
                data = f.read() if length is None else f.read(length)
        except OSError as exc:
            raise StorageError(str(exc)) from exc
        return data, self._charge_read(t, len(data))

    def size(self, relpath: str) -> int:
        """File size in bytes (StorageError if absent)."""
        try:
            return os.path.getsize(self.path(relpath))
        except OSError as exc:
            raise StorageError(str(exc)) from exc

    def exists(self, relpath: str) -> bool:
        """Whether the path exists under the root."""
        return os.path.exists(self.path(relpath))

    def listdir(self, relpath: str = "") -> List[str]:
        """Sorted directory listing ([] if the directory is absent)."""
        p = self.path(relpath) if relpath else self.root
        try:
            return sorted(os.listdir(p))
        except FileNotFoundError:
            return []

    def rename(self, old_rel: str, new_rel: str, t: float) -> float:
        """Atomically rename a file (quarantine); returns completion time."""
        try:
            # the source file is already durable (written by _atomic_write,
            # which fsyncs before publishing); this rename only moves it
            # aside for quarantine, so fsync-before-rename does not apply
            os.replace(  # pkvlint: disable=R002
                self.path(old_rel), self.path(new_rel))
            _fsync_dir(os.path.dirname(self.path(new_rel)))
        except OSError as exc:
            raise StorageError(str(exc)) from exc
        return self._charge_meta(t)

    def delete(self, relpath: str, t: float) -> float:
        """Remove a file (idempotent); returns the completion time."""
        try:
            os.remove(self.path(relpath))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StorageError(str(exc)) from exc
        return self._charge_meta(t)

    def delete_many(self, relpaths: List[str], t: float) -> float:
        """Remove several files as one batched metadata commit.

        Compaction retires a whole round's input tables at once: the
        unlinks share a single metadata round-trip instead of paying a
        full device access per file — per-file charges here serialized
        ahead of foreground flush syncs and dominated the write device
        with zero-byte operations.
        """
        for rel in relpaths:
            try:
                os.remove(self.path(rel))
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise StorageError(str(exc)) from exc
        return self._charge_meta(t)

    def delete_tree(self, relpath: str, t: float) -> float:
        """Remove a directory tree (``papyruskv_destroy``)."""
        import shutil

        p = self.path(relpath)
        n = 1
        if os.path.isdir(p):
            n = sum(len(files) for _, _, files in os.walk(p)) or 1
            shutil.rmtree(p, ignore_errors=True)
        end = t
        for _ in range(n):
            end = self._charge_meta(end)
        return end

    # ------------------------------------------------------------------ bulk
    def bulk_read(self, relpaths, t: float):
        """Stream several files as one bulk transfer (stage-in/out).

        Checkpoint/restart move whole SSTable sets; a staging transfer
        pays one access latency and the aggregate bytes at streaming
        bandwidth, not a metadata round-trip per file.  Returns
        ``({relpath: data}, completion_time)``.
        """
        plan = self.faults
        blobs = {}
        total = 0
        for rel in relpaths:
            if plan is not None:
                plan.check_read(rel)
            p = self.path(rel)
            try:
                with open(p, "rb") as f:
                    blobs[rel] = f.read()
            except OSError as exc:
                raise StorageError(str(exc)) from exc
            total += len(blobs[rel])
        return blobs, self._charge_read(t, total)

    def bulk_write(self, blobs, t: float) -> float:
        """Stream several files out as one bulk transfer.

        Each file still lands via the atomic tmp+fsync+rename path —
        staging performance is a virtual-time property here, durability
        a real one.
        """
        return self.write_ordered(list(blobs.items()), t)

    def write_ordered(self, items: List[Tuple[str, bytes]],
                      t: float) -> float:
        """Write several files *in order* as one batched durable commit.

        The flush pipeline's sync stage lands an SSTable's three files
        (SSData -> SSIndex -> bloom) in one go: each file keeps the
        atomic tmp+fsync+rename discipline and its crash sites, but the
        device is charged once, like a vectored ``pwritev`` burst, so a
        pipelined sync pays one access latency plus the aggregate bytes.
        """
        for directory in {os.path.dirname(rel) for rel, _ in items}:
            self.makedirs(directory)
        total = 0
        for rel, data in items:
            self._atomic_write(rel, data)
            total += len(data)
        return self._charge_write(t, total)

    # ---------------------------------------------------------------- costing
    def _charge_write(self, t: float, nbytes: int) -> float:
        t += self.extra_latency_s
        return self.device.access(t, nbytes)

    def _charge_read(self, t: float, nbytes: int) -> float:
        t += self.extra_latency_s
        dev = self.read_device
        if isinstance(dev, TimedResource):
            # reads on NVM are random-access friendly; don't serialize
            # behind large queued writes as hard as writes do
            return dev.access_concurrent(t, nbytes)
        return dev.access_one(t, nbytes) if nbytes < 64 * 1024 else dev.access(
            t, nbytes
        )

    def _charge_meta(self, t: float) -> float:
        t += self.extra_latency_s
        if isinstance(self.device, StripedResource):
            return self.device.access_one(t, 0)
        return self.device.access(t, 0)
