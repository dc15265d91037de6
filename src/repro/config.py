"""Database options and artifact-style environment configuration.

Mirrors ``papyruskv_option_t`` plus the environment variables the
paper's artifact uses (``PAPYRUSKV_CONSISTENCY``, ``PAPYRUSKV_GROUP_SIZE``,
``PAPYRUSKV_BIN_SEARCH``, ``PAPYRUSKV_CACHE_REMOTE``,
``PAPYRUSKV_REPOSITORY``, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.errors import InvalidModeError, InvalidOptionError, InvalidProtectionError
from repro.util.hashing import HashFunction

# --- consistency modes (artifact: PAPYRUSKV_CONSISTENCY=1 seq, =2 relaxed)
SEQUENTIAL = 1
RELAXED = 2

# --- protection attributes
RDWR = 0
WRONLY = 1
RDONLY = 2

# --- barrier flush levels
MEMTABLE = 0
SSTABLE = 1

# --- open flags (bitmask)
CREATE = 0x1
RDONLY_OPEN = 0x2

_CONSISTENCY_NAMES = {SEQUENTIAL: "sequential", RELAXED: "relaxed"}
_PROTECTION_NAMES = {RDWR: "rdwr", WRONLY: "wronly", RDONLY: "rdonly"}

KB = 1024
MB = 1024 * KB


def consistency_name(mode: int) -> str:
    """Human-readable name of a consistency mode constant."""
    try:
        return _CONSISTENCY_NAMES[mode]
    except KeyError:
        raise InvalidModeError(f"unknown consistency mode {mode}") from None


@dataclass(frozen=True, kw_only=True)
class Options:
    """Per-database configuration (``papyruskv_option_t``).

    The paper lets programmers configure "MemTable capacity, cache
    on/off, cache capacity, memory consistency mode, protection
    attribute, and custom hash function" (§2.3).

    Fields are keyword-only and validated at construction, so a
    misconfigured database (negative MemTable size, unknown consistency
    or protection constant, fields swapped positionally) fails fast at
    the ``Options(...)`` call instead of deep in the put path.

    Reading another rank's keys has no knob of its own: a get asks the
    owner's handler (§2.4), and a requester in the owner's storage
    group (``group_size``) reads the owner's SSTables itself after a
    ``NOT_IN_MEMORY`` reply (§2.7).
    """

    #: MemTable capacity in bytes (paper evaluation: 1 GB; tests use small
    #: values to exercise flushing)
    memtable_capacity: int = 4 * MB
    #: remote MemTable capacity (migration batch size)
    remote_memtable_capacity: int = 1 * MB
    consistency: int = RELAXED
    protection: int = RDWR
    #: enable the local (SSTable-hit) cache
    cache_local_enabled: bool = True
    cache_local_capacity: int = 8 * MB
    #: remote cache capacity; the cache only activates under RDONLY
    cache_remote_capacity: int = 8 * MB
    #: custom hash function (None = built-in FNV-1a)
    hash_fn: Optional[HashFunction] = None
    #: storage group size; None = architecture default
    group_size: Optional[int] = None
    #: binary (True) vs sequential (False) SSTable search
    binary_search: bool = True
    #: flushing-queue capacity (immutable local MemTables in flight)
    flush_queue_capacity: int = 4
    #: compact once this many SSTables have been flushed since the last
    #: compaction round (0 disables)
    compaction_interval: int = 8
    #: consult bloom filters on gets (ablation knob; the files are
    #: always written so the setting can change on reopen)
    bloom_enabled: bool = True
    #: this rank's contribution to the byte budget of its storage
    #: device's read cache (see :mod:`repro.sstable.block_cache`)
    block_cache_capacity: int = 16 * MB
    #: repository selector: "nvm" or "lustre"; None inherits the
    #: environment's repository (``papyruskv_init`` argument)
    repository: Optional[str] = None
    #: wall-clock seconds to wait for a remote reply before retrying;
    #: None waits forever (the pre-fault-tolerance behavior)
    remote_timeout: Optional[float] = None
    #: how many times a timed-out remote request is retried (with
    #: exponential backoff) before raising RemoteTimeoutError
    remote_retries: int = 3
    #: number of ranks holding each key (1 = the paper's unreplicated
    #: placement: owner only).  With R > 1 every put fans out to the key's
    #: replica group — the owner plus the next R-1 live ranks on the hash
    #: ring — and rank failure no longer takes a key range offline
    replicas: int = 1
    #: how many durable copies a put waits for before it is acknowledged
    #: (counts the writer's own copy when it is a group member); must satisfy
    #: ``1 <= write_quorum <= replicas``
    write_quorum: int = 1

    def __post_init__(self) -> None:
        if self.memtable_capacity <= 0 or self.remote_memtable_capacity <= 0:
            raise InvalidOptionError("MemTable capacities must be positive")
        if self.consistency not in _CONSISTENCY_NAMES:
            raise InvalidModeError(f"unknown consistency {self.consistency}")
        if self.protection not in _PROTECTION_NAMES:
            raise InvalidProtectionError(f"unknown protection {self.protection}")
        if self.cache_local_capacity <= 0 or self.cache_remote_capacity <= 0:
            raise InvalidOptionError("cache capacities must be positive")
        if self.flush_queue_capacity <= 0:
            raise InvalidOptionError("flush_queue_capacity must be positive")
        if self.compaction_interval < 0:
            raise InvalidOptionError("compaction_interval must be >= 0")
        if self.block_cache_capacity <= 0:
            raise InvalidOptionError("block_cache_capacity must be positive")
        if self.repository not in (None, "nvm", "lustre"):
            raise InvalidOptionError(
                f"repository must be 'nvm' or 'lustre', got {self.repository!r}"
            )
        if self.group_size is not None and self.group_size <= 0:
            raise InvalidOptionError("group_size must be positive")
        if self.remote_timeout is not None and self.remote_timeout <= 0:
            raise InvalidOptionError("remote_timeout must be positive or None")
        if self.remote_retries < 0:
            raise InvalidOptionError("remote_retries must be >= 0")
        if self.replicas < 1:
            raise InvalidOptionError("replicas must be >= 1")
        if not 1 <= self.write_quorum <= self.replicas:
            raise InvalidOptionError(
                f"write_quorum must satisfy 1 <= Q <= replicas, got "
                f"Q={self.write_quorum} R={self.replicas}"
            )

    def with_(self, **kw) -> "Options":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


def options_from_env(env: Optional[Mapping[str, str]] = None,
                     base: Optional[Options] = None) -> Options:
    """Build options from ``PAPYRUSKV_*`` variables, artifact-style.

    Recognized: ``PAPYRUSKV_CONSISTENCY`` (1=sequential, 2=relaxed),
    ``PAPYRUSKV_GROUP_SIZE``, ``PAPYRUSKV_BIN_SEARCH`` (1=sequential scan,
    2=binary search — the artifact's encoding), ``PAPYRUSKV_CACHE_REMOTE``
    (1 enables RDONLY remote caching by default), ``PAPYRUSKV_MEMTABLE_SIZE``
    (bytes), ``PAPYRUSKV_REPOSITORY`` (containing "lustre" selects the
    parallel file system), ``PAPYRUSKV_BLOCK_CACHE`` (byte budget of the
    shared SSData block cache), ``PAPYRUSKV_REPLICAS`` (copies per key),
    and ``PAPYRUSKV_WRITE_QUORUM`` (durable copies a put waits for).
    """
    env = os.environ if env is None else env
    opt = base or Options()
    if "PAPYRUSKV_CONSISTENCY" in env:
        opt = opt.with_(consistency=int(env["PAPYRUSKV_CONSISTENCY"]))
    if "PAPYRUSKV_GROUP_SIZE" in env:
        opt = opt.with_(group_size=int(env["PAPYRUSKV_GROUP_SIZE"]))
    if "PAPYRUSKV_BIN_SEARCH" in env:
        opt = opt.with_(binary_search=int(env["PAPYRUSKV_BIN_SEARCH"]) >= 2)
    if "PAPYRUSKV_MEMTABLE_SIZE" in env:
        opt = opt.with_(memtable_capacity=int(env["PAPYRUSKV_MEMTABLE_SIZE"]))
    if "PAPYRUSKV_REPOSITORY" in env:
        repo = env["PAPYRUSKV_REPOSITORY"]
        opt = opt.with_(
            repository="lustre" if "lustre" in repo.lower() else "nvm"
        )
    if "PAPYRUSKV_BLOCK_CACHE" in env:
        opt = opt.with_(block_cache_capacity=int(env["PAPYRUSKV_BLOCK_CACHE"]))
    if "PAPYRUSKV_REPLICAS" in env:
        replicas = int(env["PAPYRUSKV_REPLICAS"])
        # keep the pair valid: shrinking R below the current quorum
        # drags the quorum down with it
        opt = opt.with_(replicas=replicas,
                        write_quorum=min(opt.write_quorum, replicas))
    if "PAPYRUSKV_WRITE_QUORUM" in env:
        opt = opt.with_(write_quorum=int(env["PAPYRUSKV_WRITE_QUORUM"]))
    return opt
