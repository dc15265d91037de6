"""Error codes and exceptions mirroring the PapyrusKV C API.

The paper's API functions all return a 32-bit integer error code
(``PAPYRUSKV_SUCCESS``, ``PAPYRUSKV_NOT_FOUND``, ...).  The Pythonic
object API raises exceptions instead; the functional compatibility API in
:mod:`repro.core.api` translates exceptions back into these codes.
"""

from __future__ import annotations

import enum
from typing import Optional


class ErrorCode(enum.IntEnum):
    """Integer error codes returned by the functional ``papyruskv_*`` API."""

    SUCCESS = 0
    NOT_FOUND = 1
    INVALID_DB = 2
    INVALID_KEY = 3
    INVALID_VALUE = 4
    INVALID_OPTION = 5
    INVALID_MODE = 6
    INVALID_PROTECTION = 7
    INVALID_EVENT = 8
    INVALID_RANK = 9
    PROTECTED = 10
    CLOSED = 11
    IO_ERROR = 12
    NOT_INITIALIZED = 13
    INTERNAL = 14
    CORRUPTED = 15
    TIMEOUT = 16
    # 17 (REPLICA_STALE, an error nothing raised) stays unused
    MEMBERSHIP_EPOCH = 18
    QUORUM_LOST = 19
    # 20 (METADATA_STALE, the deleted index-replication plane) stays unused


#: Aliases matching the paper's spelling.
PAPYRUSKV_SUCCESS = ErrorCode.SUCCESS
PAPYRUSKV_NOT_FOUND = ErrorCode.NOT_FOUND
PAPYRUSKV_INVALID_DB = ErrorCode.INVALID_DB


class PapyrusError(Exception):
    """Base class for all PapyrusKV errors.

    Each subclass carries the :class:`ErrorCode` equivalent so the
    functional API can translate it.
    """

    code = ErrorCode.INTERNAL


class KeyNotFoundError(PapyrusError, KeyError):
    """The requested key does not exist (or is a tombstone)."""

    code = ErrorCode.NOT_FOUND


class InvalidDatabaseError(PapyrusError):
    """The database handle is invalid or already closed."""

    code = ErrorCode.INVALID_DB


class InvalidKeyError(PapyrusError, ValueError):
    """The key is empty or not a byte string."""

    code = ErrorCode.INVALID_KEY


class InvalidValueError(PapyrusError, ValueError):
    """The value is not a byte string."""

    code = ErrorCode.INVALID_VALUE


class InvalidOptionError(PapyrusError, ValueError):
    """A database option is malformed."""

    code = ErrorCode.INVALID_OPTION


class InvalidModeError(PapyrusError, ValueError):
    """Unknown consistency mode."""

    code = ErrorCode.INVALID_MODE


class InvalidProtectionError(PapyrusError, ValueError):
    """Unknown protection attribute."""

    code = ErrorCode.INVALID_PROTECTION


class ProtectionError(PapyrusError):
    """The operation conflicts with the database protection attribute

    (e.g. a put on a ``RDONLY`` database or a get on a ``WRONLY`` one).
    """

    code = ErrorCode.PROTECTED


class DatabaseClosedError(InvalidDatabaseError):
    """Operation attempted on a closed database."""

    code = ErrorCode.CLOSED


class NotInitializedError(PapyrusError):
    """The PapyrusKV environment has not been initialized."""

    code = ErrorCode.NOT_INITIALIZED


class StorageError(PapyrusError, OSError):
    """An error surfaced from the (simulated) NVM storage layer."""

    code = ErrorCode.IO_ERROR


class CorruptionError(StorageError, ValueError):
    """On-disk bytes failed checksum or structural validation.

    Subclasses :class:`StorageError` (it is a storage-layer failure and
    degrades like one) and :class:`ValueError` (pre-v2 callers caught
    the format layer's bare ``ValueError``).  ``ssid`` names the table
    a reader found damaged (None: a quarantined range, already fenced).
    """

    code = ErrorCode.CORRUPTED
    ssid: Optional[int] = None


class TornWriteError(CorruptionError):
    """A file is shorter than its committed metadata says it must be —
    the signature of a write torn by a crash or a lying fsync."""

    code = ErrorCode.CORRUPTED


class RemoteTimeoutError(PapyrusError, TimeoutError):
    """A remote rank did not reply within the retry budget; ``rank``
    names it when one request went unanswered (``None`` for a drain)."""

    code = ErrorCode.TIMEOUT

    def __init__(self, message: str = "",
                 rank: Optional[int] = None) -> None:
        super().__init__(message)
        self.rank = rank


class ReplicationError(PapyrusError):
    """Base class for replication-plane failures.

    Raised only when ``Options(replicas=...)`` is greater than one; the
    unreplicated paths never see these.
    """

    code = ErrorCode.INTERNAL


class MembershipEpochError(ReplicationError):
    """A message carried a membership epoch that can no longer be
    honoured — most seriously, a rank learned that the rest of the group
    declared *it* dead.  In-flight traffic from a dead epoch is rejected
    deterministically (the sender re-routes against the current view);
    a self-death notice is unrecoverable and surfaces as this error."""

    code = ErrorCode.MEMBERSHIP_EPOCH


class QuorumLostError(ReplicationError):
    """Fewer live replicas remain than ``write_quorum`` requires, so an
    acknowledged-durable put is impossible; the write is refused rather
    than silently under-replicated."""

    code = ErrorCode.QUORUM_LOST


def code_of(exc: BaseException) -> ErrorCode:
    """Map an exception to the closest :class:`ErrorCode`."""
    if isinstance(exc, PapyrusError):
        return exc.code
    if isinstance(exc, KeyError):
        return ErrorCode.NOT_FOUND
    if isinstance(exc, TimeoutError):
        return ErrorCode.TIMEOUT
    if isinstance(exc, (OSError, IOError)):
        return ErrorCode.IO_ERROR
    return ErrorCode.INTERNAL
