"""The one checksum of the on-disk format (since SSTable format 3).

The format protects every SSData block, sidecar file and checkpoint
file with CRC-32/ISO-HDLC — the zlib/PNG/Ethernet CRC,
reflected polynomial 0xEDB88320, check value ``0xCBF43926`` for
``b"123456789"`` — computed by the stdlib's C routine ``zlib.crc32``.
It gives the same 32-bit guarantees as the Castagnoli CRC of format 2
(every burst error up to 32 bits, every odd number of bit flips) at
memory speed rather than interpreter speed, with nothing to install.

:func:`crc32c` is the module's single entry point and keeps its
format-2 name for now: the benchmark tracer observes this layer by
wrapping the Python-level function of that name, so renaming it (or
binding the C builtin directly) would blind ``util.checksum.*``.
"""

from __future__ import annotations

import zlib


def crc32c(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC-32/ISO-HDLC of ``data``, optionally continuing from ``crc``.

    ``data`` is any contiguous buffer (``bytes``, ``bytearray``,
    ``memoryview``) — pass a ``memoryview`` slice to checksum part of a
    buffer without copying it.  Despite the name this is *not* the
    Castagnoli polynomial; see the module docstring.
    """
    return zlib.crc32(data, crc)
