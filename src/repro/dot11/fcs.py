"""IEEE 802 frame check sequence (CRC-32).

802.11 frames end in a 32-bit FCS computed with the standard IEEE CRC-32
polynomial (0x04C11DB7, reflected form 0xEDB88320) — exactly
``zlib.crc32``, which ``crc32`` calls. The table-driven reference the
``fcs-vs-zlib`` oracle compares it against lives in
:mod:`repro.check.analytic`.
"""

from __future__ import annotations

import zlib


def crc32(data: bytes) -> int:
    """Compute the IEEE CRC-32 of ``data`` (init all-ones, final XOR
    all-ones), so captures produced here validate against standard
    tooling."""
    return zlib.crc32(data)


def append_fcs(frame_body: bytes) -> bytes:
    """Return ``frame_body`` with its 4-byte little-endian FCS appended."""
    return frame_body + crc32(frame_body).to_bytes(4, "little")


def check_fcs(frame: bytes) -> bool:
    """Validate the trailing FCS of an over-the-air frame.

    Returns False for frames shorter than the FCS itself rather than
    raising: a truncated capture is simply a bad frame.
    """
    if len(frame) < 4:
        return False
    body, trailer = frame[:-4], frame[-4:]
    return crc32(body).to_bytes(4, "little") == trailer


def strip_fcs(frame: bytes) -> bytes:
    """Remove a validated FCS; raises ``ValueError`` if the FCS is bad."""
    if not check_fcs(frame):
        raise ValueError("bad FCS")
    return frame[:-4]
