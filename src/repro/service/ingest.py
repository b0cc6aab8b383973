"""Wire-format beacon → Wi-LE payload extraction at production rates.

The receive path the rest of the repo uses
(:func:`repro.dot11.parser.parse_frame` →
:func:`repro.core.codec.decode_beacon` →
:class:`repro.core.payload.WileMessage`) builds full typed objects for
every element of every frame — ideal for tests and tooling, but ~60 µs
per beacon, which caps a single core below the gateway's 1M
payloads/minute target. This module is the same parse expressed as
byte-offset arithmetic over the raw frame:

* FCS via :func:`zlib.crc32`, the same stdlib call behind
  :func:`repro.dot11.fcs.crc32`;
* one information-element walk (:func:`find_wile_blob`, shared with
  :func:`peek_device_id` and the stream generator's corruptor) to find
  the Wi-LE vendor IE (OUI + vendor type) and enforce the hidden-SSID
  rule, no element objects materialised;
* the message header in one ``struct.unpack_from``, the CRC-16 via
  :func:`repro.core.payload.crc16_ccitt` (stdlib ``binascii``), and the
  sensor TLVs decoded straight to ``(kind, value)`` pairs.

**Contract:** for every frame the full parser accepts as a Wi-LE
beacon, :func:`extract_payload` returns the same device id, sequence,
type, flags and numeric readings; for everything else it raises
:class:`IngestError` (it never returns a wrong answer). That
equivalence is differentially pinned in ``tests/test_service.py`` over
randomized messages, flag combinations and corruptions.

:func:`decode_batch` is the unit the process pool fans out over: a
batch of raw frames in, one partial per-tenant aggregate state out.
"""

from __future__ import annotations

import os
import signal
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

from ..core.payload import WILE_VENDOR_TYPE, WILE_VERSION, crc16_ccitt
from ..dot11.mac import WILE_OUI
from .tenants import DEFAULT_TENANT_BITS, TenantAggregate


class IngestError(ValueError):
    """Raised for frames that are not intact Wi-LE beacons."""


@dataclass(frozen=True, slots=True)
class BeaconPayload:
    """The decoded fields the aggregation layer consumes.

    ``readings`` holds numeric ``(kind, value)`` pairs; RAW (opaque
    bytes) readings are skipped — the service meters them via ``size``
    but has no numeric summary to fold them into. Encrypted and
    fragment payloads carry no readings (the service counts them
    without keys or reassembly state).
    """

    device_id: int
    sequence: int
    message_type: int
    size: int
    encrypted: bool
    fragment: bool
    readings: tuple[tuple[int, float], ...]


_MGMT_HEADER = 24
_FIXED_PARAMS = 12   # timestamp(8) + interval(2) + capabilities(2)
_FCS_BYTES = 4
_SSID_IE = 0
_VENDOR_IE = 221
_OUI_TYPE = WILE_OUI + bytes([WILE_VENDOR_TYPE])

_MSG_HEADER = struct.Struct("<BIHBB")
_MSG_CRC_BYTES = 2

_FLAG_ENCRYPTED = 0x01
_FLAG_RX_WINDOW = 0x02
_FLAG_FRAGMENT = 0x04
_KNOWN_FLAGS = 0x07

# Sensor TLV decoders, by kind byte (mirrors payload._decode_value; the
# differential test pins the two against each other).
_INT16 = struct.Struct("<h")
_UINT16 = struct.Struct("<H")
_UINT32 = struct.Struct("<I")
_KIND_RAW = 0x7F
# Exact value sizes per numeric kind: what the encoder emits and what
# the full parser's struct.unpack requires. A CRC-valid TLV declaring
# any other length is malformed — decoding it anyway would read value
# bytes out of the CRC or the next TLV.
_KIND_SIZES = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4}


def find_wile_blob(wire: bytes) -> tuple[int, int, bool]:
    """Walk a raw beacon's information elements once, building no
    element objects.

    Returns ``(start, end, visible_ssid)``: the offsets of the message
    blob in the first Wi-LE vendor IE (OUI + vendor type), or
    ``(-1, -1)`` if there is none; and whether the first SSID element
    names a network. Like the full parser, the walk ends at the FCS or
    at an element overrunning it, and takes only SSID bodies of at most
    32 bytes as an SSID (it keeps longer ones as raw elements).
    """
    pos = _MGMT_HEADER + _FIXED_PARAMS
    end = len(wire) - _FCS_BYTES
    start = stop = -1
    visible_ssid = None
    while pos + 2 <= end:
        element_id = wire[pos]
        length = wire[pos + 1]
        value_end = pos + 2 + length
        if value_end > end:
            break
        if element_id == _VENDOR_IE and start < 0 and length >= 4 \
                and wire[pos + 2:pos + 6] == _OUI_TYPE:
            start, stop = pos + 6, value_end
        elif element_id == _SSID_IE and visible_ssid is None \
                and length <= 32:
            visible_ssid = length > 0
        pos = value_end
    return start, stop, bool(visible_ssid)


def extract_payload(wire: bytes, check_fcs: bool = True) -> BeaconPayload:
    """Parse one over-the-air frame into a :class:`BeaconPayload`.

    Raises :class:`IngestError` unless ``wire`` is an intact (FCS-valid)
    802.11 beacon with a hidden SSID carrying an intact (CRC-valid)
    Wi-LE vendor IE.
    """
    n = len(wire)
    if n < _MGMT_HEADER + _FIXED_PARAMS + _FCS_BYTES:
        raise IngestError("frame too short for a beacon")
    # Frame control: version 0, management type, beacon subtype, no
    # DS/order flags — exactly what an injected (or real) beacon sends.
    if wire[0] != 0x80 or wire[1] != 0x00:
        raise IngestError("not a plain beacon frame")
    if check_fcs and zlib.crc32(wire[:n - 4]) != int.from_bytes(
            wire[n - 4:], "little"):
        raise IngestError("FCS mismatch")
    start, end, visible_ssid = find_wile_blob(wire)
    if start < 0:
        raise IngestError("no intact Wi-LE vendor IE")
    if visible_ssid:
        raise IngestError("Wi-LE beacons must use a hidden SSID")
    try:
        return decode_message_blob(wire[start:end])
    except struct.error as error:
        # Defence in depth: the explicit length checks should make this
        # unreachable, but a short read must reject, never escape raw.
        raise IngestError(f"malformed message structure: {error}") from None


def decode_message_blob(blob: bytes) -> BeaconPayload:
    """Decode one vendor-IE data field (the Wi-LE application message)."""
    size = len(blob)
    body_end = size - _MSG_CRC_BYTES
    if size < _MSG_HEADER.size + _MSG_CRC_BYTES:
        raise IngestError("message too short")
    if crc16_ccitt(blob[:body_end]) != (blob[body_end]
                                        | (blob[body_end + 1] << 8)):
        raise IngestError("message CRC16 mismatch")
    version, device_id, sequence, message_type, flags = \
        _MSG_HEADER.unpack_from(blob)
    if version != WILE_VERSION:
        raise IngestError(f"unsupported Wi-LE version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise IngestError(f"unknown flag bits {flags:#04x}")
    pos = _MSG_HEADER.size
    if flags & _FLAG_RX_WINDOW:
        pos += 2
    fragment = bool(flags & _FLAG_FRAGMENT)
    if fragment:
        pos += 2
    if pos > body_end:
        raise IngestError("message extras overrun the body")
    encrypted = bool(flags & _FLAG_ENCRYPTED)
    readings: tuple[tuple[int, float], ...] = ()
    if not (encrypted or fragment):
        readings = _decode_readings(blob, pos, body_end)
    return BeaconPayload(device_id=device_id, sequence=sequence,
                         message_type=message_type, size=size,
                         encrypted=encrypted, fragment=fragment,
                         readings=readings)


def _decode_readings(blob: bytes, pos: int,
                     end: int) -> tuple[tuple[int, float], ...]:
    readings = []
    while pos < end:
        if pos + 2 > end:
            raise IngestError("truncated reading TLV header")
        kind = blob[pos]
        length = blob[pos + 1]
        value_end = pos + 2 + length
        if value_end > end:
            raise IngestError("truncated reading TLV value")
        if kind == _KIND_RAW:
            pos = value_end
            continue          # opaque bytes: metered by size only
        expected = _KIND_SIZES.get(kind)
        if expected is None:
            raise IngestError(f"unknown sensor kind {kind}")
        if length != expected:
            raise IngestError(f"sensor kind {kind} TLV declares {length}B, "
                              f"expected {expected}B")
        if kind == 1:        # TEMPERATURE_C: int16 centi-degrees
            value = _INT16.unpack_from(blob, pos + 2)[0] / 100.0
        elif kind == 2:      # HUMIDITY_PCT: uint16 centi-percent
            value = _UINT16.unpack_from(blob, pos + 2)[0] / 100.0
        elif kind == 3:      # BATTERY_MV
            value = float(_UINT16.unpack_from(blob, pos + 2)[0])
        else:                # PRESSURE_PA / COUNTER: uint32
            value = float(_UINT32.unpack_from(blob, pos + 2)[0])
        readings.append((kind, value))
        pos = value_end
    return tuple(readings)


def peek_device_id(wire: bytes) -> int | None:
    """The Wi-LE device id of a frame, or ``None`` if it cannot be read.

    A *routing* parse, not a validating one: no FCS, no message CRC, no
    SSID rule — just the IE walk and the header unpack. The federation
    layer partitions streams with it, so it must be a pure function of
    the bytes (same frame, same answer, every process) but must never
    reject: a frame too mangled to route still has to land on *some*
    deterministic partition to have its decode error counted exactly
    once.
    """
    if wire[:1] != b"\x80":
        return None
    start, end, _ = find_wile_blob(wire)
    if end - start < _MSG_HEADER.size:
        return None
    return _MSG_HEADER.unpack_from(wire, start)[1]


def decode_wires(wires: Sequence[bytes]) -> tuple[list[BeaconPayload], int]:
    """Decode one batch of raw frames into payloads, preserving order.

    Returns ``(payloads, errors)``: the decodable frames' payloads in
    stream order, plus the count of undecodable frames (dropped, never
    fatal — one mangled capture must not take the service down).
    Tenancy is resolved where the payloads are observed.
    """
    payloads: list[BeaconPayload] = []
    errors = 0
    for wire in wires:
        try:
            payloads.append(extract_payload(wire))
        except (IngestError, struct.error):
            errors += 1
    return payloads, errors


def decode_batch(wires: Sequence[bytes],
                 tenant_bits: int = DEFAULT_TENANT_BITS,
                 ) -> tuple[dict[int, dict], int]:
    """Decode one batch into partial per-tenant aggregate states.

    Returns ``(states, errors)`` where ``states`` maps tenant id to the
    exact :meth:`TenantAggregate.to_state` of this batch's partial, and
    ``errors`` counts undecodable frames. The live service no longer
    merges these partials (it observes :func:`decode_wires` payloads in
    stream order, which makes aggregates independent of batch
    boundaries); this form remains the compact unit for offline tools
    and the differential tests that pin partial-merge exactness.
    """
    payloads, errors = decode_wires(wires)
    partials: dict[int, TenantAggregate] = {}
    for payload in payloads:
        tenant_id = payload.device_id >> tenant_bits
        aggregate = partials.get(tenant_id)
        if aggregate is None:
            aggregate = partials[tenant_id] = TenantAggregate(
                tenant_id=tenant_id)
        aggregate.observe(payload)
    return ({tenant_id: aggregate.to_state()
             for tenant_id, aggregate in partials.items()}, errors)


def decode_batch_task(task: tuple) -> tuple[int, list[BeaconPayload], int]:
    """Worker-side unit of fan-out (module-level so it pickles).

    ``task`` is ``(batch_id, wires, chaos_dir, chaos_kill_batch)``;
    the result is ``(batch_id, payloads, errors)`` with payloads in
    stream order, so the server can observe them sequentially. The
    chaos hook mirrors the fleet shard runner: the *first* attempt at
    the named batch SIGKILLs its own worker (marker file first, so the
    retry proceeds), which is how the chaos smoke proves a killed
    worker loses no aggregates.
    """
    batch_id, wires, chaos_dir, chaos_kill_batch = task
    if chaos_kill_batch is not None and batch_id == chaos_kill_batch \
            and chaos_dir is not None:
        marker = os.path.join(chaos_dir, f"chaos_kill_{batch_id}.marker")
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write("killed once\n")
            os.kill(os.getpid(), signal.SIGKILL)
    payloads, errors = decode_wires(wires)
    return batch_id, payloads, errors
