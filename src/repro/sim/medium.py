"""The shared wireless medium: propagation, interference, delivery.

All radios attached to a :class:`WirelessMedium` share the channel the
way real 2.4 GHz devices do: a transmission occupies the air for its
computed airtime; receivers on the same channel decode it if the link
SNR supports the PHY rate *and* no overlapping transmission drowns it
out (with physical-layer capture if one signal is much stronger).

Collisions matter for the paper's §6 multi-device discussion — two Wi-LE
sensors transmitting in the same slot lose both beacons unless one
captures — and the jitter study shows the overlap decaying over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from ..dot11.airtime import frame_airtime_us
from ..dot11.channels import channel_frequency_hz
from ..dot11.rates import PhyRate
from ..phy.link import frame_delivered
from ..phy.pathloss import noise_floor_dbm, received_power_dbm
from .engine import Simulator

if TYPE_CHECKING:
    from .radio import Radio


@dataclass(frozen=True, slots=True)
class Position:
    """A point in the 2-D deployment plane, metres."""

    x_m: float = 0.0
    y_m: float = 0.0

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x_m - other.x_m, self.y_m - other.y_m)


@dataclass
class Transmission:
    """One frame in flight on the medium."""

    sender: "Radio"
    frame: object
    frame_bytes: bytes
    rate: PhyRate
    power_dbm: float
    channel: int
    start_s: float
    end_s: float
    overlapping: list["Transmission"] = field(default_factory=list)

    @property
    def airtime_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class DeliveryReport:
    """Why a frame did or did not arrive at one receiver (for tests/stats)."""

    receiver: "Radio"
    delivered: bool
    reason: str
    snr_db: float


class MediumError(RuntimeError):
    """Raised for protocol-impossible medium operations."""


class WirelessMedium:
    """The 2.4 GHz channel shared by every attached radio.

    Args:
        sim: the event engine driving completion callbacks.
        path_loss_exponent: log-distance exponent (3.0 ~ light indoor).
        capture_threshold_db: SINR above which the stronger of two
            overlapping frames still decodes (physical-layer capture).
        min_distance_m: radios closer than this are clamped apart, since
            the path-loss model diverges at zero distance.
        max_range_m: optional hard delivery cutoff. A receiver farther
            than this from the transmitter gets no delivery decision at
            all — no report, no counters — and, when set, listening
            radios are spatially indexed so completion cost scales with
            radios *in range*, not radios attached. The sharded fleet
            runner (:mod:`repro.fleet.shards`) relies on the cutoff for
            its invariance guarantee: with a halo at least as wide as
            every cutoff, a shard sees every transmitter that can
            physically affect its receivers, so sharded and unsharded
            runs produce identical delivery decisions.
        interference_range_m: optional hard cutoff for interference
            contributions (defaults to ``max_range_m``). Kept separate
            because interference stays relevant well past the distance
            at which a frame can still be decoded.
    """

    def __init__(self, sim: Simulator, path_loss_exponent: float = 3.0,
                 capture_threshold_db: float = 10.0,
                 bandwidth_hz: float = 20e6,
                 min_distance_m: float = 0.1,
                 max_range_m: float | None = None,
                 interference_range_m: float | None = None) -> None:
        if max_range_m is not None and max_range_m <= 0:
            raise MediumError(f"max range must be positive, got {max_range_m}")
        if interference_range_m is not None and interference_range_m <= 0:
            raise MediumError(
                f"interference range must be positive, got {interference_range_m}")
        self.sim = sim
        self.path_loss_exponent = path_loss_exponent
        self.capture_threshold_db = capture_threshold_db
        self.bandwidth_hz = bandwidth_hz
        self.min_distance_m = min_distance_m
        self.max_range_m = max_range_m
        self.interference_range_m = (interference_range_m
                                     if interference_range_m is not None
                                     else max_range_m)
        self._radios: list[Radio] = []
        # Radios whose receiver is currently on, mapped to their attach
        # index. Completion scans only these instead of every attached
        # radio — at fleet scale almost all radios are asleep, so this
        # turns the per-transmission cost from O(attached) into
        # O(listening). Iteration stays in attach order for determinism.
        self._listening: dict[Radio, int] = {}
        self._attach_index: dict[Radio, int] = {}
        # With a delivery cutoff, listening radios are additionally
        # bucketed into a grid of max_range-sized cells (keyed by the
        # radio's position at power-on; a radio that moves while
        # listening must be relocated via :meth:`move_radio` to keep
        # its bucket current). Completion then scans only the 3x3
        # neighbourhood around the sender, which covers every radio
        # within range.
        self._cells: dict[tuple[int, int], dict[Radio, int]] = {}
        self._radio_cell: dict[Radio, tuple[int, int]] = {}
        self._active: list[Transmission] = []
        self.frames_transmitted = 0
        self.frames_delivered = 0
        self.frames_lost_collision = 0
        self.frames_lost_snr = 0
        self.frames_lost_injected = 0
        #: Fault injection for tests: ``(transmission, radio) -> True``
        #: drops that delivery (models deep fades, interference bursts).
        self.fault_injector: Callable[[Transmission, "Radio"], bool] | None = None
        #: Optional per-link SNR degradation hook:
        #: ``(transmission, radio) -> extra path loss in dB`` subtracted
        #: from the received *signal* power only (interferers keep their
        #: full strength — a fade on the wanted link does not quiet the
        #: rest of the band). Used by :mod:`repro.faults` for
        #: deterministic degradation windows.
        self.link_impairment: Callable[[Transmission, "Radio"], float] | None = None
        self._delivery_listeners: list[Callable[[Transmission, DeliveryReport], None]] = []

    # -- membership --------------------------------------------------------

    def attach(self, radio: "Radio") -> None:
        if radio in self._attach_index:
            raise MediumError("radio already attached")
        self._attach_index[radio] = len(self._radios)
        self._radios.append(radio)
        self.radio_state_changed(radio)

    def detach(self, radio: "Radio") -> None:
        """Remove ``radio`` from the medium.

        Safe while transmissions are in flight: a frame already on the
        air still completes, but the detached radio is no longer a
        candidate receiver, so it gets no delivery (and no report).
        """
        if radio not in self._attach_index:
            raise MediumError("radio is not attached")
        self._radios.remove(radio)
        del self._attach_index[radio]
        self._listening.pop(radio, None)
        self._drop_from_cells(radio)

    def radio_state_changed(self, radio: "Radio") -> None:
        """Keep the listening set in sync; called by the radio on every
        state transition (and by :meth:`attach`)."""
        index = self._attach_index.get(radio)
        if index is None:
            return
        if radio.is_receiver_on():
            self._listening[radio] = index
            if self.max_range_m is not None and radio not in self._radio_cell:
                cell = (int(radio.position.x_m // self.max_range_m),
                        int(radio.position.y_m // self.max_range_m))
                self._radio_cell[radio] = cell
                self._cells.setdefault(cell, {})[radio] = index
        else:
            self._listening.pop(radio, None)
            self._drop_from_cells(radio)

    def move_radio(self, radio: "Radio", position: Position) -> None:
        """Relocate ``radio`` and keep the listening index consistent.

        The cell index keys a listening radio by its position at
        power-on; a mobile device that moves while listening must go
        through here (not assign ``radio.position`` directly) or the
        3x3 completion scan would keep looking in its old cell.
        """
        radio.position = position
        if self.max_range_m is None or radio not in self._radio_cell:
            return
        cell = (int(position.x_m // self.max_range_m),
                int(position.y_m // self.max_range_m))
        if cell == self._radio_cell[radio]:
            return
        index = self._attach_index[radio]
        self._drop_from_cells(radio)
        self._radio_cell[radio] = cell
        self._cells.setdefault(cell, {})[radio] = index

    def _drop_from_cells(self, radio: "Radio") -> None:
        cell = self._radio_cell.pop(radio, None)
        if cell is None:
            return
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.pop(radio, None)
            if not bucket:
                del self._cells[cell]

    def add_delivery_listener(
            self, listener: Callable[[Transmission, DeliveryReport], None]) -> None:
        """Observe every delivery decision (used by experiment harnesses)."""
        self._delivery_listeners.append(listener)

    # -- transmission -------------------------------------------------------

    def transmit(self, sender: "Radio", frame: object, rate: PhyRate,
                 power_dbm: float) -> Transmission:
        """Put ``frame`` on the air from ``sender``; returns the in-flight
        record. Completion (delivery decisions) fires at end of airtime."""
        frame_bytes = frame.to_bytes() if hasattr(frame, "to_bytes") else bytes(frame)
        airtime_s = frame_airtime_us(len(frame_bytes), rate) / 1e6
        now = self.sim.now_s
        transmission = Transmission(
            sender=sender, frame=frame, frame_bytes=frame_bytes, rate=rate,
            power_dbm=power_dbm, channel=sender.channel,
            start_s=now, end_s=now + airtime_s)
        # Record mutual overlap with everything already in the air on the
        # same channel; collisions are symmetric.
        for other in self._active:
            if other.channel == transmission.channel:
                other.overlapping.append(transmission)
                transmission.overlapping.append(other)
        self._active.append(transmission)
        self.frames_transmitted += 1
        self.sim.at(transmission.end_s, lambda: self._complete(transmission))
        return transmission

    def _complete(self, transmission: Transmission) -> None:
        """Decide delivery at every candidate receiver, in attach order.

        Everything that is the same for the whole transmission (sender
        position, channel, frame length, the half-duplex sender set, the
        noise floor) is computed once, and each candidate goes through
        the cheap side-effect-free filters — range, receiver state,
        half-duplex — before the fault injector and the SINR arithmetic.
        The ``medium-scan-vs-reference`` oracle in :mod:`repro.check`
        holds this scan to a per-radio reference decision.
        """
        from .radio import RECEIVER_ON_STATES
        self._active.remove(transmission)
        # Only radios with their receiver on can decode; iterate them in
        # attach order so listener invocation order matches the historic
        # full scan of ``self._radios`` exactly. With a delivery cutoff,
        # the 3x3 cell neighbourhood around the sender bounds the scan
        # to radios that could possibly be in range.
        sender = transmission.sender
        origin_x = sender.position.x_m
        origin_y = sender.position.y_m
        max_range = self.max_range_m
        if max_range is not None:
            column = int(origin_x // max_range)
            row = int(origin_y // max_range)
            candidates: list[tuple[Radio, int]] = []
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    bucket = self._cells.get((column + dc, row + dr))
                    if bucket:
                        candidates.extend(bucket.items())
        else:
            candidates = list(self._listening.items())
        candidates.sort(key=itemgetter(1))

        channel = transmission.channel
        overlapping = transmission.overlapping
        # Half-duplex: a radio that was itself transmitting during any
        # part of this frame's airtime cannot have received it.
        transmitting = {other.sender for other in overlapping}
        length = len(transmission.frame_bytes)
        min_distance = self.min_distance_m
        exponent = self.path_loss_exponent
        interference_range = self.interference_range_m
        # Filled on first use, so a frame that reaches no SINR decision
        # never evaluates the channel's frequency (which rejects an
        # unknown channel) or the noise floor.
        frequency_hz = noise_mw = None
        for radio, _index in candidates:
            if radio is sender:
                continue
            position = radio.position
            distance = max(min_distance, math.hypot(
                origin_x - position.x_m, origin_y - position.y_m))
            if max_range is not None and distance > max_range:
                continue
            if (radio.channel != channel
                    or radio.state not in RECEIVER_ON_STATES
                    or radio in transmitting):
                continue
            if self.fault_injector is not None and self.fault_injector(
                    transmission, radio):
                self.frames_lost_injected += 1
                report = DeliveryReport(radio, False, "injected-fault", 0.0)
            else:
                if noise_mw is None:
                    frequency_hz = channel_frequency_hz(channel)
                    noise_mw = 10.0 ** (noise_floor_dbm(self.bandwidth_hz)
                                        / 10.0)
                signal_dbm = received_power_dbm(
                    transmission.power_dbm, distance, exponent=exponent,
                    frequency_hz=frequency_hz)
                if self.link_impairment is not None:
                    signal_dbm -= self.link_impairment(transmission, radio)
                interference_mw = 0.0
                for other in overlapping:
                    other_position = other.sender.position
                    other_distance = max(min_distance, math.hypot(
                        other_position.x_m - position.x_m,
                        other_position.y_m - position.y_m))
                    if (interference_range is not None
                            and other_distance > interference_range):
                        continue
                    other_dbm = received_power_dbm(
                        other.power_dbm, other_distance, exponent=exponent,
                        frequency_hz=frequency_hz)
                    interference_mw += 10.0 ** (other_dbm / 10.0)
                sinr_db = signal_dbm - 10.0 * math.log10(
                    noise_mw + interference_mw)
                if overlapping and sinr_db < self.capture_threshold_db:
                    report = DeliveryReport(radio, False, "collision",
                                            sinr_db)
                elif not frame_delivered(sinr_db, length, transmission.rate):
                    report = DeliveryReport(radio, False, "snr", sinr_db)
                else:
                    report = DeliveryReport(radio, True, "ok", sinr_db)
            for listener in self._delivery_listeners:
                listener(transmission, report)
            if report.delivered:
                self.frames_delivered += 1
                radio.deliver(transmission)
            elif report.reason == "collision":
                self.frames_lost_collision += 1
            elif report.reason == "snr":
                self.frames_lost_snr += 1

    # -- carrier sense -------------------------------------------------------

    def channel_busy(self, channel: int) -> bool:
        """Is any transmission currently occupying ``channel``?"""
        return any(tx.channel == channel for tx in self._active)

    def busy_until_s(self, channel: int) -> float:
        """Simulation time when ``channel`` next goes idle (now if idle)."""
        ends = [tx.end_s for tx in self._active if tx.channel == channel]
        return max(ends, default=self.sim.now_s)
