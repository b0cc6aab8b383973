"""A Wi-LE gateway: fleet-level message collection and health tracking.

Deploying §6's "network of IoT devices" needs more than a receiver: the
base station must track which devices exist, whether they are alive,
and how many of their messages it is missing. The gateway wraps a
:class:`~repro.core.receiver.WiLEReceiver` and maintains a per-device
registry with first/last-seen timestamps, learned reporting intervals,
sequence-gap loss estimates, and a liveness verdict — the operational
dashboard a real Wi-LE deployment would export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Position, Simulator, WirelessMedium
from .crypto import DeviceKeyring
from .payload import sequence_gap
from .receiver import ReceivedMessage, WiLEReceiver


@dataclass
class DeviceRecord:
    """Everything the gateway knows about one device."""

    device_id: int
    first_seen_s: float
    last_seen_s: float
    last_sequence: int
    messages_received: int = 1
    messages_missed: int = 0
    intervals_s: list[float] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        total = self.messages_received + self.messages_missed
        return self.messages_missed / total if total else 0.0

    @property
    def learned_interval_s(self) -> float | None:
        """Median observed inter-message interval (None before 2 sightings)."""
        if not self.intervals_s:
            return None
        ordered = sorted(self.intervals_s)
        return ordered[len(ordered) // 2]

    def is_alive(self, now_s: float, missed_threshold: int = 3) -> bool:
        """Alive if not overdue by more than ``missed_threshold`` learned
        intervals; a device heard only once gets the benefit of the doubt."""
        interval = self.learned_interval_s
        if interval is None:
            return True
        return (now_s - self.last_seen_s) < missed_threshold * interval


class WiLEGateway:
    """Fleet-level sink: registry, loss accounting, liveness.

    Args:
        sim / medium: simulation substrate.
        keyring: keys for encrypted fleets.
        interval_history: how many inter-message intervals to retain per
            device for the learned-interval estimate.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 position: Position | None = None,
                 channel: int = 6,
                 keyring: DeviceKeyring | None = None,
                 interval_history: int = 16) -> None:
        if interval_history < 1:
            raise ValueError("interval history must hold at least one sample")
        self.sim = sim
        self.receiver = WiLEReceiver(sim, medium, position=position,
                                     channel=channel, keyring=keyring)
        self.receiver.on_message(self._on_message)
        self._interval_history = interval_history
        self.registry: dict[int, DeviceRecord] = {}

    # -- ingestion -------------------------------------------------------------

    def _on_message(self, received: ReceivedMessage) -> None:
        message = received.message
        record = self.registry.get(message.device_id)
        if record is None:
            self.registry[message.device_id] = DeviceRecord(
                device_id=message.device_id,
                first_seen_s=received.time_s,
                last_seen_s=received.time_s,
                last_sequence=message.sequence)
            return
        gap = sequence_gap(record.last_sequence, message.sequence)
        record.messages_missed += gap
        record.messages_received += 1
        # The observed span covers (gap + 1) device intervals.
        span = received.time_s - record.last_seen_s
        if span > 0:
            record.intervals_s.append(span / (gap + 1))
            if len(record.intervals_s) > self._interval_history:
                del record.intervals_s[0]
        record.last_seen_s = received.time_s
        record.last_sequence = message.sequence

    # -- queries ------------------------------------------------------------------

    def devices(self) -> list[int]:
        return sorted(self.registry)

    def record(self, device_id: int) -> DeviceRecord | None:
        return self.registry.get(device_id)

    def alive_devices(self, missed_threshold: int = 3) -> list[int]:
        now = self.sim.now_s
        return [device_id for device_id, record in sorted(self.registry.items())
                if record.is_alive(now, missed_threshold)]

    def dead_devices(self, missed_threshold: int = 3) -> list[int]:
        now = self.sim.now_s
        return [device_id for device_id, record in sorted(self.registry.items())
                if not record.is_alive(now, missed_threshold)]

    def fleet_loss_rate(self) -> float:
        received = sum(record.messages_received
                       for record in self.registry.values())
        missed = sum(record.messages_missed
                     for record in self.registry.values())
        total = received + missed
        return missed / total if total else 0.0

    def summary(self) -> list[tuple[int, int, int, float, bool]]:
        """(device_id, received, missed, learned interval, alive) rows."""
        now = self.sim.now_s
        return [(device_id, record.messages_received, record.messages_missed,
                 record.learned_interval_s or 0.0, record.is_alive(now))
                for device_id, record in sorted(self.registry.items())]
