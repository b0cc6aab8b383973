"""``pipeline``: device wake to tenant fold, on the event engine.

Why: this is the only workload that runs the event engine, the medium,
the device and beacon encode, and it is the whole chain from a device
waking to a gateway folding its reading: 1000 clustered devices beacon
for 600 simulated seconds; the bytes each designated gateway decoded
are captured in delivery order and fed to a :class:`GatewayService`
(BLOCK backpressure, inline decode, durable checkpoints). The service
sees a clean, in-order, one-tenant, single-reading stream.

Set-up is :func:`generate_fleet` plus building the simulator, the
medium, one :class:`WiLEDevice` per spec and one non-parsing monitor
radio per gateway. Throughput is beacons the service ingested per
host-normalised second of simulation plus ingest.

After the timed section the first iteration is checked across layers:
per device, the service's ``received`` equals the designated deliveries
and ``missed`` equals the losses a later delivery revealed; the total
equals the cohort kernel's ``uplink_delivered`` for the same plan.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass

from common import (
    Outcome,
    iterations,
    layer_metrics,
    median,
    peak_rss_mb,
    scratch_directory,
)
from hostcal import HostCalibration
from tracing import tracer_for
from repro.core import SensorKind, SensorReading, WiLEDevice
from repro.dot11.mac import MacAddress
from fleet_workload import fleet_config
from repro.fleet import generate_fleet, run_sharded_fleet
from repro.service import (
    BackpressurePolicy,
    GatewayService,
    ServiceConfig,
    replay,
    tenant_state_digest,
)
from repro.sim import Radio, Simulator, WirelessMedium

#: The fleet runner's propagation cutoffs (repro.fleet.shards defaults).
MAX_RANGE_M = 20.0
INTERFERENCE_RANGE_M = 90.0


@dataclass(frozen=True)
class PipelineSizes:
    devices: int
    area_m: float
    interval_s: float
    duration_s: float
    min_iterations: int


FULL = PipelineSizes(devices=1000, area_m=150.0, interval_s=60.0,
                     duration_s=600.0, min_iterations=3)
SMOKE = PipelineSizes(devices=150, area_m=60.0, interval_s=60.0,
                      duration_s=240.0, min_iterations=1)


class MonitorRadio(Radio):
    """A gateway's monitor-mode receiver that counts deliveries without
    parsing them; the capture listener keeps the bytes."""

    def deliver(self, transmission) -> None:
        self.frames_received += 1


def _steady_reading() -> tuple[SensorReading, ...]:
    """The fleet runner's constant reading, so every frame has the length
    the cohort kernel assumes (the conservation check compares them)."""
    return (SensorReading(SensorKind.TEMPERATURE_C, 21.0),)


def _gateway_mac(receiver_id: int) -> MacAddress:
    return MacAddress.parse("02:fe:%02x:%02x:%02x:%02x" % (
        (receiver_id >> 24) & 0xFF, (receiver_id >> 16) & 0xFF,
        (receiver_id >> 8) & 0xFF, receiver_id & 0xFF))


class Deployment:
    """One fleet on the event engine, with the capture listener."""

    def __init__(self, plan) -> None:
        channel = plan.config.channel
        self.sim = Simulator()
        self.medium = WirelessMedium(
            self.sim, max_range_m=MAX_RANGE_M,
            interference_range_m=INTERFERENCE_RANGE_M)
        gateways = {}
        for receiver in plan.receivers:
            radio = MonitorRadio(self.sim, self.medium,
                                 _gateway_mac(receiver.receiver_id),
                                 position=receiver.position, channel=channel)
            radio.power_on(monitor=True)
            gateways[receiver.receiver_id] = radio
        #: sender radio -> (device id, its designated gateway's radio)
        self._designated = {}
        for spec in sorted(plan.devices, key=lambda item: item.device_id):
            device = WiLEDevice(self.sim, self.medium,
                                device_id=spec.device_id,
                                position=spec.position, channel=channel,
                                clock=spec.make_clock())
            device.start(spec.interval_s, _steady_reading,
                         first_wake_s=spec.first_wake_s)
            self._designated[device.radio] = (
                spec.device_id,
                gateways[plan.nearest_receiver(spec).receiver_id])
        #: delivered frame bytes at designated gateways, delivery order
        self.wires: list[bytes] = []
        #: every designated decision: (device id, delivered?)
        self.decisions: list[tuple[int, bool]] = []
        self.medium.add_delivery_listener(self._on_delivery)

    def _on_delivery(self, transmission, report) -> None:
        entry = self._designated.get(transmission.sender)
        if entry is None or report.receiver is not entry[1]:
            return
        self.decisions.append((entry[0], report.delivered))
        if report.delivered:
            self.wires.append(transmission.frame_bytes)

    def simulate(self, duration_s: float, tracer) -> None:
        with tracer.span("sim.engine"):
            self.sim.run(until_s=duration_s)


async def ingest(wires: list[bytes], directory: str, tracer) -> GatewayService:
    """Feed the captured bytes to a fresh gateway and drain it."""
    service = GatewayService(ServiceConfig(
        checkpoint_dir=directory, policy=BackpressurePolicy.BLOCK, workers=0))
    await service.start()
    started = time.perf_counter()
    await replay(service, wires)
    stopping = time.perf_counter()
    await service.stop()
    stopped = time.perf_counter()
    tracer.interval("service.server.stop", stopping, stopped)
    tracer.window(started, stopped)
    tracer.count("service.queues.blocked_puts", service.queue.blocked_puts)
    return service


def conservation_problems(deployment: Deployment, service: GatewayService,
                          plan) -> list[str]:
    """Cross-layer accounting: medium decisions vs service chains vs the
    cohort kernel on the same plan."""
    problems = []
    chains = {device_id: chain for tenant in service.tenants.values()
              for device_id, chain in tenant.devices.items()}
    outcomes: dict[int, list[bool]] = {}
    for device_id, delivered in deployment.decisions:
        outcomes.setdefault(device_id, []).append(delivered)
    for device_id, history in outcomes.items():
        delivered = [index for index, ok in enumerate(history) if ok]
        chain = chains.get(device_id)
        if not delivered:
            if chain is not None:
                problems.append(f"device {device_id:#x}: service has a "
                                "chain but nothing was delivered")
            continue
        # Losses before the first or after the last delivery leave no
        # gap in the sequence numbers the service sees.
        revealed = history[delivered[0]:delivered[-1] + 1].count(False)
        if chain is None or chain.received != len(delivered) \
                or chain.missed != revealed or chain.duplicates:
            problems.append(
                f"device {device_id:#x}: delivered {len(delivered)}, "
                f"revealed losses {revealed}; service chain {chain}")
    reference = run_sharded_fleet(plan, 1, kernel="cohort", stage=None)
    if reference.uplink_delivered != len(deployment.wires):
        problems.append(
            f"event engine delivered {len(deployment.wires)} beacons, "
            f"cohort kernel {reference.uplink_delivered}")
    return problems


def run(seed: int, seconds: float, tracer=None,
        sizes: PipelineSizes = FULL) -> Outcome:
    """Run the workload for ``seconds``; ``tracer`` set = traced run."""
    calibration = HostCalibration()
    with calibration.sampling():
        return _measure(seed, seconds, tracer, sizes, calibration)


def _measure(seed: int, seconds: float, tracer, sizes: PipelineSizes,
             calibration: HostCalibration) -> Outcome:
    outcome = Outcome()
    config = fleet_config(sizes, seed)
    reference = None
    setups, normalised, raw, traced_normalised = [], [], [], []
    for iteration, traced in iterations(sizes.min_iterations, seconds,
                                        tracer is not None):
        active, scope = tracer_for(tracer, traced)
        with scratch_directory() as directory, scope:
            first = calibration.burst()
            with active.span("fleet.population"):
                plan = generate_fleet(config)
            deployment = Deployment(plan)
            built = calibration.burst()
            deployment.simulate(sizes.duration_s, active)
            service = asyncio.run(ingest(deployment.wires, directory, active))
            last = calibration.burst()
        setups.append(calibration.normalised_seconds(first, built))
        seconds_norm = calibration.normalised_seconds(built, last)
        stats = service.stats()
        offered = len(deployment.wires)
        outcome.attempted += offered
        outcome.failed += offered - stats.ingested
        medium = deployment.medium
        active.count("sim.engine.events", deployment.sim.events_processed)
        active.count("sim.medium.delivered", medium.frames_delivered)
        active.count("sim.medium.lost_collision", medium.frames_lost_collision)
        active.count("sim.medium.lost_snr", medium.frames_lost_snr)
        active.count("sim.medium.decisions",
                     medium.frames_delivered + medium.frames_lost_collision
                     + medium.frames_lost_snr + medium.frames_lost_injected)
        counters = {
            "wires": offered,
            "wire_sha256": hashlib.sha256(b"".join(deployment.wires)
                                          ).hexdigest(),
            "tenant_state_digest": tenant_state_digest(service.tenants),
        }
        if reference is None:
            reference = counters
            outcome.problems += conservation_problems(deployment, service,
                                                      plan)
        outcome.check(counters == reference,
                      f"iteration {iteration} outputs {counters} differ "
                      f"from the first iteration's {reference}")
        if traced:
            traced_normalised.append(seconds_norm)
        else:
            normalised.append(seconds_norm)
            raw.append(stats.ingested / calibration.raw_seconds(built, last))

    outcome.pins = dict(reference)
    ingested = reference["wires"]
    outcome.end_to_end = {
        "throughput_per_s": median([ingested / value
                                    for value in normalised]),
        # Every beacon of an iteration completes when the iteration
        # does, so each beacon's latency is its iteration's run time.
        "latency_p50_ms": median(normalised) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced_normalised))
        layers["host.calibration_ms"] = calibration.median_ms()
        layers["host.raw_throughput_per_s"] = median(raw)
        layers["trace.overhead_ratio"] = (median(traced_normalised)
                                          / median(normalised))
        outcome.per_layer = layers
    return outcome
