"""``fleet``: a 20k-device clustered fleet through the cohort kernel.

Why: the cohort kernel does about 90% of the work of a fleet run, and
the clustered layout gives both its bulk path and its exact demotion
path real weight. No frame bytes, event engine or service run here.

One iteration is plan + shards + merge: :func:`plan_shards` into 4
strips, :func:`run_shard_cohort` on each in turn (one process, one
worker), then :meth:`FleetAggregate.merge`. Set-up is
:func:`generate_fleet`. Throughput is owned beacons sent per
host-normalised second of an iteration.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from common import (
    Outcome,
    iterations,
    layer_metrics,
    median,
    peak_rss_mb,
    ratio,
)
from hostcal import HostCalibration
from tracing import NullTracer, tracer_for
from repro.fleet import (
    FleetAggregate,
    FleetConfig,
    KernelStats,
    generate_fleet,
    plan_shards,
    run_shard_cohort,
)
from repro.obs.audit import audit_fleet


@dataclass(frozen=True)
class FleetSizes:
    devices: int
    area_m: float
    interval_s: float
    duration_s: float
    shards: int


FULL = FleetSizes(devices=20_000, area_m=700.0, interval_s=60.0,
                  duration_s=1800.0, shards=4)
SMOKE = FleetSizes(devices=800, area_m=140.0, interval_s=60.0,
                   duration_s=600.0, shards=2)
#: Fleets per run, drawn from the run's seed; set-up builds each once.
PLANS = 3


def fleet_config(sizes, seed: int) -> FleetConfig:
    """A square, clustered fleet; ``sizes`` is any record with
    ``devices``, ``area_m``, ``interval_s`` and ``duration_s`` (the
    ``pipeline`` workload uses the same layout)."""
    return FleetConfig(device_count=sizes.devices,
                       area_m=(sizes.area_m, sizes.area_m),
                       interval_s=sizes.interval_s,
                       duration_s=sizes.duration_s,
                       layout="clusters", seed=seed)


def _counters(total: FleetAggregate, stats: KernelStats) -> dict[str, int]:
    return {
        "beacons_sent": total.beacons_sent,
        "uplink_delivered": total.uplink_delivered,
        "uplink_lost_collision": total.uplink_lost_collision,
        "uplink_lost_snr": total.uplink_lost_snr,
        "uplink_out_of_range": total.uplink_out_of_range,
        "demotions": stats.demotions,
    }


def run_iteration(plan, sizes: FleetSizes, calibration: HostCalibration,
                  tracer) -> tuple[FleetAggregate, KernelStats, float, float]:
    """Plan + shards + merge once; returns the aggregate, the summed
    kernel stats and the iteration's (normalised, raw) seconds."""
    first = calibration.burst()
    with tracer.span("fleet.shards"):
        shards = plan_shards(plan, sizes.shards)
    stats = KernelStats()
    aggregates = []
    for shard in shards:
        shard_stats = KernelStats()
        with tracer.span("fleet.kernel"):
            aggregates.append(run_shard_cohort(shard, shard_stats))
        for name in ("transmissions", "cohort_resolved", "demotions"):
            setattr(stats, name, getattr(stats, name)
                    + getattr(shard_stats, name))
    with tracer.span("fleet.aggregate"):
        total = FleetAggregate()
        for aggregate in aggregates:
            total.merge(aggregate)
    last = calibration.burst()
    tracer.count("fleet.kernel.transmissions", stats.transmissions)
    tracer.count("fleet.kernel.cohort_resolved", stats.cohort_resolved)
    tracer.count("fleet.kernel.demotions", stats.demotions)
    simulated = sum(len(shard.devices) + len(shard.halo_devices)
                    for shard in shards)
    tracer.count("fleet.shards.simulated_devices", simulated)
    return (total, stats, calibration.normalised_seconds(first, last),
            calibration.raw_seconds(first, last))


def run(seed: int, seconds: float, tracer=None,
        sizes: FleetSizes = FULL) -> Outcome:
    """Run the workload for ``seconds``; ``tracer`` set = traced run."""
    calibration = HostCalibration()
    with calibration.sampling():
        return _measure(seed, seconds, tracer, sizes, calibration)


def _measure(seed: int, seconds: float, tracer, sizes: FleetSizes,
             calibration: HostCalibration) -> Outcome:
    outcome = Outcome()
    setup_tracer = tracer if tracer is not None else NullTracer()
    # Throughput depends on where the clusters fall against the strip
    # edges (the halo ratio ranges about 1.6-1.95 across seeds), so every run
    # cycles through PLANS fleets drawn from its seed.
    plans, setups = [], []
    for index in range(PLANS):
        gc.collect()
        first = calibration.burst()
        with setup_tracer.span("fleet.population"):
            plans.append(generate_fleet(
                fleet_config(sizes, seed * PLANS + index)))
        setups.append(calibration.normalised_seconds(first,
                                                     calibration.burst()))

    references: list[dict] = []
    # Normalised (and raw) seconds per plan, untraced and traced.
    untraced = [[] for _ in plans]
    raw = [[] for _ in plans]
    traced_seconds = [[] for _ in plans]
    for iteration, traced in iterations(PLANS, seconds, tracer is not None,
                                        cycle=PLANS):
        index = iteration % PLANS
        active, scope = tracer_for(tracer, traced)
        with scope:
            total, stats, seconds_norm, seconds_raw = run_iteration(
                plans[index], sizes, calibration, active)
        counters = _counters(total, stats)
        decided = (total.uplink_delivered + total.uplink_lost_collision
                   + total.uplink_lost_snr + total.uplink_out_of_range)
        outcome.attempted += total.beacons_sent
        outcome.failed += abs(total.beacons_sent - decided)
        if iteration < PLANS:
            references.append(counters)
            report = audit_fleet(total)
            outcome.check(report.ok, f"fleet audit: {report.findings}")
        outcome.check(counters == references[index],
                      f"iteration {iteration} counters {counters} differ "
                      f"from its plan's first run {references[index]}")
        if traced:
            traced_seconds[index].append(seconds_norm)
        else:
            untraced[index].append(seconds_norm)
            raw[index].append(seconds_raw)

    outcome.pins = {key: [counters[key] for counters in references]
                    for key in references[0]}
    # Each plan weighs the same however often it ran: the beacons of all
    # plans over the sum of each plan's median iteration time.
    sent = sum(counters["beacons_sent"] for counters in references)
    outcome.end_to_end = {
        "throughput_per_s": sent / sum(map(median, untraced)),
        # Every beacon of an iteration completes when the iteration
        # does, so each beacon's latency is its iteration's run time.
        "latency_p50_ms": median(sum(untraced, [])) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        traced_iterations = sum(map(len, traced_seconds))
        layers = layer_metrics(tracer, traced_iterations)
        layers["fleet.shards.halo_ratio"] = ratio(
            tracer.counters["fleet.shards.simulated_devices"],
            traced_iterations * sizes.devices)
        layers["host.calibration_ms"] = calibration.median_ms()
        layers["host.raw_throughput_per_s"] = sent / sum(map(median, raw))
        layers["trace.overhead_ratio"] = (sum(map(median, traced_seconds))
                                          / sum(map(median, untraced)))
        outcome.per_layer = layers
    return outcome
