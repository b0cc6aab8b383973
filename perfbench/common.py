"""What every workload shares: the outcome record, the metric tables,
percentiles and the per-layer figures read off a :class:`Tracer`."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

#: End-to-end metrics, printed by the untraced run: name -> unit.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by the traced run: name -> unit. A layer
#: the workload does not run reports 0 (see README.md).
PER_LAYER = {
    "fleet.population.generate_s": "s",
    "fleet.shards.plan_s": "s",
    "fleet.shards.halo_ratio": "ratio",
    "fleet.kernel.busy_s": "s",
    "fleet.kernel.us_per_tx": "us",
    "fleet.kernel.shard_s_max": "s",
    "fleet.kernel.transmissions": "count",
    "fleet.kernel.demotions": "count",
    "fleet.kernel.bulk_ratio": "ratio",
    "fleet.aggregate.merge_s": "s",
    "sim.engine.run_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.us_per_event": "us",
    "sim.medium.transmit_s": "s",
    "sim.medium.decisions": "count",
    "sim.medium.delivered": "count",
    "sim.medium.lost_collision": "count",
    "sim.medium.lost_snr": "count",
    "core.codec.build_s": "s",
    "dot11.frames.to_bytes_s": "s",
    "dot11.frames.encodes_per_beacon": "ratio",
    "dot11.fcs.crc32_s": "s",
    "service.ingest.decode_s": "s",
    "service.ingest.us_per_frame": "us",
    "service.ingest.error_ratio": "ratio",
    "service.tenants.fold_s": "s",
    "service.tenants.us_per_payload": "us",
    "service.tenants.snapshot_s": "s",
    "service.queues.put_wait_s": "s",
    "service.queues.blocked_puts": "count",
    "service.queues.batch_mean": "count",
    "service.queues.depth_max": "count",
    "service.checkpoint.saves": "count",
    "service.checkpoint.save_s_max": "s",
    "service.checkpoint.bytes": "bytes",
    "service.checkpoint.max_gap_s": "s",
    "service.server.stop_s": "s",
    "ingest.latency_p99_ms": "ms",
    "ingest.generator_lag_p99_ms": "ms",
    "host.calibration_ms": "ms",
    "host.raw_throughput_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: Scratch space inside the checkout for checkpoints and trace files.
WORK_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """One workload run: counts, failed checks and measured figures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Exact counters and digests, compared with ``pinned.json``.
    pins: dict[str, object] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def iterations(minimum: int, seconds: float, traced_run: bool,
               cycle: int = 1):
    """The measured loop every workload shares: yields ``(index,
    traced)`` until ``seconds`` have passed and at least ``minimum``
    iterations ran. A traced run keeps its first ``cycle`` iterations
    (one per input) untraced, as the baseline that
    ``trace.overhead_ratio`` is measured against, and traces at least
    as many more."""
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < minimum or time.perf_counter() < deadline
           or (traced_run and index < 2 * cycle)):
        gc.collect()
        yield index, traced_run and index >= cycle
        index += 1


@contextlib.contextmanager
def scratch_directory():
    """A fresh directory under :data:`WORK_ROOT`, removed afterwards."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    directory = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (a measured sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, iterations: int) -> dict[str, float]:
    """Per-layer figures of the spans and counters every workload records
    the same way, per traced iteration (a round, for ``ingest``)."""
    total, calls = tracer.total_s, tracer.calls
    counters = tracer.counters

    def per(name: str) -> float:
        return total.get(name, 0.0) / iterations

    def per_count(name: str) -> float:
        return counters.get(name, 0.0) / iterations

    builds = calls.get("core.codec.build", 0)
    frames = counters.get("service.ingest.frames", 0.0)
    payloads = calls.get("service.tenants.fold", 0)
    saves = tracer.starts.get("service.checkpoint.save", [])
    gaps = []
    for started, ended in tracer.windows:
        inside = [mark for mark in saves if started <= mark <= ended]
        edges = [started] + inside + [ended]
        gaps.extend(later - earlier
                    for earlier, later in zip(edges, edges[1:]))
    events = per_count("sim.engine.events")
    transmissions = per_count("fleet.kernel.transmissions")
    return {
        "fleet.population.generate_s": ratio(
            total.get("fleet.population", 0.0),
            calls.get("fleet.population", 0)),
        "fleet.shards.plan_s": per("fleet.shards"),
        "fleet.kernel.busy_s": per("fleet.kernel"),
        "fleet.kernel.us_per_tx": ratio(per("fleet.kernel") * 1e6,
                                        transmissions),
        "fleet.kernel.shard_s_max": tracer.max_s.get("fleet.kernel", 0.0),
        "fleet.kernel.transmissions": transmissions,
        "fleet.kernel.demotions": per_count("fleet.kernel.demotions"),
        "fleet.kernel.bulk_ratio": ratio(
            counters.get("fleet.kernel.cohort_resolved", 0.0),
            counters.get("fleet.kernel.transmissions", 0.0)),
        "fleet.aggregate.merge_s": per("fleet.aggregate"),
        "sim.engine.run_s": per("sim.engine"),
        "sim.engine.self_s": tracer.self_s.get("sim.engine", 0.0) / iterations,
        "sim.engine.events": events,
        "sim.engine.us_per_event": ratio(per("sim.engine") * 1e6, events),
        "sim.medium.transmit_s": per("sim.medium.transmit"),
        "sim.medium.decisions": per_count("sim.medium.decisions"),
        "sim.medium.delivered": per_count("sim.medium.delivered"),
        "sim.medium.lost_collision": per_count("sim.medium.lost_collision"),
        "sim.medium.lost_snr": per_count("sim.medium.lost_snr"),
        "core.codec.build_s": per("core.codec.build"),
        "dot11.frames.to_bytes_s": per("dot11.frames.to_bytes"),
        "dot11.frames.encodes_per_beacon": ratio(
            calls.get("dot11.frames.to_bytes", 0), builds),
        "dot11.fcs.crc32_s": per("dot11.fcs.crc32"),
        "service.ingest.decode_s": per("service.ingest.decode"),
        "service.ingest.us_per_frame": ratio(
            total.get("service.ingest.decode", 0.0) * 1e6, frames),
        "service.ingest.error_ratio": ratio(
            counters.get("service.ingest.errors", 0.0), frames),
        "service.tenants.fold_s": per("service.tenants.fold"),
        "service.tenants.us_per_payload": ratio(
            total.get("service.tenants.fold", 0.0) * 1e6, payloads),
        "service.tenants.snapshot_s": per("service.tenants.snapshot"),
        "service.queues.put_wait_s": per("service.queues.put_wait"),
        "service.queues.blocked_puts": per_count(
            "service.queues.blocked_puts"),
        "service.queues.batch_mean": ratio(
            counters.get("service.queues.batch_frames", 0.0),
            counters.get("service.queues.batches", 0.0)),
        "service.queues.depth_max": tracer.maxima.get(
            "service.queues.depth_max", 0.0),
        "service.checkpoint.saves": ratio(len(saves), iterations),
        "service.checkpoint.save_s_max": tracer.max_s.get(
            "service.checkpoint.save", 0.0),
        "service.checkpoint.bytes": ratio(
            counters.get("service.checkpoint.bytes", 0.0), len(saves)),
        "service.checkpoint.max_gap_s": max(gaps, default=0.0),
        "service.server.stop_s": per("service.server.stop"),
    }
