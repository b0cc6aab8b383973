"""``ingest``: a gateway catching up on a backlog, then serving live.

Why: the service does all of the work here, on 16 tenants, 4096 devices
and a larger state than ``pipeline`` gives it. Checkpoint writes sit
beside decode reads, and live arrivals give the only latency figures.

The input is a ``generate_stream`` stream (5% encrypted, 1% duplicate,
2% gap, 0.1% corrupt frames), recorded once per seed with
``record_stream`` under ``_cache/`` because generating it costs about
65 µs a frame; each run loads it with ``load_stream`` and checks the
file's sha256 before anything is timed. One round is:

* catch-up: the whole recording replayed unpaced into a fresh gateway
  (BLOCK backpressure, inline decode, durable checkpoints every 0.5 s),
  as a gateway restarting with a backlog would see it;
* live: an open loop at a fixed rate offers the recording again, from
  its head, in small chunks; each chunk is timed from when it was due
  until ``frames_processed`` covers it.

Throughput is frames accounted for (ingested plus decode errors) per
host-normalised second of catch-up; latency percentiles pool the live
chunks of every round. Set-up is loading and verifying the recording
and constructing the gateway.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    SETUP_REPEATS,
    Outcome,
    iterations,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    scratch_directory,
)
from hostcal import HostCalibration
from tracing import tracer_for
from repro.service import (
    BackpressurePolicy,
    GatewayService,
    ServiceCheckpointer,
    ServiceConfig,
    generate_stream,
    load_stream,
    record_stream,
    replay,
    tenant_state_digest,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
CACHE_DIR = os.path.join(HERE, "_cache")
#: How long the live phase waits for its last chunks once all are sent.
GRACE_S = 2.0


@dataclass(frozen=True)
class IngestSizes:
    stream_frames: int
    devices: int
    tenants: int
    #: frames offered in the live phase, cycling through the recording
    live_frames: int
    rate_per_s: float
    chunk_frames: int
    #: rounds run even when ``--seconds`` has already elapsed
    min_rounds: int


FULL = IngestSizes(stream_frames=150_000, devices=4096, tenants=16,
                   live_frames=220_000, rate_per_s=20_000.0,
                   chunk_frames=50, min_rounds=2)
SMOKE = IngestSizes(stream_frames=6_000, devices=256, tenants=4,
                    live_frames=4_000, rate_per_s=20_000.0,
                    chunk_frames=50, min_rounds=1)


def service_config(directory: str) -> ServiceConfig:
    return ServiceConfig(checkpoint_dir=directory,
                         policy=BackpressurePolicy.BLOCK, workers=0,
                         checkpoint_interval_s=0.5,
                         durable_checkpoints=True)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _record(seed: int, stream_frames: int, devices: int, tenants: int,
            path: str, sidecar: str) -> None:
    wires = generate_stream(stream_frames, device_count=devices,
                            tenant_count=tenants, corrupt_fraction=0.001,
                            seed=seed)
    record_stream(path + ".tmp", wires, header_extra={"seed": seed})
    # Flush now: writeback of the fresh file ~30 s later landed inside
    # the measured run and slowed its checkpoint fsyncs.
    with open(path + ".tmp", "rb+") as handle:
        os.fsync(handle.fileno())
    os.replace(path + ".tmp", path)
    with open(sidecar + ".tmp", "w", encoding="utf-8") as handle:
        handle.write(_file_sha256(path))
    os.replace(sidecar + ".tmp", sidecar)


def ensure_recording(seed: int, sizes: IngestSizes) -> tuple[str, str]:
    """The seed's recorded stream and its sha256, recording it first if
    this checkout has not yet. The sha256 sidecar is written last, so a
    recording cut short is never mistaken for a complete one.

    A child interpreter records it, so the measuring process starts from
    the same heap whether or not it had to record first. It is a plain
    ``subprocess.run`` child, waited for on every path out (unlike a
    ``multiprocessing`` spawn, which leaves a resource-tracker process
    behind until this one exits).
    """
    os.makedirs(CACHE_DIR, exist_ok=True)
    stem = os.path.join(CACHE_DIR, f"stream-{seed}-{sizes.stream_frames}-"
                                   f"{sizes.devices}-{sizes.tenants}")
    path, sidecar = stem + ".bin", stem + ".sha256"
    if not os.path.exists(sidecar):
        arguments = [seed, sizes.stream_frames, sizes.devices, sizes.tenants,
                     path, sidecar]
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [HERE, SOURCES]))
        result = subprocess.run(
            [sys.executable, "-c", "import json, sys, ingest_workload; "
             "ingest_workload._record(*json.loads(sys.argv[1]))",
             json.dumps(arguments)],
            env=environment, cwd=HERE, check=False)
        if result.returncode != 0:
            raise RuntimeError(f"recording {path} failed with exit code "
                               f"{result.returncode}")
    with open(sidecar, encoding="utf-8") as handle:
        return path, handle.read().strip()


def load_verified(path: str, sha256: str) -> list[bytes]:
    """Load a recording, refusing one whose bytes changed on disk."""
    found = _file_sha256(path)
    if found != sha256:
        raise ValueError(f"{path}: sha256 {found} does not match the "
                         f"recorded {sha256}")
    return load_stream(path)


class TimedGateway(GatewayService):
    """A :class:`GatewayService` that notes the wall time at which each
    merge lets ``frames_processed`` cover pending live chunks."""

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__(config)
        #: ``(frames_processed that covers the chunk, due time)``
        self.pending: collections.deque = collections.deque()
        #: ``(due time, time frames_processed covered the chunk)``
        self.completions: list[tuple[float, float]] = []
        self._target = 0
        self._reached: asyncio.Event | None = None

    def _merge_ready(self, batch_id: int, payloads: list,
                     errors: int) -> None:
        super()._merge_ready(batch_id, payloads, errors)
        done = self.frames_processed
        if self.pending and self.pending[0][0] <= done:
            now = time.perf_counter()
            while self.pending and self.pending[0][0] <= done:
                self.completions.append((self.pending.popleft()[1], now))
        if self._reached is not None and done >= self._target:
            self._reached.set()

    async def processed(self, target: int,
                        timeout_s: float | None = None) -> bool:
        """Wait until ``frames_processed`` reaches ``target``; False if
        ``timeout_s`` passed first."""
        if self.frames_processed >= target:
            return True
        self._target, self._reached = target, asyncio.Event()
        try:
            await asyncio.wait_for(self._reached.wait(), timeout_s)
        except asyncio.TimeoutError:
            return False
        finally:
            self._reached = None
        return True


async def _live(service: TimedGateway, live: list[bytes], offset: int,
                sizes: IngestSizes) -> tuple[int, list[float]]:
    """Open-loop arrivals; returns frames offered and generator lags."""
    lags = []
    started = time.perf_counter()
    for start in range(0, len(live), sizes.chunk_frames):
        chunk = live[start:start + sizes.chunk_frames]
        due = started + start / sizes.rate_per_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        offset += len(chunk)
        service.pending.append((offset, due))
        await service.submit_many(chunk)
    return offset, lags


async def _round(service: TimedGateway, wires: list[bytes],
                 sizes: IngestSizes, calibration: HostCalibration,
                 tracer) -> dict:
    await service.start()
    started = time.perf_counter()
    first = calibration.burst()
    await replay(service, wires, chunk_size=4096)
    await service.processed(len(wires))
    caught_up = calibration.burst()
    # Every live phase starts from the same collector state, so the
    # full collections it triggers do not depend on the catch-up's.
    gc.collect()
    cycles = -(-sizes.live_frames // len(wires))
    offered, lags = await _live(service, (wires * cycles)[:sizes.live_frames],
                                len(wires), sizes)
    await service.processed(offered, GRACE_S)
    unmerged = len(service.pending)
    # Chunks still unmerged count as failed, at least this late.
    now = time.perf_counter()
    service.completions.extend((due, now) for _, due in service.pending)
    calibration.burst()
    stopping = time.perf_counter()
    await service.stop()
    stopped = time.perf_counter()
    tracer.interval("service.server.stop", stopping, stopped)
    tracer.window(started, stopped)
    tracer.count("service.queues.blocked_puts", service.queue.blocked_puts)
    return {
        "offered": offered,
        "unmerged_chunks": unmerged,
        "catch_up_s": calibration.normalised_seconds(first, caught_up),
        "catch_up_raw_s": calibration.raw_seconds(first, caught_up),
        "lags": lags,
    }


def run(seed: int, seconds: float, tracer=None,
        sizes: IngestSizes = FULL) -> Outcome:
    """Run the workload for ``seconds``; ``tracer`` set = traced run."""
    path, sha256 = ensure_recording(seed, sizes)
    calibration = HostCalibration()
    with calibration.sampling():
        return _measure(path, sha256, seconds, tracer, sizes, calibration)


def _measure(path: str, sha256: str, seconds: float, tracer,
             sizes: IngestSizes, calibration: HostCalibration) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with scratch_directory() as directory:
            first = calibration.burst()
            wires = load_verified(path, sha256)
            TimedGateway(service_config(directory))
            setups.append(calibration.normalised_seconds(
                first, calibration.burst()))

    reference = None
    throughputs, raw, traced_catch_up, untraced_catch_up = [], [], [], []
    latencies, lags = [], []
    for round_index, traced in iterations(sizes.min_rounds, seconds,
                                          tracer is not None):
        active, scope = tracer_for(tracer, traced)
        with scratch_directory() as directory:
            service = TimedGateway(service_config(directory))
            with scope:
                result = asyncio.run(_round(service, wires, sizes,
                                            calibration, active))
            restored = ServiceCheckpointer(directory).load()
        stats = service.stats()
        accounted = stats.ingested + stats.decode_errors
        unmerged_frames = result["unmerged_chunks"] * sizes.chunk_frames
        outcome.attempted += result["offered"]
        outcome.failed += result["offered"] - accounted + unmerged_frames
        digest = tenant_state_digest(service.tenants)
        outcome.check(restored is not None and tenant_state_digest(
            restored["tenants"]) == digest,
            f"round {round_index}: final checkpoint does not restore to "
            f"the live digest {digest}")
        outcome.check(accounted == result["offered"],
                      f"round {round_index}: {accounted} frames accounted "
                      f"for, {result['offered']} offered")
        counters = {"stream_sha256": sha256, "tenant_state_digest": digest,
                    "ingested": stats.ingested,
                    "decode_errors": stats.decode_errors}
        if reference is None:
            reference = counters
        outcome.check(counters == reference,
                      f"round {round_index} outputs {counters} differ from "
                      f"the first round's {reference}")
        throughput = len(wires) / result["catch_up_s"]
        if traced:
            traced_catch_up.append(result["catch_up_s"])
        else:
            untraced_catch_up.append(result["catch_up_s"])
            throughputs.append(throughput)
            raw.append(len(wires) / result["catch_up_raw_s"])
            latencies += [calibration.normalised_interval(due, done)
                          for due, done in service.completions]
        lags += result["lags"]

    outcome.pins = dict(reference)
    outcome.end_to_end = {
        "throughput_per_s": median(throughputs),
        "latency_p50_ms": median(latencies) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced_catch_up))
        # From the untraced baseline round: tracing slows the fold.
        layers["ingest.latency_p99_ms"] = percentile(latencies, 0.99) * 1e3
        layers["ingest.generator_lag_p99_ms"] = percentile(lags, 0.99) * 1e3
        layers["host.calibration_ms"] = calibration.median_ms()
        layers["host.raw_throughput_per_s"] = median(raw)
        layers["trace.overhead_ratio"] = (median(traced_catch_up)
                                          / median(untraced_catch_up))
        outcome.per_layer = layers
    return outcome
