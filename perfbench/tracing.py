"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own files: around the calls the
workloads make into the program, and by wrapping public functions at
the name their caller resolves (``repro.service.server.decode_wires``,
not the ``ingest`` module's own binding), so the program itself is not
edited. :func:`patched` installs the wrappers and always restores the
original objects; untraced runs never see a wrapper.

A span's *self* time is its duration minus the time its child spans
covered. Each thread keeps its own span stack (the gateway's checkpoint
writer runs on a thread of its own). Spans stay in memory, capped at
:data:`SPAN_CAP` records; the per-name totals keep counting past the
cap, and the records are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict

SPAN_CAP = 200_000


class Tracer:
    """Per-name span totals, counters and maxima for one traced run."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.starts: dict[str, list[float]] = defaultdict(list)
        #: ``(start_s, end_s)`` of each gateway's life, start() to the
        #: end of stop(), for the longest gap between checkpoint saves.
        self.windows: list[tuple[float, float]] = []
        #: ``(span_id, name, start_s, end_s, parent_id)``; parent -1 = root.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list, list]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]  # [child seconds, span id]
        stack.append(frame)
        return stack, frame

    def _close(self, name: str, started: float, ended: float,
               stack: list, frame: list) -> None:
        stack.pop()
        duration = ended - started
        parent_id = -1
        if stack:
            stack[-1][0] += duration
            parent_id = stack[-1][1]
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[0]
            self.calls[name] += 1
            if duration > self.max_s[name]:
                self.max_s[name] = duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[1], name, started, ended, parent_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the enclosing span."""
        stack, frame = self._open()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started, time.perf_counter(), stack, frame)

    def timed(self, name: str):
        """Wrapper factory: ``timed(name)(function)`` spans every call."""
        def decorate(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                stack, frame = self._open()
                started = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    self._close(name, started, time.perf_counter(), stack,
                                frame)
            return traced
        return decorate

    def interval(self, name: str, started: float, ended: float) -> None:
        """Record a span that crossed an ``await``: other tasks ran inside
        it, so it takes no place in the span stack."""
        with self._lock:
            duration = ended - started
            self.total_s[name] += duration
            self.self_s[name] += duration
            self.calls[name] += 1
            if duration > self.max_s[name]:
                self.max_s[name] = duration
            span_id = self._next_id
            self._next_id += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, started, ended, -1))

    def mark(self, name: str) -> None:
        """Remember the wall time of an instant (e.g. a checkpoint save)."""
        with self._lock:
            self.starts[name].append(time.perf_counter())

    def window(self, started: float, ended: float) -> None:
        self.windows.append((started, ended))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def write(self, path: str) -> None:
        """Write the span records and per-name totals as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": self.spans,
                "dropped": max(0, self._next_id - len(self.spans)),
                "total_s": self.total_s, "self_s": self.self_s,
                "calls": self.calls, "counters": self.counters,
            }, handle)


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def interval(self, name: str, started: float, ended: float) -> None:
        pass

    def window(self, started: float, ended: float) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass

    def mark(self, name: str) -> None:
        pass


def patch_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper factory)`` for every public call the
    traced run wraps. Each owner is where the caller resolves the name:
    a class for methods called on instances, the calling module for
    module-level functions imported by name."""
    import repro.core.codec as codec
    import repro.dot11.fcs as fcs
    import repro.dot11.frames as frames
    import repro.service.checkpoint as checkpoint
    import repro.service.queues as queues
    import repro.service.server as server
    import repro.service.tenants as tenants
    import repro.sim.medium as medium

    def batches(get_batch):
        @functools.wraps(get_batch)
        async def traced(queue, *args, **kwargs):
            tracer.peak("service.queues.depth_max", len(queue))
            batch = await get_batch(queue, *args, **kwargs)
            if batch:
                tracer.count("service.queues.batches")
                tracer.count("service.queues.batch_frames", len(batch))
            return batch
        return traced

    def decodes(decode_wires):
        timed = tracer.timed("service.ingest.decode")(decode_wires)

        @functools.wraps(decode_wires)
        def traced(wires, *args, **kwargs):
            payloads, errors = timed(wires, *args, **kwargs)
            tracer.count("service.ingest.frames", len(wires))
            tracer.count("service.ingest.errors", errors)
            return payloads, errors
        return traced

    def puts(submit_many):
        @functools.wraps(submit_many)
        async def traced(service, wires):
            started = time.perf_counter()
            try:
                return await submit_many(service, wires)
            finally:
                tracer.interval("service.queues.put_wait", started,
                                time.perf_counter())
        return traced

    def saves(save):
        timed = tracer.timed("service.checkpoint.save")(save)

        @functools.wraps(save)
        def traced(checkpointer, snapshot):
            tracer.mark("service.checkpoint.save")
            path = timed(checkpointer, snapshot)
            tracer.count("service.checkpoint.bytes", os.path.getsize(path))
            return path
        return traced

    return [
        (medium.WirelessMedium, "transmit",
         tracer.timed("sim.medium.transmit")),
        (codec.BeaconTemplate, "build", tracer.timed("core.codec.build")),
        (frames.Beacon, "to_bytes", tracer.timed("dot11.frames.to_bytes")),
        (fcs, "crc32", tracer.timed("dot11.fcs.crc32")),
        (server, "decode_wires", decodes),
        (server.GatewayService, "submit_many", puts),
        (tenants.TenantAggregate, "observe",
         tracer.timed("service.tenants.fold")),
        (tenants.TenantAggregate, "to_state",
         tracer.timed("service.tenants.snapshot")),
        (queues.BoundedPayloadQueue, "get_batch", batches),
        (checkpoint.ServiceCheckpointer, "save", saves),
    ]


def _current(owner: object, attribute: str) -> object:
    """The object bound at ``owner.attribute``, unwrapped by descriptors."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


@contextlib.contextmanager
def patched(targets: list[tuple[object, str, object]]):
    """Install the wrappers for the block; restore the originals after,
    even when the block raises."""
    originals = []
    try:
        for owner, attribute, wrap in targets:
            original = _current(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def tracer_for(tracer: Tracer | None, traced: bool):
    """``(tracer to record into, context installing the wrappers)`` for
    one iteration: the real ones when it is traced, no-ops otherwise."""
    if traced:
        return tracer, patched(patch_targets(tracer))
    return NullTracer(), contextlib.nullcontext()


def unpatched_snapshot() -> dict[str, object]:
    """The objects currently bound at every patch target, by dotted name;
    compared before and after a run to prove nothing stayed wrapped."""
    return {f"{getattr(owner, '__name__', owner)}.{attribute}":
            _current(owner, attribute)
            for owner, attribute, _ in patch_targets(Tracer())}
