"""Host-speed calibration interleaved with the measured work.

The benchmark host is a shared VM whose speed changes by up to 2x within
a second (see README.md, "Host drift"). While a workload runs, a timer
signal interrupts it every :data:`SAMPLE_INTERVAL_S` to time a fixed
pure-Python burst of about 2 ms; explicit bursts also mark the start and
end of every measured stretch. Each stretch of work between two bursts
is rescaled by how long those bursts took compared with
:data:`REFERENCE_MS`, and burst time itself is excluded. Figures divided
this way describe the program on a host of fixed speed; the raw figures
are kept beside them for auditing.

The burst touches no repository code, so a change to the program under
test cannot move the yardstick. Python runs signal handlers on the main
thread between bytecodes, so a burst never lands inside a C call; during
a long NumPy call it waits for the call to return.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

#: Nominal burst duration the normalised figures are scaled to: about
#: what the burst takes on the 2-vCPU benchmark VM when it runs fast.
REFERENCE_MS = 2.0
BURST_ITERATIONS = 8_000
#: Wall time between two timer-driven bursts.
SAMPLE_INTERVAL_S = 0.05


def _burst_work(iterations: int) -> int:
    """Interpreter-bound work: integer arithmetic and dict updates."""
    table: dict[int, int] = {}
    acc = 0
    for index in range(iterations):
        acc = (acc * 33 + index) & 0xFFFFFFFF
        key = acc & 255
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


class HostCalibration:
    """A timeline of calibration bursts within one benchmark process.

    ``burst()`` returns the index of the burst it ran; the work done
    between two burst indices is measured with :meth:`raw_seconds` and
    :meth:`normalised_seconds`. Burst time itself is excluded from both.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` perf_counter pairs, in time order.
        self.bursts: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._busy = False

    def burst(self) -> int:
        self._busy = True  # a timer signal landing now skips its burst
        try:
            started = time.perf_counter()
            _burst_work(BURST_ITERATIONS)
            self.bursts.append((started, time.perf_counter()))
            self._starts.append(started)
            return len(self.bursts) - 1
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self.burst()

    @contextlib.contextmanager
    def sampling(self):
        """Run a burst every :data:`SAMPLE_INTERVAL_S` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _duration(self, index: int) -> float:
        started, ended = self.bursts[index]
        return ended - started

    def raw_seconds(self, first: int, last: int) -> float:
        """Wall time between bursts ``first`` and ``last``, bursts excluded."""
        return sum(self.bursts[index + 1][0] - self.bursts[index][1]
                   for index in range(first, last))

    def normalised_seconds(self, first: int, last: int) -> float:
        """Like :meth:`raw_seconds`, with each stretch between two bursts
        rescaled by the mean of those two bursts against the reference."""
        reference_s = REFERENCE_MS / 1e3
        total = 0.0
        for index in range(first, last):
            gap = self.bursts[index + 1][0] - self.bursts[index][1]
            local = (self._duration(index) + self._duration(index + 1)) / 2
            total += gap * reference_s / local
        return total

    def normalised_interval(self, started: float, ended: float) -> float:
        """An interval timed by the caller (a live chunk's latency), with
        the bursts inside it removed and the rest rescaled by the bursts
        around and inside it."""
        first = max(bisect.bisect_right(self._starts, started) - 1, 0)
        last = min(bisect.bisect_left(self._starts, ended),
                   len(self.bursts) - 1)
        inside = sum(max(0.0, min(end, ended) - max(start, started))
                     for start, end in self.bursts[first:last + 1])
        local = statistics.fmean(self._duration(index)
                                 for index in range(first, last + 1))
        return (ended - started - inside) * REFERENCE_MS / 1e3 / local

    def median_ms(self) -> float:
        return statistics.median(self._duration(index)
                                 for index in range(len(self.bursts))) * 1e3
