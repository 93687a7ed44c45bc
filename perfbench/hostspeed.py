"""Host-speed calibration for the benchmark's timings.

On the 2-vCPU host this benchmark was tuned on, shared with other tenants,
the same Python code runs up to 1.5x slower from one second to the next and
drifts by up to 40% over minutes, so raw timings of two runs minutes apart
differ more than any code change worth detecting. A fixed pure-Python loop
that never calls ckbundle, timed right before and right after each measured
section, tracks that speed: there, the per-second mean time of one report
varied by 12.9% while its ratio to the loop's time varied by 2.3%.

`HostClock` times a section and converts its duration to the speed at which
the loop takes REFERENCE_MS, the loop's time on that host in its fast state.
The speed can change within a long section (a single report can take 3 s),
so the loop is also run every TICK_S of process CPU time inside a section,
from a SIGPROF handler in the same thread; the time spent in those samples
is taken out of the section's duration. A section that waits on a child
process uses no CPU time, so it samples the loop itself every WAIT_TICK_S
while it waits (`sample_while_waiting`); the child runs on meanwhile, on the
other CPU, so that time stays in the section.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_MS = 2.0
TICK_S = 0.1
WAIT_TICK_S = 0.02

_BASE = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]
_COLS = list(zip(*_BASE))


def _loop() -> list[list[int]]:
    m = _BASE
    for _ in range(6):
        m = [[sum(x * y for x, y in zip(row, col)) % 1000003 for col in _COLS] for row in m]
    return m


def sample_ms() -> float:
    """Wall time of one run of the calibration loop, in ms."""
    t0 = time.perf_counter()
    _loop()
    return (time.perf_counter() - t0) * 1000


class HostClock:
    """Times sections with `start` and `stop`, sampling the loop just before,
    inside and just after each one."""

    def __init__(self):
        self.samples = [sample_ms()]  # the samples between sections
        self._inside: list[float] = []
        self._inside_s = 0.0
        self._t0 = 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(sample_ms())
        self._inside_s += time.perf_counter() - t0

    def start(self) -> None:
        self._inside, self._inside_s = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        self._t0 = time.perf_counter()

    def sample_while_waiting(self) -> None:
        self._inside.append(sample_ms())

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds since `start`, without the samples inside;
        scaled is raw at reference speed."""
        raw = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_PROF, 0)
        raw -= self._inside_s
        self.samples.append(sample_ms())
        factor = statistics.fmean([self.samples[-2], *self._inside, self.samples[-1]]) / REFERENCE_MS
        return raw, raw / factor
