"""The machine's speed, sampled in this interpreter, which never imports
thetacalc: the time of a fixed pure-Python loop, and the reference-speed
scaling built on it (design.json, "timing").  While a pass runs, its
process is stopped for each sample, and the stop is taken out of every
time that spans it.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

REFERENCE_LOOP_S = 0.0025
SAMPLE_EVERY_S = 0.2
WINDOW_S = 0.5


def reference_loop() -> int:
    """Fixed pure-Python work of the same kind as thetacalc's: small
    tuples, calls, comparisons."""
    total = 0
    for i in range(5000):
        row = tuple(range(i % 7, i % 7 + 5))
        total += sum(row) if row[0] < row[-1] else len(row)
    return total


def loop_time() -> float:
    """Median time of seven runs of the reference loop, in seconds."""
    times = []
    for _ in range(7):
        start = time.monotonic()
        reference_loop()
        times.append(time.monotonic() - start)
    return sorted(times)[3]


def _state(pid: int) -> str:
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rpartition(")")[2].split()[0]


class Speed:
    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self.pauses: list[tuple[float, float]] = []  # (stopped, resumed)

    def sample(self, pid: int | None = None) -> None:
        """Time the loop; with pid, stop that process while doing so."""
        if pid is None:
            self.times.append(time.monotonic())
            self.loops.append(loop_time())
            return
        os.kill(pid, signal.SIGSTOP)
        try:
            give_up = time.monotonic() + 1.0
            while (state := _state(pid)) not in "TZ" and time.monotonic() < give_up:
                pass
            stopped = time.monotonic()
            self.times.append(stopped)
            self.loops.append(loop_time())
        finally:
            os.kill(pid, signal.SIGCONT)
        if state == "T":
            self.pauses.append((stopped, time.monotonic()))

    def busy(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 that no pause took."""
        spent = t1 - t0
        for start, end in self.pauses[max(bisect.bisect_left(self.pauses, (t0,)) - 1, 0) :]:
            if start >= t1:
                break
            spent -= max(0.0, min(end, t1) - max(start, t0))
        return spent

    def scale(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less pauses, at reference speed: scaled
        by the mean sample from WINDOW_S before t0 to WINDOW_S after t1,
        always including the last sample before t0 and the first after t1.
        The mean, because a time adds up the machine's slowness over its
        span."""
        times = self.times
        lo = min(bisect.bisect_left(times, t0 - WINDOW_S), bisect.bisect_right(times, t0) - 1)
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), bisect.bisect_left(times, t1) + 1)
        return self.busy(t0, t1) * REFERENCE_LOOP_S / statistics.fmean(self.loops[max(lo, 0) : hi])
