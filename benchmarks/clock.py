"""Wall time normalised to a reference machine speed.

The machine this benchmark was written on shares its cores with other
tenants.  Its speed drifts by up to 3x, in phases that mostly last a few
tenths of a second.  So a calibration probe, a fixed pure-Python loop that
does not touch wfstdec, runs right before and right after every timed
region, and the region's wall time is scaled by REF_S over the mean probe
time within WINDOW_S of the region, to the power ALPHA.  A figure is then
the time the region takes when the probe takes REF_S.  Read ``Stopwatch.norm`` once the run is
over, so that later probes count too.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# Probe time at which normalised time equals wall time: about the fastest
# the probe runs on an idle 2-core Intel Xeon VM.
REF_S = 0.004
# Probes this close to a region, before or after it, describe its speed:
# the probe's speed a tenth of a second apart correlates about 0.5.
WINDOW_S = 0.1
# When the machine is slow, the decoder slows by the probe's slowdown to
# about this power: fitted per strategy and pass kind over three
# large-vocab runs, it came out between 0.65 and 0.81.  With it, the
# spread of normalised pass times was about a third narrower than with 1.
ALPHA = 0.7
# A probe that ended this recently can stand for one before a region.
FRESH_S = 0.02
_PROBE_KEYS = 20000


class Clock:
    """Calibration probes shared by every region a run times."""

    def __init__(self):
        rng = random.Random(0)
        keys = [(i, i * 7 % 1009) for i in range(_PROBE_KEYS)]
        self._table = {k: float(i) for i, k in enumerate(keys)}
        rng.shuffle(keys)
        self._keys = keys
        self.times: list[float] = []    # when each probe ended
        self.probes: list[float] = []   # how long each probe took
        self.probe()

    def probe(self) -> None:
        """Time the fixed loop of dictionary lookups and float adds, with
        the collector off so the program's heap cannot slow it."""
        get = self._table.get
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0.0
            for k in self._keys:
                acc += get(k)
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(t1)
        self.probes.append(t1 - t0)

    def speed(self, t0: float, t1: float) -> float:
        """Mean probe time within WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return statistics.fmean(self.probes[lo:hi])

    def stopwatch(self) -> "Stopwatch":
        return Stopwatch(self)


class Stopwatch:
    """Wall time of ``with`` segments; a probe runs right before (unless
    one has just ended) and right after each segment."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._segments: list[tuple[float, float]] = []

    def __enter__(self):
        clock = self._clock
        if time.perf_counter() - clock.times[-1] > FRESH_S:
            clock.probe()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._segments.append((self._t0, time.perf_counter()))
        self._clock.probe()
        return False

    @property
    def raw(self) -> float:
        return sum(t1 - t0 for t0, t1 in self._segments)

    @property
    def norm(self) -> float:
        return sum((t1 - t0) * (REF_S / self._clock.speed(t0, t1)) ** ALPHA
                   for t0, t1 in self._segments)
