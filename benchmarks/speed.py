"""Machine-speed probe: time a fixed numpy/scipy slice all through a pass.

The machine's speed drifts by about +-25 % over minutes, and the drift is
per core: a calibration loop on the other core does not track it, and one
calibration before and after a pass tracks it only loosely (correlation
about 0.6).  So a SIGALRM timer interrupts the pass every ``INTERVAL_S`` and
runs one slice of fixed work (FFTs at a cache-resident and at the desk size,
then numpy calls on tiny arrays, where per-call overhead dominates) on the
same core and in the same window as novlab.
The mean slice time tracks the pass's speed (correlation about 0.97 on a
corpus study), and ``normalize`` scales the pass to the speed at which one
slice takes ``REFERENCE_SLICE_S``.  The slices cost about 5 % of a pass;
their time is subtracted before scaling.  An import cannot be interrupted by
numpy work before numpy is loaded, so ``sample`` times slices right after it
instead (correlation about 0.6, which still halves the import's spread).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.2
# median slice time on the reference machine (see README.md)
REFERENCE_SLICE_S = 0.010


class SpeedProbe:
    """Context manager that records one slice time per timer tick."""

    def __init__(self):
        import numpy as np
        from scipy.fft import irfft, rfft

        rng = np.random.default_rng(0)
        tiny = rng.standard_normal(64)
        small, large = rng.standard_normal(2**13), rng.standard_normal(2**17)

        def work():
            # FFTs in and out of L2, then per-call overhead on tiny arrays
            for _ in range(14):
                irfft(rfft(small) * 0.5, n=small.size)
            irfft(rfft(large) * 0.5, n=large.size)
            for _ in range(450):
                float(np.max(np.abs(tiny * 0.5)))

        work()  # builds the FFT plans outside any timed slice
        self._work = work
        self.slices = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._work()
        self.slices.append(perf_counter() - t0)

    def __enter__(self):
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, wall: float) -> float:
        """``wall`` minus the slices, at the reference machine speed."""
        if not self.slices:
            return wall
        return at_reference_speed(wall - sum(self.slices), statistics.fmean(self.slices))

    def sample(self, n: int = 8) -> float:
        """Median time of ``n`` slices run back to back, outside any pass."""
        times = []
        for _ in range(n):
            t0 = perf_counter()
            self._work()
            times.append(perf_counter() - t0)
        return statistics.median(times)


def at_reference_speed(seconds: float, slice_s: float) -> float:
    """Scale ``seconds`` measured while one slice took ``slice_s``."""
    return seconds * REFERENCE_SLICE_S / slice_s
