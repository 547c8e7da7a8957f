"""Machine-speed reference for the end-to-end time metrics.

The measuring machine (a shared 2-vCPU VM) changes speed by up to a
factor of two over tens of seconds, and process CPU time follows wall
time, so no time taken on it alone is steady from run to run.  Each
worker therefore times a fixed reference kernel, which does not use
spherelab, beside its requests, and every time is scaled by NOMINAL_S
over the kernel time measured nearest to it: the figures are
milliseconds and seconds at the speed where the kernel takes NOMINAL_S.  A change to
spherelab moves the requests' times and not the kernel's.

The kernel mixes what spherelab's requests do: a scalar Python loop,
many numpy calls on arrays of a few elements (as in the Gauss sums of
``decay``), small complex exponentials, a small FFT, matrix products, a
Hermitian eigen-solve and a pass over an array larger than the CPU cache.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

NOMINAL_S = 1.5e-3      # fixed; the kernel's run medians on a 2-vCPU Xeon VM: 1.0-2.1 ms

_rng = np.random.default_rng(20241008)
_Z = _rng.normal(size=512) + 1j * _rng.normal(size=512)
_M = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _M + _M.conj().T
_TINY = np.exp(1j * np.arange(8.0))
_BIG = _rng.normal(size=1 << 19)            # 4 MiB
_OUT = np.empty_like(_BIG)


def kernel() -> float:
    s = 0.0
    for i in range(600):
        s += math.cos(0.001 * i) * (i % 7)
    for i in range(150):
        s += abs(np.exp(2j * np.pi * (_TINY * (i % 5))).sum())
    for j in range(12):
        z = np.exp(2j * np.pi * _Z[: 64 + 8 * j]).sum()
        s += abs(z) + abs(np.fft.fft(_Z[:128])[j])
        s += abs((_M @ _M)[0, j])
    s += np.linalg.eigvalsh(_H)[0]
    np.multiply(_BIG, 1.5, out=_OUT)
    s += _OUT[7]
    return s


def time_kernel() -> float:
    """Seconds for one run of the kernel."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def median_kernel(reps: int) -> float:
    """Median kernel time over reps runs, after one untimed warm-up."""
    kernel()
    return statistics.median(time_kernel() for _ in range(reps))


class Sampler:
    """Kernel times taken between a stream's requests, and the scale of each.

    ``after(start)`` is called when a request that began at ``start``
    returns.  It times the kernel when EVERY_S or more have passed since
    the last sample: one untimed run first brings the kernel's data back
    into the caches, then REPS timed runs.  Short requests thus mostly run back to back, as
    they would without the benchmark, and a sample costs a few per cent of
    the run.  ``scales()`` gives, for each request in turn, NOMINAL_S over
    the median kernel time sampled from WINDOW_S before its start to
    WINDOW_S after its end, or over the MIN_SAMPLES samples nearest to its
    start when that span holds fewer.
    """

    EVERY_S = 0.05
    REPS = 2
    WINDOW_S = 0.5
    MIN_SAMPLES = 4

    def __init__(self):
        self.spans: list[tuple[float, float]] = []    # request start and end times
        self.stamps: list[float] = []          # sample times
        self.times: list[float] = []           # median kernel time per sample
        self._last = -math.inf                 # end of the last sample

    def after(self, start: float) -> None:
        now = perf_counter()
        self.spans.append((start, now))
        if now - self._last >= self.EVERY_S:
            kernel()
            self.times.append(statistics.median(time_kernel() for _ in range(self.REPS)))
            self.stamps.append(now)
            self._last = perf_counter()

    def median_time(self) -> float:
        return statistics.median(self.times)

    def scales(self) -> list[float]:
        out = []
        for start, end in self.spans:
            lo = bisect_left(self.stamps, start - self.WINDOW_S)
            hi = bisect_right(self.stamps, end + self.WINDOW_S)
            if hi - lo < self.MIN_SAMPLES:
                mid = bisect_left(self.stamps, start)
                lo = max(0, min(mid - self.MIN_SAMPLES // 2,
                                len(self.stamps) - self.MIN_SAMPLES))
                hi = lo + self.MIN_SAMPLES
            out.append(NOMINAL_S / statistics.median(self.times[lo:hi]))
        return out
