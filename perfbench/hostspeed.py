"""Host speed: a fixed probe, independent of ``repro``, timed between batches.

A shared host's speed swings by up to 1.7x within seconds to minutes, as
neighbours load the cores, and it moves the probe and the program alike.
The end-to-end timings are therefore reported at a reference host speed:
each plan or window is bracketed by probes, and::

    reported = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

so a plan on a host slowed by 30% reports what it would have measured at
reference speed. The probe exercises what the program spends its time on:
Python dicts, heaps and sorts, NumPy array passes and a SciPy kd-tree. It
never touches ``repro``, so a change to the program moves the reported
timings as much as the measured ones. The measured values are printed too.
"""

from __future__ import annotations

import heapq
import time
from typing import List

import numpy as np
from scipy.spatial import cKDTree

#: The probe's median time on the reference host (a quiet 2-vCPU Xeon VM).
REFERENCE_PROBE_S = 0.05


class HostProbe:
    """Times the probe on demand and keeps every time it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._points = rng.random((8000, 2))
        self._matrix = rng.random((300, 300))
        self._vector = rng.random(100_000)
        self._keys = [(float(x), i) for i, x in enumerate(rng.random(20_000))]
        self.samples: List[float] = []
        self._run()  # warm-up, not recorded

    def _run(self) -> float:
        started = time.perf_counter()
        heap: list = []
        index = {}
        for key in self._keys:
            heapq.heappush(heap, key)
            index[key[1]] = key
        while heap:
            heapq.heappop(heap)
        sorted(self._keys)
        for _ in range(10):
            np.argsort(self._vector)
            np.sqrt(self._vector * self._vector + 1.0).sum()
        for _ in range(4):
            self._matrix @ self._matrix
        cKDTree(self._points).query(self._points[:3000], k=8)
        return time.perf_counter() - started

    def sample(self, repeats: int = 2) -> float:
        """Time the probe ``repeats`` times; the mean of these times."""
        times = [self._run() for _ in range(repeats)]
        self.samples.extend(times)
        return sum(times) / len(times)

    @property
    def median_s(self) -> float:
        return float(np.median(self.samples))


def at_reference_speed(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` measured between probes that took ``before_s`` and
    ``after_s``, scaled to the reference host speed."""
    return seconds * 2.0 * REFERENCE_PROBE_S / (before_s + after_s)
