"""Host-speed probe: times measured on a shared host, scaled to one speed.

The host's speed swings by up to 1.8x in phases that last from a
fraction of a second to minutes, and the floor moves with them: in some
minutes no call runs at full speed.  No statistic of raw times within a
run survives that.  So the timed loop runs a short fixed probe (integer
arithmetic, numpy element access, graph searches over dicts and lists,
and small SVDs: the kinds of work normrig does) at least every ``PROBE_EVERY_S`` seconds,
and every timed sample is divided by the median of the probes run
around it, then multiplied by ``PROBE_REF_S``.  A value therefore reads
as the time the call would take on a host where the probe takes
``PROBE_REF_S``; a change to normrig moves it exactly as it moves the
raw time.  The probe is the benchmark's own code and never calls
normrig.

The run report keeps the raw medians and the probe's median next to the
scaled values.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_REF_S = 0.0022  # about the probe's median on a quiet 2-core host
PROBE_EVERY_S = 0.025  # probe at least this often during a timed phase
PROBE_NEIGHBOURS = 4  # probes on each side that set a sample's scale

_MATRIX = np.random.default_rng(0).standard_normal((30, 60))
_ADJ = {v: [(v * 7 + k * 13) % 60 for k in range(1, 5)] for v in range(60)}


def probe() -> float:
    """Seconds taken by the fixed reference work: integer arithmetic,
    numpy element access in a Python loop, breadth-first searches over
    dicts and lists, and small SVDs."""
    t0 = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    flat = np.zeros(64, dtype=np.int64)  # element access, as in _kernels
    for i in range(1500):
        flat[i & 63] += flat[(i * 7) & 63] | 1
    for src in range(0, 60, 4):
        depth = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _ADJ[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
    for _ in range(4):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - t0


class Clock:
    """Timestamps of probes and of timed samples within one run."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self._last = -1.0
        self._starts: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Probe if forced or if none ran in the last PROBE_EVERY_S seconds."""
        now = time.perf_counter()
        if force or now - self._last >= PROBE_EVERY_S:
            self.probes.append((now, probe()))
            self._last = time.perf_counter()

    def level(self, at: float) -> float:
        """Median probe time around the instant ``at``."""
        if len(self._starts) != len(self.probes):  # ascending: probes are appended
            self._starts = [t for t, _ in self.probes]
        i = bisect.bisect_left(self._starts, at)
        near = self.probes[max(0, i - PROBE_NEIGHBOURS): i + PROBE_NEIGHBOURS]
        return statistics.median(d for _, d in near)

    def scale(self, at: float, seconds: float) -> float:
        """A sample taken at ``at``, in seconds at the reference speed."""
        return seconds * PROBE_REF_S / self.level(at)

    @property
    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.probes)
