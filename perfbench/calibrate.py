"""Reference-speed normalization of measured times.

On a shared machine the speed of one CPU can drift by more than 1.5x
within minutes, which swamps any change a benchmark wants to see.  The
benchmark therefore times a fixed calibration kernel next to the work
it measures and reports every end-to-end time *at reference speed*::

    reported = measured * REFERENCE_S / kernel_time_now

The kernel is a pure-Python Dijkstra (lists, dicts and ``heapq``, like
the program's own hot loops) over a fixed random graph.  It belongs to
the benchmark, not the program, so no change to the program can move
it: a faster program still reads faster, a faster machine does not.
Raw times are printed next to the normalized ones.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List, Optional, Tuple

#: Kernel time that defines reference speed (about the kernel's time on
#: the 2-core box the baseline was recorded on, in a quiet period).
REFERENCE_S = 0.0025
#: Kernel runs per calibration.
RUNS = 3
_NODES = 600
_DEGREE = 4


def _graph() -> List[List[Tuple[int, float]]]:
    rng = random.Random(20170605)
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(_NODES)]
    for v in range(1, _NODES):
        for _ in range(_DEGREE):
            u = rng.randrange(v)
            weight = rng.random()
            adjacency[v].append((u, weight))
            adjacency[u].append((v, weight))
    return adjacency


def _kernel(adjacency: List[List[Tuple[int, float]]]) -> float:
    """One Dijkstra from node 0; returns its wall time in seconds."""
    t0 = time.perf_counter()
    dist = {0: 0.0}
    done = set()
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, weight in adjacency[u]:
            nd = d + weight
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return time.perf_counter() - t0


class Calibrator:
    """Samples the machine speed; averages it over a stretch of time.

    The slowdown on a shared host switches on and off within a second,
    so one sample says little; the mean kernel time over many samples
    taken through a stretch estimates that stretch's average slowdown.
    """

    def __init__(self) -> None:
        self._adjacency: Optional[List[List[Tuple[int, float]]]] = None
        #: Kernel times, in seconds, in the order they were taken.
        self.samples: List[float] = []

    def calibrate(self) -> None:
        """Time the kernel :data:`RUNS` times now."""
        if self._adjacency is None:
            self._adjacency = _graph()
        self.samples.extend(_kernel(self._adjacency) for _ in range(RUNS))

    def scale(self, first: int = 0) -> float:
        """``REFERENCE_S`` over the mean kernel time of ``samples[first:]``."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])
