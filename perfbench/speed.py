"""Host speed, measured by a fixed reference kernel run between cycles.

The shared host this benchmark runs on changes speed by up to ~1.75x for
seconds to minutes at a time, on one vCPU or on both. Every timed part of a
run is therefore scaled by how fast the host ran at that moment: a fixed
pure-Python kernel, shaped like the simulator's per-link sweeps (small
objects, tuple-keyed dicts, float arithmetic, sorting), is timed every
``EVERY_S`` seconds in the same process and on the same CPU as the
workload. A part that took ``t`` seconds while the kernel took ``k`` times
its reference time is reported as ``t / k`` seconds, that is, seconds on a
host where one kernel pass takes ``REFERENCE_S``.

The kernel does not import tcaco, so a change to the program moves the
workload's times and not the kernel's: it shows in full in the scaled times.
"""

from __future__ import annotations

import bisect
import math
import random
import time

_clock = time.perf_counter

REFERENCE_S = 0.001    # one kernel pass on the 2-vCPU Xeon host sized on, Python 3.11
EVERY_S = 0.03         # wall seconds between kernel passes, at least
WINDOW = 25            # kernel passes on each side that set the speed at a moment


class _Link:
    def __init__(self, sent: int, acks: int, latency_sum: float, latency_n: int):
        self.sent = sent
        self.acks = acks
        self.latency_sum = latency_sum
        self.latency_n = latency_n

    def mean_latency(self):
        return self.latency_sum / self.latency_n if self.latency_n else None


class Kernel:
    """A fixed amount of simulator-like work per ``run``; imports nothing of tcaco."""

    NODES = 600
    DEGREE = 12
    PER_PASS = 40          # nodes swept per pass; divides NODES

    def __init__(self, seed: int = 7):
        rng = random.Random(seed)
        n = self.NODES
        self.adjacency = [rng.sample(range(n), self.DEGREE) for _ in range(n)]
        self.levels = [rng.randrange(1, 9) for _ in range(n)]
        self.energy = [rng.uniform(0.2, 1.0) for _ in range(n)]
        self.links = {}
        for i, neighbors in enumerate(self.adjacency):
            for j in neighbors:
                sent = rng.randrange(0, 40)
                self.links[(i, j)] = _Link(sent, rng.randrange(0, sent + 1),
                                           rng.uniform(0.0, 30.0), rng.randrange(0, 5))
        self.pheromone = {key: 1.0 for key in self.links}
        self.start = 0
        self.checksum = 0.0

    def run(self) -> None:
        links, pheromone, levels, energy = self.links, self.pheromone, self.levels, self.energy
        first = self.start
        self.start = (first + self.PER_PASS) % self.NODES
        total = 0.0
        for i in range(first, first + self.PER_PASS):
            neighbors = self.adjacency[i]
            group_sum: dict = {}
            group_cnt: dict = {}
            for j in neighbors:
                m = links[(i, j)].mean_latency()
                if m is not None:
                    lvl = levels[j]
                    group_sum[lvl] = group_sum.get(lvl, 0.0) + m
                    group_cnt[lvl] = group_cnt.get(lvl, 0) + 1
            scored = []
            for j in neighbors:
                link = links[(i, j)]
                ptr = link.acks / link.sent if link.sent else 1.0
                m = link.mean_latency()
                peers = group_cnt.get(levels[j], 0)
                pl = 1.0 if m is None or peers < 2 else \
                    min(1.0, group_sum[levels[j]] / peers / (m + 1.0))
                ne = (energy[i] + energy[j]) / 2.0
                trust = (ne + ptr + pl) / 3.0
                tau = pheromone[(i, j)]
                scored.append((tau ** 2 * math.exp(-1.0 / (trust + 0.1)), j))
            weight = sum(s for s, _ in scored)
            ranked = sorted(((s / weight, j) for s, j in scored), reverse=True)
            total += ranked[0][0]
            for _, j in ranked[:3]:
                pheromone[(i, j)] = pheromone[(i, j)] * 0.9 + 0.1
        self.checksum += total


class Speed:
    """Kernel passes taken through a run, and times scaled by them."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel.run()                # warm
        self.at: list[float] = []        # midpoint of each pass
        self.took: list[float] = []      # seconds of each pass
        self.spent = 0.0                 # seconds spent in passes so far
        self.due = 0.0

    def sample(self) -> None:
        t0 = _clock()
        self.kernel.run()
        t1 = _clock()
        self.at.append((t0 + t1) / 2.0)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self.due = t1 + EVERY_S

    def tick(self) -> None:
        """Take a pass if the last one is ``EVERY_S`` old."""
        if _clock() >= self.due:
            self.sample()

    def slowdown(self, t: float) -> float:
        """How many times slower than the reference the host ran around ``t``.

        The passes nearest ``t`` are summed, not their median taken, so time
        lost to preemption counts in proportion, as it does in the workload.
        """
        if not self.took:
            raise ValueError("no kernel pass was taken")
        k = bisect.bisect_left(self.at, t)
        lo = max(0, k - WINDOW)
        hi = min(len(self.took), k + WINDOW)
        return sum(self.took[lo:hi]) / ((hi - lo) * REFERENCE_S)

    def scaled(self, seconds: float, mid: float) -> float:
        """``seconds`` of work centred on ``mid``, at reference host speed."""
        return seconds / self.slowdown(mid)
