"""Per-link interaction evidence and the trust value derived from it.

Trust of node i upon node j blends three observables, each normalized to
[0,1]: the average remaining energy of the pair, the acknowledgement ratio
of the link, and a latency score comparing j against i's other candidates.
The blend is a weighted mean, so scaling all weights together changes
nothing.

``TrustStats`` holds the evidence and applies each record at once. It
indexes each node's senders and each node's timed receivers (the links
with latency evidence), so a read walks only links with evidence, never a
whole neighbour row. The engine records a cycle's evidence at its step 8,
a link's lost transfers as that many unbounded latency samples after the
cycle's finite ones. A sample is never negative or NaN, so once a link's
latency sum is unbounded it stays so, whatever lands before or after:
counting the lost transfers at step 8 gives the bits that recording each
as it happened gives.

``TrustReads`` is the one reader of that evidence, held by the engine as
``Simulation.trust``. At step 8 of every cycle, for every protocol, it
takes one snapshot of levels and energies; every value it reads comes from
the evidence and the snapshot, and it computes only what a decision reads.
``trusted`` answers "is the link above the threshold" from the blend's
bounds at latency scores 0 and 1, and scores the latency only when the
bounds straddle the threshold; ``link`` reads the exact value, which only
tc_aco's trust-congestion score uses. ``latency_score`` is the one
computation of a link's latency score, from its level group's sum, which
``level_group`` derives once per snapshot; ``components`` gives a link's
metrics and their exact blend by ``blend``, the weighted mean, under weights
``trust_weights`` checks once per simulation. ``malicious`` serves routing,
each verdict made once per snapshot, and ``rows`` the trust dump and the
tests. The tests hold independent per-link references for the three
metrics and the full node verdict, and compare the reader against them.
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import pairwise
from typing import Sequence

from .config import SimConfig
from .routing import level_form

TRUSTWORTHY = "trustworthy"
UNTRUSTED = "untrusted"


class ZeroWeights(ValueError):
    """All three trust weights are zero; the weighted mean is undefined."""


class LinkStats:
    """Evidence accumulated for one directed link."""

    __slots__ = ("packets_sent", "acks_received", "latency_count", "latency_sum")

    def __init__(self):
        self.packets_sent = 0
        self.acks_received = 0
        self.latency_count = 0
        self.latency_sum = 0.0


# What a link without evidence reads as; shared, never written.
_NO_EVIDENCE = LinkStats()


class TrustStats:
    """All per-link evidence for one simulation instance (single writer).

    Each ``record_*`` call applies its evidence at once, and ``link`` reads
    it. Only evidence creates a link's record; reading a link without any
    stores nothing.

    Sends and acks are recorded as counts per link, ``record_send(i, j, n)``
    and ``record_ack(i, j, n)``, and so are latency samples,
    ``record_latency(i, j, value, n)``, which adds its ``n`` samples one at
    a time. ``record_trail`` adds one latency sample to every link of a
    trail, link by link, so a delivery makes one record.

    Two indexes of the evidence have an entry only for a node that has one:
    ``senders[j]`` lists each k whose link k->j has a send, in the order of
    their first sends, and ``timed[i]`` each j whose link i->j has a latency
    sample, in ascending id order."""

    def __init__(self):
        self._links: dict[tuple[int, int], LinkStats] = {}
        self.senders: dict[int, list[int]] = {}
        self.timed: dict[int, list[int]] = {}

    def link(self, i: int, j: int) -> LinkStats:
        return self._links.get((i, j), _NO_EVIDENCE)

    def record_send(self, i: int, j: int, n: int = 1) -> None:
        s = self._links.get((i, j))
        if s is None:
            s = self._links[(i, j)] = LinkStats()
        if not s.packets_sent:
            self.senders.setdefault(j, []).append(i)
        s.packets_sent += n

    def record_ack(self, i: int, j: int, n: int = 1) -> None:
        """``n`` acks on the link i->j; the link never holds more acks than
        sends."""
        s = self._links.get((i, j), _NO_EVIDENCE)
        acks = s.acks_received + n
        if acks > s.packets_sent:
            raise RuntimeError(f"more acks than sends on link {i}->{j}")
        if n:
            s.acks_received = acks

    def record_latency(self, i: int, j: int, value: float, n: int = 1) -> None:
        """``n`` latency samples ``value`` on the link i->j."""
        if n < 1:
            raise ValueError("a latency record holds at least one sample")
        self.record_trail((i, j), value)
        s = self._links[(i, j)]
        s.latency_count += n - 1
        for _ in range(n - 1):
            s.latency_sum += value

    def record_trail(self, trail: Sequence[int], value: float) -> None:
        """One latency sample ``value`` on each link of ``trail``."""
        if not value >= 0:
            raise ValueError("latency samples must be non-negative")
        links, timed = self._links, self.timed
        for i, j in pairwise(trail):
            s = links.get((i, j))
            if s is None:
                s = links[(i, j)] = LinkStats()
            if not s.latency_count:
                insort(timed.setdefault(i, []), j)
            s.latency_count += 1
            s.latency_sum += value


def trust_weights(a1: float, a2: float, a3: float) -> tuple[float, float, float, float]:
    """The weights ``(a1, a2, a3, a1 + a2 + a3)`` the blend divides by,
    checked once: zero weights raise, and weights so small that their
    products would underflow are scaled up by a power of two, which is exact
    and leaves the mean unchanged."""
    total = a1 + a2 + a3
    if total == 0:
        raise ZeroWeights("a1 + a2 + a3 must be positive")
    if total < 1e-300:
        a1, a2, a3 = a1 * 2.0 ** 1000, a2 * 2.0 ** 1000, a3 * 2.0 ** 1000
        total = a1 + a2 + a3
    return a1, a2, a3, total


def blend(ne: float, ptr: float, pl: float,
          weights: tuple[float, float, float, float]) -> float:
    """Weighted mean of the three trust metrics under ``trust_weights``."""
    a1, a2, a3, total = weights
    return (a1 * ne + a2 * ptr + a3 * pl) / total


class TrustReads:
    """Every trust value and verdict of one simulation, read on demand.

    ``stats`` is the evidence, recorded only just before a ``take``.
    ``take`` replaces the snapshot that every read sees until the next
    ``take``: ``levels`` and ``energies``, indexed by endpoint id with the
    sink last, a node without a level at the sentinel of
    ``routing.level_form``. Before the first, every node holds the sentinel
    and every battery is full, so every link reads 1.0.

    ``trusted`` answers the threshold test from the blend's bounds and
    scores the latency only when they straddle the threshold; ``link``
    reads the exact value. A level group's latency sum and a node's verdict
    are derived at most once per snapshot, when a read first needs them,
    and kept until the next ``take``: the reader's only memos.
    """

    def __init__(self, cfg: SimConfig, adjacency: Sequence[Sequence[int]]):
        n = cfg.node_count
        self.stats = TrustStats()
        self.adjacency = adjacency
        self.node_count = n
        self.e_init = cfg.initial_energy
        self.weights = trust_weights(cfg.a1, cfg.a2, cfg.a3)
        self.threshold = cfg.trust_threshold
        self.literal = cfg.latency_polarity == "literal"
        # a nominal comparison latency for a row without peers on a level
        self.reference = float(cfg.wc_max)
        self.levels: Sequence[int] = [level_form(n)[1]] * (n + 1)
        self.energies: Sequence[float] = [cfg.initial_energy] * (n + 1)
        self._groups: dict[tuple[int, int], tuple[float, int]] = {}
        self._verdicts: dict[int, bool] = {}

    def take(self, levels: Sequence, energies: Sequence[float]) -> None:
        """Read from ``levels`` and ``energies`` until the next call; both
        are kept, not copied."""
        self.levels, self.energies = levels, energies
        self._groups = {}
        self._verdicts = {}

    def level_group(self, i: int, level: int) -> tuple[float, int]:
        """Sum and count of the mean latencies of i's timed links to the
        nodes on ``level``, summed in ``stats.timed[i]`` order, which is
        ascending id order (the order of an adjacency row, where the sink,
        id n, comes last). The nodes without a level share the sentinel, so
        they are one group."""
        key = (i, level)
        group = self._groups.get(key)
        if group is None:
            link, levels = self.stats.link, self.levels
            total, count = 0.0, 0
            for k in self.stats.timed[i]:
                if levels[k] == level:
                    s = link(i, k)
                    total += s.latency_sum / s.latency_count
                    count += 1
            group = self._groups[key] = (total, count)
        return group

    def latency_score(self, i: int, j: int, s: LinkStats) -> float:
        """Latency score of j in i's row; ``s`` is the record of the link
        (i, j), which holds latency evidence.

        The link's mean latency is compared against the mean of the others
        on j's level: their level group's sum with its own term taken back
        out. Without such peers, ``reference`` stands in for their mean.
        Normalized polarity rewards nodes faster than their peers, capped at
        1, and scores an unbounded mean latency (transfers that never
        completed) 0 outright; literal polarity returns the raw slow/fast
        ratio clamped to [0,1]. Either way the score lies in [0,1].
        """
        m_j = s.latency_sum / s.latency_count
        literal = self.literal
        if m_j == math.inf:
            return 1.0 if literal else 0.0
        total, cnt = self.level_group(i, self.levels[j])
        cnt -= 1
        mean_others = (total - m_j) / cnt if cnt > 0 else self.reference
        if literal:
            if mean_others == 0.0:
                return 1.0
            # min(1.0, max(0.0, ratio)), as the comparisons it makes
            pl = m_j / mean_others
            if not pl > 0.0:
                return 0.0
            return pl if pl < 1.0 else 1.0
        if m_j == 0.0:
            return 1.0
        pl = mean_others / m_j
        return pl if pl < 1.0 else 1.0

    def _metrics(self, i: int, j: int) -> tuple[LinkStats, float, float]:
        """The record of the link (i, j), read straight from the link
        dict, and its energy and transmission metrics ``ne``, ``ptr``."""
        s = self.stats._links.get((i, j), _NO_EVIDENCE)
        energies = self.energies
        ne = ((energies[i] + energies[j]) / 2.0) / self.e_init
        ptr = s.acks_received / s.packets_sent if s.packets_sent else 1.0
        return s, ne, ptr

    def components(self, i: int, j: int) -> tuple[float, float, float, float]:
        """Trust components ``(ne, ptr, pl, t_ij)`` of the link (i, j); a
        neighbor without latency evidence scores the neutral 1.0."""
        s, ne, ptr = self._metrics(i, j)
        pl = self.latency_score(i, j, s) if s.latency_count else 1.0
        return ne, ptr, pl, blend(ne, ptr, pl, self.weights)

    def link(self, i: int, j: int) -> float:
        """Trust of i upon j."""
        return self.components(i, j)[3]

    def trusted(self, i: int, j: int) -> bool:
        """Whether ``link(i, j) > threshold``, scoring the latency only
        when the blend's bounds do not decide it.

        A latency score lies in [0,1], and with non-negative weights and a
        positive total the float blend is monotone in it, so the blends at
        0.0 and 1.0 bound the exact one bit for bit: a low bound above the
        threshold passes, a high bound at or below it fails."""
        s, ne, ptr = self._metrics(i, j)
        weights, th = self.weights, self.threshold
        if not s.latency_count:
            return blend(ne, ptr, 1.0, weights) > th
        if blend(ne, ptr, 0.0, weights) > th:
            return True
        if not blend(ne, ptr, 1.0, weights) > th:
            return False
        return blend(ne, ptr, self.latency_score(i, j, s), weights) > th

    def malicious(self, j: int) -> bool:
        """Verdict on node j: some node has sent to it, and none of those
        senders' links to it is trustworthy. The walk covers j's senders
        only, stops at the first trustworthy link, and is made at most once
        per snapshot."""
        verdict = self._verdicts.get(j)
        if verdict is None:
            senders = self.stats.senders.get(j)
            verdict = senders is not None
            if verdict:
                trusted = self.trusted
                for k in senders:
                    if trusted(k, j):
                        verdict = False
                        break
            self._verdicts[j] = verdict
        return verdict

    def rows(self):
        """Yield ``(i, [(j, ne, ptr, pl, t_ij), ...])`` per node, in link
        order: every link of the snapshot, as ``link`` reads it."""
        for i in range(self.node_count):
            yield i, [(j, *self.components(i, j)) for j in self.adjacency[i]]
