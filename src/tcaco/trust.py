"""Per-link interaction evidence and the trust value derived from it.

Trust of node i upon node j blends three observables, each normalized to
[0,1]: the average remaining energy of the pair, the acknowledgement ratio
of the link, and a latency score comparing j against i's other candidates.
The blend is a weighted mean, so scaling all weights together changes
nothing.

``TrustStats`` buffers a cycle's evidence as it is recorded and applies it
when the engine commits it at the end of the cycle; every read sees
committed evidence only. As it commits, it indexes each node's senders and
each node's timed receivers (the links with latency evidence), so a read
walks only links with evidence, never a whole neighbour row.
``latency_scores`` is the one computation of a row's latency scores, over
its timed receivers, and ``link_trust`` the one computation of a link's
other components and its blend; ``blend`` is the weighted mean, under
weights ``trust_weights`` checks once per simulation. Every trust value is
read from the committed evidence and one snapshot of energies and levels,
which the engine takes at the end of every cycle for every protocol: the
engine reads each value it routes on through the two functions, and
``node_trust`` puts a node's whole row together from the same two for
``Simulation.trust_rows()``, which serves the trust dump and the tests. The
tests hold independent per-link references for the three metrics and the
full node verdict, and compare ``node_trust`` and the engine against them.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Sequence

TRUSTWORTHY = "trustworthy"
UNTRUSTED = "untrusted"
TRUSTED_NODE = "trusted"
MALICIOUS_NODE = "malicious"


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

    def mean_latency(self) -> float | None:
        if not self.latency_count:
            return None
        return self.latency_sum / self.latency_count


# What a link without evidence reads as; shared, never written.
_NO_EVIDENCE = LinkStats()


# the kinds of evidence a record buffers
_SEND, _ACK, _LATENCY = range(3)


class TrustStats:
    """All per-link evidence for one simulation instance (single writer).

    The ``record_*`` calls buffer their evidence in the order it arrives;
    ``commit`` applies the buffer, and ``link`` reads committed evidence
    only. Only evidence creates a link's record; reading a link without any
    stores nothing.

    ``commit`` also keeps two indexes of the committed evidence, with an
    entry only for a node that has one: ``senders[j]`` lists each k whose
    link k->j has a send, in the order of their first sends, and
    ``timed[i]`` each j whose link i->j has a latency sample, in ascending
    id order."""

    def __init__(self):
        self._links: dict[tuple[int, int], LinkStats] = {}
        self._pending: list[tuple[int, int, int, float]] = []
        self.senders: dict[int, list[int]] = {}
        self.timed: dict[int, list[int]] = {}

    def link(self, i: int, j: int) -> LinkStats:
        return self._links.get((i, j), _NO_EVIDENCE)

    def record_send(self, i: int, j: int) -> None:
        self._pending.append((_SEND, i, j, 0.0))

    def record_ack(self, i: int, j: int) -> None:
        self._pending.append((_ACK, i, j, 0.0))

    def record_latency(self, i: int, j: int, value: float) -> None:
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        self._pending.append((_LATENCY, i, j, value))

    def commit(self) -> None:
        """Apply the buffered evidence in the order it was recorded."""
        links, senders, timed = self._links, self.senders, self.timed
        for kind, i, j, value in self._pending:
            s = links.get((i, j))
            if s is None:
                s = links[(i, j)] = LinkStats()
            if kind == _SEND:
                if not s.packets_sent:
                    senders.setdefault(j, []).append(i)
                s.packets_sent += 1
            elif kind == _ACK:
                s.acks_received += 1
                if s.acks_received > s.packets_sent:
                    raise RuntimeError(f"more acks than sends on link {i}->{j}")
            else:
                if not s.latency_count:
                    insort(timed.setdefault(i, []), j)
                s.latency_count += 1
                s.latency_sum += value
        self._pending = []


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


def link_trust(stats: TrustStats, i: int, j: int, energies: Sequence[float],
               e_init: float, pl: float, weights: tuple[float, float, float, float],
               ) -> tuple[float, float, float]:
    """Trust components ``(ne, ptr, t_ij)`` of the link (i, j) with latency
    score ``pl``. ``energies`` is indexed by endpoint id, the sink included;
    ``weights`` come from ``trust_weights``."""
    link = stats.link(i, j)
    ne = ((energies[i] + energies[j]) / 2.0) / e_init
    ptr = link.acks_received / link.packets_sent if link.packets_sent else 1.0
    return ne, ptr, blend(ne, ptr, pl, weights)


def latency_scores(stats: TrustStats, i: int, levels: Sequence, polarity: str,
                   reference: float) -> dict[int, float]:
    """Latency score of each neighbor j of i with latency evidence on (i, j):
    those of ``stats.timed[i]``, the only ones walked.

    ``levels`` is indexed by endpoint id, the sink included. Each mean
    latency is compared against the mean of the others on its level: the
    means are summed once per level, in ascending id order (the order of
    an adjacency row, where the sink, id n, comes last), and its own term
    is taken back out. Without such peers, ``reference`` (a nominal
    comparison latency) stands in for their mean. Normalized polarity
    rewards nodes faster than their peers, capped at 1, and scores an
    unbounded mean latency (transfers that never completed) 0 outright;
    literal polarity returns the raw slow/fast ratio clamped to [0,1].
    """
    cols = stats.timed.get(i)
    if cols is None:
        return {}
    timed = [(j, stats.link(i, j).mean_latency(), levels[j]) for j in cols]
    group_sum: dict = {}
    group_cnt: dict = {}
    for _, m, lvl in timed:
        group_sum[lvl] = group_sum.get(lvl, 0.0) + m
        group_cnt[lvl] = group_cnt.get(lvl, 0) + 1
    scores = {}
    for j, m_j, lvl in timed:
        if polarity != "literal" and m_j == math.inf:
            pl = 0.0
        else:
            cnt = group_cnt[lvl] - 1
            mean_others = (group_sum[lvl] - m_j) / cnt if cnt > 0 else reference
            if polarity == "literal":
                if m_j == math.inf or mean_others == 0.0:
                    pl = 1.0
                else:
                    pl = min(1.0, max(0.0, m_j / mean_others))
            elif m_j == 0.0:
                pl = 1.0
            else:
                pl = min(1.0, mean_others / m_j)
        scores[j] = pl
    return scores


def node_trust(stats: TrustStats, i: int, neighbors: Sequence[int],
               levels: Sequence, energies: Sequence[float], e_init: float,
               weights: tuple[float, float, float, float], polarity: str,
               reference: float) -> list[tuple[int, float, float, float, float]]:
    """Trust components ``(j, ne, ptr, pl, t_ij)`` of every out-link of node i,
    by ``link_trust``; a neighbor without latency evidence scores the
    neutral 1.0.

    ``levels`` and ``energies`` are indexed by endpoint id, the sink
    included; ``weights`` come from ``trust_weights``.
    """
    scores = latency_scores(stats, i, levels, polarity, reference)
    rows = []
    for j in neighbors:
        pl = scores.get(j, 1.0)
        ne, ptr, t_ij = link_trust(stats, i, j, energies, e_init, pl, weights)
        rows.append((j, ne, ptr, pl, t_ij))
    return rows
