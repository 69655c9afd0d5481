"""Per-link interaction evidence and the trust value derived from it.

Trust of node i upon node j blends three observables, each normalized to
[0,1]: the average remaining energy of the pair, the acknowledgement ratio
of the link, and a latency score comparing j against i's other candidates.
The blend is a weighted mean, so scaling all weights together changes
nothing.

``TrustStats`` buffers a cycle's evidence as it is recorded and applies it
when the engine commits it at the end of the cycle; every read sees
committed evidence only. Sends, acks and lost transfers arrive at that
step 8 as per-link counts from the engine's ledger of the cycle's
transfers, a link's lost transfers as that many unbounded latency samples;
other latency arrives as it happens, one record per delivery for the
packet's whole trail and one per timeout. A sample is never negative or
NaN, so once a link's latency sum is unbounded it stays so, whatever lands
before or after: handing the lost transfers over at step 8 gives the bits
that recording each as it happened gives. As it commits, it indexes each
node's senders and each node's timed receivers (the links with latency
evidence), so a read walks only links with evidence, never a whole
neighbour row.

``TrustReads`` is the one reader of that evidence, held by the engine as
``Simulation.trust``. At the end of every cycle, for every protocol, it
commits the evidence and takes one snapshot of levels and energies; every
value it reads comes from the two. ``latency_scores`` is the one
computation of a row's latency scores, and ``components`` the one
computation of a link's other components and its blend; ``blend`` is the
weighted mean, under weights ``trust_weights`` checks once per simulation.
``link`` and ``malicious`` serve routing, each verdict made once per
snapshot, and ``rows`` the trust dump and the tests. The tests hold
independent per-link references for the three metrics and the full node
verdict, and compare the reader against them.
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

    Sends and acks are recorded as counts per link, ``record_send(i, j, n)``
    and ``record_ack(i, j, n)``, and so are lost transfers,
    ``record_latency(i, j, math.inf, n)``; the engine hands over each
    cycle's counts from its ledger at step 8. ``record_trail`` buffers one
    latency sample for every link of a trail, so a delivery makes one
    record, and ``record_latency`` is a trail of one link whose sample
    counts ``n`` times; ``commit`` expands a trail at its place in the
    buffer, link by link, and adds a counted sample one at a time, so each
    link adds its samples in the order they were recorded.

    ``commit`` also keeps two indexes of the committed evidence, with an
    entry only for a node that has one: ``senders[j]`` lists each k whose
    link k->j has a send, in the order of their first sends, and
    ``timed[i]`` each j whose link i->j has a latency sample, in ascending
    id order."""

    def __init__(self):
        self._links: dict[tuple[int, int], LinkStats] = {}
        # (kind, i, j, count) for sends and acks, (kind, trail, count, value)
        # for latency
        self._pending: list[tuple] = []
        self.senders: dict[int, list[int]] = {}
        self.timed: dict[int, list[int]] = {}

    def link(self, i: int, j: int) -> LinkStats:
        return self._links.get((i, j), _NO_EVIDENCE)

    def record_send(self, i: int, j: int, n: int = 1) -> None:
        self._pending.append((_SEND, i, j, n))

    def record_ack(self, i: int, j: int, n: int = 1) -> None:
        self._pending.append((_ACK, i, j, n))

    def record_latency(self, i: int, j: int, value: float, n: int = 1) -> None:
        """``n`` latency samples ``value`` on the link i->j."""
        self.record_trail((i, j), value, n)

    def record_trail(self, trail: Sequence[int], value: float, n: int = 1) -> None:
        """``n`` latency samples ``value`` on each link of ``trail``. The
        trail is kept, not copied, so the caller leaves it unchanged until
        the next ``commit``."""
        if not value >= 0:
            raise ValueError("latency samples must be non-negative")
        if n < 1:
            raise ValueError("a latency record holds at least one sample")
        self._pending.append((_LATENCY, trail, n, value))

    def commit(self) -> None:
        """Apply the buffered evidence in the order it was recorded."""
        links, senders, timed = self._links, self.senders, self.timed
        for kind, i, j, value in self._pending:
            if kind == _LATENCY:
                trail, n = i, j
                for i, j in pairwise(trail):
                    s = links.get((i, j))
                    if s is None:
                        s = links[(i, j)] = LinkStats()
                    if not s.latency_count:
                        insort(timed.setdefault(i, []), j)
                    s.latency_count += n
                    if n == 1:
                        s.latency_sum += value
                    else:
                        for _ in range(n):
                            s.latency_sum += value
                continue
            s = links.get((i, j))
            if s is None:
                s = links[(i, j)] = LinkStats()
            if kind == _SEND:
                if not s.packets_sent:
                    senders.setdefault(j, []).append(i)
                s.packets_sent += value
            else:
                s.acks_received += value
                if s.acks_received > s.packets_sent:
                    raise RuntimeError(f"more acks than sends on link {i}->{j}")
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


class TrustReads:
    """Every trust value and verdict of one simulation, read on demand.

    ``stats`` is the committed evidence. ``take`` commits the cycle's
    evidence and replaces the snapshot that every read sees until the next
    ``take``: ``levels`` and ``energies``, indexed by endpoint id with the
    sink last, a node without a level at the sentinel of
    ``routing.level_form``. Before the first, every node holds the sentinel
    and every battery is full, so every link reads 1.0. A row's latency
    scores and a node's verdict are derived at most once per snapshot, when
    a read first needs them; ``rows`` derives the scores afresh, so it stays
    the full computation of what ``link`` and ``malicious`` read.
    """

    def __init__(self, cfg: SimConfig, adjacency: Sequence[Sequence[int]]):
        n = cfg.node_count
        self.stats = TrustStats()
        self.adjacency = adjacency
        self.node_count = n
        self.e_init = cfg.initial_energy
        self.weights = trust_weights(cfg.a1, cfg.a2, cfg.a3)
        self.threshold = cfg.trust_threshold
        self.polarity = cfg.latency_polarity
        # a nominal comparison latency for a row without peers on a level
        self.reference = float(cfg.wc_max)
        self.levels: Sequence[int] = [level_form(n)[1]] * (n + 1)
        self.energies: Sequence[float] = [cfg.initial_energy] * (n + 1)
        self._scores: dict[int, dict[int, float]] = {}
        self._verdicts: dict[int, bool] = {}

    def take(self, levels: Sequence, energies: Sequence[float]) -> None:
        """Commit the buffered evidence and read from ``levels`` and
        ``energies`` until the next call; both are kept, not copied."""
        self.stats.commit()
        self.levels, self.energies = levels, energies
        self._scores = {}
        self._verdicts = {}

    def latency_scores(self, i: int) -> dict[int, float]:
        """Latency score of each neighbor j of i with latency evidence on
        (i, j): those of ``stats.timed[i]``, the only ones walked.

        Each mean latency is compared against the mean of the others on its
        level: the means are summed once per level, in ascending id order
        (the order of an adjacency row, where the sink, id n, comes last),
        and its own term is taken back out; the nodes without a level share
        the sentinel, so they are one group. Without such peers,
        ``reference`` stands in for their mean. Normalized polarity rewards
        nodes faster than their peers, capped at 1, and scores an unbounded
        mean latency (transfers that never completed) 0 outright; literal
        polarity returns the raw slow/fast ratio clamped to [0,1].
        """
        cols = self.stats.timed.get(i)
        if cols is None:
            return {}
        link, levels = self.stats.link, self.levels
        timed = [(j, link(i, j).mean_latency(), levels[j]) for j in cols]
        group_sum: dict = {}
        group_cnt: dict = {}
        for _, m, lvl in timed:
            group_sum[lvl] = group_sum.get(lvl, 0.0) + m
            group_cnt[lvl] = group_cnt.get(lvl, 0) + 1
        literal = self.polarity == "literal"
        scores = {}
        for j, m_j, lvl in timed:
            if not literal and m_j == math.inf:
                pl = 0.0
            else:
                cnt = group_cnt[lvl] - 1
                mean_others = (group_sum[lvl] - m_j) / cnt if cnt > 0 else self.reference
                if literal:
                    if m_j == math.inf or mean_others == 0.0:
                        pl = 1.0
                    else:
                        # min(1.0, max(0.0, ratio)), as the comparisons it makes
                        pl = m_j / mean_others
                        if not pl > 0.0:
                            pl = 0.0
                        elif not pl < 1.0:
                            pl = 1.0
                elif m_j == 0.0:
                    pl = 1.0
                else:
                    pl = mean_others / m_j
                    if not pl < 1.0:
                        pl = 1.0
            scores[j] = pl
        return scores

    def components(self, i: int, j: int, pl: float) -> tuple[float, float, float]:
        """Trust components ``(ne, ptr, t_ij)`` of the link (i, j) with
        latency score ``pl``: the one place a link is blended."""
        link = self.stats._links.get((i, j), _NO_EVIDENCE)
        energies = self.energies
        ne = ((energies[i] + energies[j]) / 2.0) / self.e_init
        ptr = link.acks_received / link.packets_sent if link.packets_sent else 1.0
        return ne, ptr, blend(ne, ptr, pl, self.weights)

    def link(self, i: int, j: int) -> float:
        """Trust of i upon j; a neighbor without latency evidence scores
        the neutral 1.0."""
        scores = self._scores.get(i)
        if scores is None:
            scores = self._scores[i] = self.latency_scores(i)
        return self.components(i, j, scores.get(j, 1.0))[2]

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
                th = self.threshold
                for k in senders:
                    if self.link(k, j) > th:
                        verdict = False
                        break
            self._verdicts[j] = verdict
        return verdict

    def rows(self):
        """Yield ``(i, [(j, ne, ptr, pl, t_ij), ...])`` per node, in link
        order, each row's latency scores derived afresh."""
        for i in range(self.node_count):
            scores = self.latency_scores(i)
            row = []
            for j in self.adjacency[i]:
                pl = scores.get(j, 1.0)
                ne, ptr, t_ij = self.components(i, j, pl)
                row.append((j, ne, ptr, pl, t_ij))
            yield i, row
