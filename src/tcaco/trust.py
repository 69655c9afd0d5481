"""Per-link interaction evidence and the trust value derived from it.

Trust of node i upon node j blends three observables, each normalized to
[0,1]: the average remaining energy of the pair, the acknowledgement ratio
of the link, and a latency score comparing j against i's other candidates.
The blend is a weighted mean, so scaling all weights together changes
nothing.

``node_trust`` is the one production computation of the components and
the blend, used by the engine and by the trust dump alike; ``classify``
is the one node verdict. The per-link metric functions are references
that tests compare ``node_trust`` against.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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

    def add_latency(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        self.latency_count += 1
        self.latency_sum += value

    def mean_latency(self) -> float | None:
        if not self.latency_count:
            return None
        return self.latency_sum / self.latency_count


# What a link without evidence reads as; shared, never written.
_NO_EVIDENCE = LinkStats()


class TrustStats:
    """All per-link evidence for one simulation instance (single writer).

    Only evidence creates a link's record; reading a link without any
    stores nothing. Every record also notes its sender until
    ``take_senders`` hands the noted senders over."""

    def __init__(self):
        self._links: dict[tuple[int, int], LinkStats] = {}
        self._senders: set[int] = set()

    def link(self, i: int, j: int) -> LinkStats:
        return self._links.get((i, j), _NO_EVIDENCE)

    def take_senders(self) -> set[int]:
        """Senders with new evidence since the last call."""
        senders, self._senders = self._senders, set()
        return senders

    def _evidence(self, i: int, j: int) -> LinkStats:
        self._senders.add(i)
        s = self._links.get((i, j))
        if s is None:
            s = self._links[(i, j)] = LinkStats()
        return s

    def record_send(self, i: int, j: int) -> None:
        self._evidence(i, j).packets_sent += 1

    def record_ack(self, i: int, j: int) -> None:
        s = self._evidence(i, j)
        s.acks_received += 1
        if s.acks_received > s.packets_sent:
            raise RuntimeError(f"more acks than sends on link {i}->{j}")

    def record_latency(self, i: int, j: int, value: float) -> None:
        self._evidence(i, j).add_latency(value)


def packet_transmission_ratio(stats: TrustStats, i: int, j: int) -> float:
    """Acknowledged fraction of packets sent on i->j; 1.0 before any send.

    Per-link reference for the ``ptr`` column of ``node_trust``, kept for
    the tests that compare the two.
    """
    s = stats.link(i, j)
    if s.packets_sent == 0:
        return 1.0
    return s.acks_received / s.packets_sent


def latency_score(stats: TrustStats, i: int, j: int, peers: Iterable[int],
                  polarity: str = "normalized",
                  reference: float | None = None) -> float:
    """Latency of j relative to the mean latency of i's other candidates.

    Normalized polarity rewards nodes faster than their peers, capped at 1;
    literal polarity returns the raw slow/fast ratio clamped to [0,1].
    Without samples for j there is no evidence and the score stays at the
    neutral 1.0. When j has samples but no peer does, ``reference`` (a
    nominal comparison latency, e.g. the queue timeout horizon) stands in
    for the peer mean; with no reference the score is again neutral.
    An unbounded mean latency (transfers that never completed) scores 0
    outright: no peer comparison can redeem it.

    Per-link reference for the ``pl`` column of ``node_trust``, which
    computes the same score from per-level sums; kept for the tests that
    compare the two.
    """
    lat_j = stats.link(i, j).mean_latency()
    if lat_j is None:
        return 1.0
    if polarity != "literal" and lat_j == math.inf:
        return 0.0
    peer_means = [m for m in (stats.link(i, k).mean_latency() for k in peers if k != j)
                  if m is not None]
    if peer_means:
        mean_others = sum(peer_means) / len(peer_means)
    elif reference is not None:
        mean_others = reference
    else:
        return 1.0
    if polarity == "literal":
        if lat_j == math.inf or mean_others == 0.0:
            return 1.0
        return min(1.0, max(0.0, lat_j / mean_others))
    if lat_j == 0.0:
        return 1.0
    return min(1.0, mean_others / lat_j)


def energy_metric(e_i: float, e_j: float, e_init: float) -> float:
    """Average remaining energy of the pair, as a fraction of the initial charge.

    Per-link reference for the ``ne`` column of ``node_trust``, kept for
    the tests that compare the two.
    """
    if e_init <= 0:
        raise ValueError("initial energy must be positive")
    return ((e_i + e_j) / 2.0) / e_init


def compute_trust(ne: float, ptr: float, pl: float,
                  a1: float, a2: float, a3: float) -> float:
    """Weighted mean of the three trust metrics."""
    total = a1 + a2 + a3
    if total == 0:
        raise ZeroWeights("a1 + a2 + a3 must be positive")
    return (a1 * ne + a2 * ptr + a3 * pl) / total


def node_trust(stats: TrustStats, i: int, neighbors: Sequence[int],
               levels: Sequence, energies: Sequence[float], e_init: float,
               a1: float, a2: float, a3: float, polarity: str,
               reference: float) -> list[tuple[int, float, float, float, float]]:
    """Trust components ``(j, ne, ptr, pl, t_ij)`` of every out-link of node i.

    ``levels`` and ``energies`` are indexed by endpoint id, the sink
    included. The latency score of j compares it against i's other
    neighbors on j's level, as ``latency_score`` does: the mean latencies
    are summed once per level and j's own term is taken back out.
    """
    links = [(j, stats.link(i, j)) for j in neighbors]
    means = []
    group_sum: dict = {}
    group_cnt: dict = {}
    for j, link in links:
        m = link.mean_latency()
        means.append(m)
        if m is not None:
            lvl = levels[j]
            group_sum[lvl] = group_sum.get(lvl, 0.0) + m
            group_cnt[lvl] = group_cnt.get(lvl, 0) + 1
    e_i = energies[i]
    rows = []
    for (j, link), m_j in zip(links, means):
        ne = ((e_i + energies[j]) / 2.0) / e_init
        ptr = link.acks_received / link.packets_sent if link.packets_sent else 1.0
        if m_j is None:
            pl = 1.0
        elif polarity != "literal" and m_j == math.inf:
            pl = 0.0
        else:
            lvl = levels[j]
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
        rows.append((j, ne, ptr, pl, compute_trust(ne, ptr, pl, a1, a2, a3)))
    return rows


def classify(trust_table: dict[tuple[int, int], float], stats: TrustStats,
             t_th: float, node_count: int) -> dict[int, str]:
    """Trusted/malicious verdict for nodes 0..node_count-1 (the sink, id
    node_count, is never classified).

    A link is trustworthy only strictly above the threshold. A node is
    malicious when some sender has sent to it and no such sender's link to
    it is trustworthy; a node nobody has sent to stays trusted, and one
    vouching sender is enough. The verdict holds network-wide, so one
    sender's bad experience removes a node from everyone's candidate sets
    instead of each sender having to learn it separately. Only links with
    evidence are visited; the table is read for those alone.
    """
    evidenced = [False] * (node_count + 1)
    vouched = [False] * (node_count + 1)
    for (i, j), link in stats._links.items():
        if link.packets_sent:
            evidenced[j] = True
            if trust_table[i, j] > t_th:
                vouched[j] = True
    return {
        j: (MALICIOUS_NODE if evidenced[j] and not vouched[j] else TRUSTED_NODE)
        for j in range(node_count)
    }
