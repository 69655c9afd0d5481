"""Routing decision core: level structure, candidate scoring, hop selection,
and pheromone bookkeeping.

Nodes are organized into levels by hop distance from the traffic source;
packets move strictly from level L to level L+1, with the sink always a
legal next hop for its direct neighbors. Candidate attractiveness combines
the trust-congestion metric, inverse distance, and pheromone concentration,
each raised to its configured exponent and normalized over the candidate
set.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

from .topology import DisconnectedNetwork, Topology


def live_adjacency(topology: Topology,
                   alive: Optional[Sequence[bool]] = None) -> list[Optional[list[int]]]:
    """Per sensor node: None when it is dead, else its alive sensor
    neighbours in ascending id order. The sink is left out of every row, so
    a search over these rows never passes through it. ``alive`` defaults to
    every node alive."""
    bs = topology.bs_id
    adjacency = topology.adjacency
    if alive is None:
        alive = [True] * topology.node_count
    return [[j for j in adjacency[i] if j != bs and alive[j]] if alive[i] else None
            for i in range(topology.node_count)]


def hops_from(live: Sequence[Optional[Sequence[int]]],
              roots: Sequence[int]) -> list[Optional[int]]:
    """Breadth-first hop count of every node from the nearest root over a
    ``live_adjacency``.

    The roots (alive sensor nodes) are at hop 0; nodes the search does not
    reach get None.
    """
    hops: list[Optional[int]] = [None] * len(live)
    for r in roots:
        hops[r] = 0
    frontier = list(roots)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for i in frontier:
            for j in live[i]:
                if hops[j] is None:
                    hops[j] = depth
                    nxt.append(j)
        frontier = nxt
    return hops


# A node the level search does not reach holds the sentinel of its level
# array. Every level is at most the node count (the sink is one past the
# farthest sensor), so a network of fewer than UNREACHED nodes keeps its
# levels as array('H'), two bytes a node, and a larger one as array('L')
# with the sentinel UNREACHED_WIDE.
UNREACHED = 0xFFFF
UNREACHED_WIDE = 0xFFFFFFFF


def level_form(node_count: int) -> tuple[str, int]:
    """The array typecode the levels of a network of ``node_count`` sensors
    are kept in, and the sentinel that marks an unreached node."""
    return ("H", UNREACHED) if node_count < UNREACHED else ("L", UNREACHED_WIDE)


def assign_levels(topology: Topology, source: int,
                  live: Optional[Sequence[Optional[Sequence[int]]]] = None,
                  ) -> list[int]:
    """Breadth-first hop counts from the source over transmitting nodes,
    indexed by endpoint id with the sink's level last; a node the search
    does not reach holds the sentinel ``level_form`` names (``UNREACHED``
    below 65,535 nodes), so the list packs into that form's array as it
    stands.

    ``live`` is the ``live_adjacency`` of the alive nodes, every node alive
    by default. Dead nodes neither relay nor get a level. The sink's level
    is one past its nearest labeled neighbor; if no neighbor of the sink is
    reachable the network is disconnected for this source.
    """
    if live is None:
        live = live_adjacency(topology)
    if live[source] is None:
        raise DisconnectedNetwork(f"source {source} is not alive")
    levels = hops_from(live, [source])
    bs_neighbor_levels = [
        levels[j] for j in topology.adjacency[topology.bs_id] if levels[j] is not None
    ]
    if not bs_neighbor_levels:
        raise DisconnectedNetwork("base station unreachable from the source")
    levels.append(min(bs_neighbor_levels) + 1)
    unreached = level_form(topology.node_count)[1]
    return [unreached if h is None else h for h in levels]


def trust_congestion_metric(t_ij: float, ci_j: float, alpha: float,
                            polarity: str = "inverted") -> float:
    """Blend trust and congestion into one [0,1] score.

    Inverted polarity (default) credits uncongested candidates so that a
    higher score always means a more attractive next hop; literal polarity
    feeds the congestion index in raw.
    """
    if polarity == "literal":
        return alpha * ci_j + (1.0 - alpha) * t_ij
    return alpha * (1.0 - ci_j) + (1.0 - alpha) * t_ij


def left_sum(values: Iterable[float]) -> float:
    """The float sum of ``values``, added left to right from 0.0.

    These are the bits CPython 3.11's ``sum`` gives; from 3.12 on the
    builtin compensates for rounding, so every float sum that reaches an
    output is taken here and the outputs are the same on every version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def transition_probabilities(candidates: Sequence[tuple[int, float, float, float]],
                             beta1: float, beta2: float, beta3: float,
                             ) -> dict[int, float]:
    """Normalized selection probability per candidate.

    ``candidates`` holds (node_id, tc, distance, pheromone) tuples, at
    least one. When every raw weight degenerates to zero the distribution
    falls back to uniform so a decision can still be made.
    """
    weights = []
    for _, tc, d, tau in candidates:
        if d <= 0:
            raise ValueError("candidate distance must be positive")
        if tau <= 0:
            raise ValueError("candidate pheromone must be positive")
        weights.append((tc ** beta1) * ((1.0 / d) ** beta2) * (tau ** beta3))
    total = left_sum(weights)
    if total <= 0.0:
        uniform = 1.0 / len(candidates)
        return {cid: uniform for cid, _, _, _ in candidates}
    return {cand[0]: w / total for cand, w in zip(candidates, weights)}


def rank_by_probability(probabilities: dict[int, float]) -> list[int]:
    """Candidate ids by descending probability, ties broken by ascending id."""
    return [cid for cid, _ in sorted(probabilities.items(), key=lambda kv: (-kv[1], kv[0]))]


def roulette_wheel(pool: Sequence[int], probabilities: dict[int, float],
                   ) -> tuple[list[float], float]:
    """A roulette draw's table over ``pool``: the running sums of the
    candidates' probabilities in pool order, and their total, the last
    running sum (0.0 for an empty pool)."""
    cum = list(accumulate(probabilities[cid] for cid in pool))
    return cum, (cum[-1] if cum else 0.0)


def select_next_hop(ranked: Sequence[int],
                    admissible: Callable[[int], bool],
                    mode: str = "deterministic_rank",
                    probabilities: Optional[dict[int, float]] = None,
                    rng=None,
                    wheel: Optional[tuple[list[float], float]] = None,
                    ) -> Optional[int]:
    """Pick the next hop, or None when every candidate is inadmissible.

    Rank mode walks the descending-probability list and returns the first
    candidate whose queue has room and whose battery clears the threshold.
    Roulette mode samples proportionally to probability, discarding
    inadmissible draws without replacement. ``wheel``, when given, is
    ``roulette_wheel(ranked, probabilities)``, built once by a caller that
    selects many times over one candidate set; it is only read.

    After a refused draw the wheel is the one ``roulette_wheel`` builds over
    the remaining pool, bit for bit: the running sums before the refused
    candidate stay, and only those after it are summed again, from the last
    one kept, as ``accumulate`` sums them afresh.
    """
    if mode == "deterministic_rank":
        for cid in ranked:
            if admissible(cid):
                return cid
        return None
    if mode != "stochastic_roulette":
        raise ValueError(f"unknown forwarding mode {mode!r}")
    if probabilities is None or rng is None:
        raise ValueError("roulette selection needs probabilities and an rng")
    pool = list(ranked)
    cum, total = wheel or roulette_wheel(pool, probabilities)
    weights = None   # the pool's probabilities, once a draw is refused
    while pool:
        if total <= 0.0:
            idx = 0
        else:
            idx = bisect.bisect_left(cum, rng.random() * total)
            if idx >= len(pool):
                idx = len(pool) - 1
        cid = pool.pop(idx)
        if admissible(cid):
            return cid
        if weights is None:
            weights = [probabilities[c] for c in pool]
        else:
            del weights[idx]
        # a new list: a shared wheel is never written
        cum = ([*cum[:idx - 1], *accumulate(weights[idx:], initial=cum[idx - 1])]
               if idx else list(accumulate(weights)))
        total = cum[-1] if cum else 0.0
    return None


class PheromoneTable:
    """Pheromone concentration per directed link, floored above zero.

    Evaporation is applied lazily and exactly. Each node's row of out-links
    carries the count of ``update_cycle`` calls it was last brought up to
    date for; the first read after a gap replays every skipped step, decay
    then floor, one at a time, so the values equal those of evaporating
    every link on every cycle bit for bit. A replay stops once a value no
    longer changes (it sits at the floor, or ``rho`` is zero).
    """

    def __init__(self, adjacency: Sequence[Iterable[int]], tau_init: float,
                 tau_floor: float, rho: float):
        self.tau_floor = tau_floor
        self.decay = 1.0 - rho
        self.rows: list[dict[int, float]] = [dict.fromkeys(nbrs, tau_init)
                                             for nbrs in adjacency]
        self.stamp = [0] * len(self.rows)
        self.cycles = 0   # update_cycle calls so far

    def row(self, i: int) -> dict[int, float]:
        """Node i's out-links and their current pheromone."""
        row = self.rows[i]
        skipped = self.cycles - self.stamp[i]
        decay, floor = self.decay, self.tau_floor
        if skipped == 1:   # the common gap: one step per link, nothing to share
            for j, tau in row.items():
                tau *= decay
                row[j] = tau if tau > floor else floor
            self.stamp[i] = self.cycles
        elif skipped:
            # every link replays the same count, so a start value's result
            # serves each link that holds it (all still at tau_init or the floor)
            replayed: dict[float, float] = {}
            for j, start in row.items():
                tau = replayed.get(start)
                if tau is None:
                    tau = start
                    for _ in range(skipped):
                        nxt = decay * tau
                        if not nxt > floor:
                            nxt = floor
                        if nxt == tau:
                            break
                        tau = nxt
                    replayed[start] = tau
                row[j] = tau
            self.stamp[i] = self.cycles
        return row

    def update_cycle(self, sent: dict[int, dict[int, int]],
                     distance: Callable[[int, int], float],
                     deposit_scale: float = 1.0) -> None:
        """Close one cycle: evaporate, and deposit in proportion to traffic
        per meter where ``sent`` (sender -> receiver -> transfers) saw
        transfers.

        Only the rows of nodes that sent are written; every other row
        evaporates when it is next read.
        """
        decay, floor = self.decay, self.tau_floor
        for i, out in sent.items():
            row = self.row(i)
            for j, tau in row.items():
                n = out.get(j)
                if n:
                    d = distance(i, j)
                    if d <= 0:
                        raise ValueError("link distance must be positive")
                    tau = decay * tau + deposit_scale * (n / d)
                else:
                    tau = decay * tau
                row[j] = tau if tau > floor else floor
            self.stamp[i] = self.cycles + 1
        self.cycles += 1
