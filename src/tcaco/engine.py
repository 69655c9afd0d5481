"""Simulation lifecycle: deployment, the per-cycle state machine, fault
injection, baseline protocols, and lifetime metrics.

One simulation instance owns all state and is strictly single threaded; a
fixed event order (levels ascending, node ids ascending, FIFO within a
queue) plus a single seeded random stream per replicate make every run
bit-reproducible. The documented draw order is: node deployment first,
then fault assignment, then per-cycle draws (source pick, then forwarding
and receipt coins in processing order).

Trust is not kept here. The engine keeps each cycle's evidence in one
ledger: the latency samples of its deliveries and timeouts, and its
transfers. At step 8 of every cycle it records the ledger into ``stats``
and hands the levels and energies to ``trust`` (a ``trust.TrustReads``),
which every trust value and verdict that routing reads comes from.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Optional, Sequence

from . import energy as radio
from .config import FaultSpec, SimConfig, validate_config
from .congestion import FlowHistory, enqueue, tick_wait_and_drop
from .model import DELIVERED, DROPPED_MALICIOUS, DROPPED_OVERFLOW, DROPPED_TIMEOUT, Packet
from .routing import (PheromoneTable, assign_levels, hops_from, left_sum, level_form,
                      live_adjacency, rank_by_probability, roulette_wheel, select_next_hop,
                      transition_probabilities, trust_congestion_metric)
from .topology import DisconnectedNetwork, Topology, build_topology, euclidean_distance
from .trust import TrustReads


class SourceDead(RuntimeError):
    """No usable traffic source remains."""


MILESTONE_PERCENTAGES = (1, 10, 20, 30, 40, 50, 60)

# Per protocol: whether it drops candidates failing the trust test, and its
# betas (trust-congestion, distance, pheromone) under a config.
_PROTOCOL_TABLE = {
    # Full pipeline: trust filter plus trust-congestion, distance, pheromone.
    "tc_aco": (True, lambda cfg: (cfg.beta1, cfg.beta2, cfg.beta3)),
    # Pheromone and distance only; routes straight through malicious nodes.
    "dist_aco": (False, lambda cfg: (0.0, cfg.beta2, cfg.beta3)),
    # Trust-filtered greedy nearest neighbor; no pheromone, no congestion.
    "trust_greedy": (True, lambda cfg: (0.0, 1.0, 0.0)),
    # Greedy nearest neighbor, blind to trust and congestion.
    "naive_minhop": (False, lambda cfg: (0.0, 1.0, 0.0)),
}

PROTOCOLS = tuple(_PROTOCOL_TABLE)


def get_policy(protocol: str, cfg: SimConfig) -> tuple[bool, tuple[float, float, float]]:
    """The trust filter flag and the betas of ``protocol`` under ``cfg``."""
    if protocol not in _PROTOCOL_TABLE:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    trust_filter, betas = _PROTOCOL_TABLE[protocol]
    return trust_filter, betas(cfg)


@dataclass(slots=True)
class CycleStats:
    """Per-cycle increments plus end-of-cycle levels.

    The terminal fates of ``model`` name the fields their counts go to.
    """

    cycle: int
    generated: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    dropped_timeout: int = 0
    dropped_malicious: int = 0
    dead_nodes: int = 0
    total_energy_j: float = 0.0
    in_flight: int = 0
    forwarded_to_malicious: int = 0


@dataclass
class SimMetrics:
    protocol: str
    seed: int
    node_count: int
    cycles: list[CycleStats] = field(default_factory=list)
    milestones: dict[int, Optional[int]] = field(default_factory=dict)
    termination: str = "completed"

    def dead_counts(self) -> list[int]:
        return [row.dead_nodes for row in self.cycles]


def deploy_nodes(cfg: SimConfig, rng: random.Random) -> list[tuple[float, float]]:
    """Uniform random positions over the field; one x then one y per node id."""
    return [
        (rng.uniform(0.0, cfg.field_width), rng.uniform(0.0, cfg.field_height))
        for _ in range(cfg.node_count)
    ]


def dead_needed(node_count: int, pct: int) -> int:
    """The fewest dead nodes that are at least ``pct`` percent of ``node_count``."""
    return -(-node_count * pct // 100)


def extract_milestones(dead_counts: Sequence[int], node_count: int,
                       ) -> dict[int, Optional[int]]:
    """First round at which each dead-node percentage is reached, else None."""
    out: dict[int, Optional[int]] = {}
    for pct in MILESTONE_PERCENTAGES:
        need = dead_needed(node_count, pct)
        out[pct] = next(
            (idx + 1 for idx, dead in enumerate(dead_counts) if dead >= need),
            None,
        )
    return out


def _farthest_corner(cfg: SimConfig) -> tuple[float, float]:
    bs = cfg.effective_bs_position()
    corners = [(0.0, 0.0), (cfg.field_width, 0.0),
               (0.0, cfg.field_height), (cfg.field_width, cfg.field_height)]
    return max(corners, key=lambda c: (euclidean_distance(c, bs), -c[0], -c[1]))


class Simulation:
    """One seeded replicate of one protocol over one deployed network."""

    def __init__(self, cfg: SimConfig, protocol: str = "tc_aco",
                 seed: Optional[int] = None, log_routes: bool = False,
                 positions: Optional[Sequence[tuple[float, float]]] = None):
        validate_config(cfg)
        self.cfg = cfg
        self.trust_filter, self.betas = get_policy(protocol, cfg)
        self.protocol = protocol
        self.needs_pheromone = self.betas[2] != 0
        self.seed = cfg.rng_seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.log_routes = log_routes

        if positions is None:
            positions = deploy_nodes(cfg, self.rng)
        else:
            # injected layout (controlled experiments); deployment draws skipped
            positions = [tuple(p) for p in positions]
            if len(positions) != cfg.node_count:
                raise ValueError("positions must match node_count")
        self.topology: Topology = build_topology(
            positions, cfg.effective_bs_position(), cfg.radio_range)
        self.bs = self.topology.bs_id
        n = cfg.node_count

        self.fixed_source = self._pick_fixed_source(positions)
        self.faults = self._assign_faults()
        self._flooders = sorted(k for k, f in self.faults.items() if f.behavior == "flood")
        # remaining battery per node; a node transmits while it holds at least
        # the energy threshold and keeps receiving until its battery is empty
        self.energy = [cfg.initial_energy] * n
        # FIFO packet buffer per node; forwarding fills one up to
        # queue_capacity, the source's generation can take it past that
        self.queues: list[list[Packet]] = [[] for _ in range(n)]

        self.packet_bits = cfg.packet_size_bits
        self.ack_bits = int(round(cfg.ack_size_fraction * cfg.packet_size_bits))
        self.latency_penalty = cfg.effective_latency_penalty()
        # radio costs: receiving is the same on every link, and sending a
        # packet and an ack over a link are worked out at the link's first
        # use, as (packet, ack) under the receiver in the sender's row. An
        # 800-node, 1000-cycle tc_aco run uses 3,120 links, and the memo
        # holds 381 kB (206 kB with the packet cost alone)
        self._rx_packet = radio.rx_cost(self.packet_bits, cfg)
        self._rx_ack = radio.rx_cost(self.ack_bits, cfg)
        self._tx_costs: list[Optional[dict[int, tuple[float, float]]]] = [None] * n

        # every trust value and verdict, read as of step 8 of the last cycle,
        # and the evidence step 8 records
        self.trust = TrustReads(cfg, self.topology.adjacency)
        self.stats = self.trust.stats
        self.pheromone = PheromoneTable(self.topology.adjacency[:n], cfg.tau_init,
                                        cfg.tau_floor, cfg.rho)
        self.flow = FlowHistory(n, cfg.queue_capacity, window=cfg.congestion_window)

        self.cycle = 0
        self._next_pid = 0
        # transmit flags and the dead count, derived from ``energy`` at the
        # first cycle and then kept up to date from the nodes each cycle
        # debits; energy only ever goes down
        self._alive: Optional[list[bool]] = None
        self._dead_count = 0
        # live_adjacency of the alive nodes, rebuilt when a death is recorded
        self._live: list[Optional[list[int]]] = []
        # packets generated and not yet ended, and the nodes whose queue
        # holds packets (during a cycle also those it emptied)
        self._in_flight = 0
        self._occupied: set[int] = set()
        # levels from the source, indexed by endpoint id with the sink last,
        # a node the search does not reach at ``_unreached``: a plain list,
        # the search's own on a cache miss and a copy of the cached array on
        # a hit, as a list indexes faster than an array
        self.levels: Optional[list[int]] = None
        self._levels_source: Optional[int] = None
        self._level_typecode, self._unreached = level_form(n)
        # the compact levels of every source searched since the last death,
        # each an array of n + 1 levels (``routing.level_form``); a death
        # drops them all, so it holds at most one entry per pool source
        self._level_cache: dict[int, array] = {}
        self._source_pool: Optional[list[int]] = None
        self.metric_rows: list[CycleStats] = []
        # the forwarding sweep's heap of (level, id), filled by run_cycle and
        # added to by _transmit
        self._sweep: list[tuple[int, int]] = []
        # when routes are logged, one rendered line, newline included, per
        # packet ended since ``output.route_dump_text`` last drained the log
        self.route_log: list[str] = []

    # ------------------------------------------------------------------ setup

    def _pick_fixed_source(self, positions) -> int:
        if self.cfg.source_node is not None:
            return self.cfg.source_node
        corner = _farthest_corner(self.cfg)
        return min(range(self.cfg.node_count),
                   key=lambda i: (euclidean_distance(positions[i], corner), i))

    def _assign_faults(self) -> dict[int, FaultSpec]:
        """Resolve the fault spec to concrete node assignments.

        Under a fixed source policy the source is protected from fault
        assignment; under per-round sources the protection is inverted and
        fault nodes are simply never drawn as sources. A node that any entry
        lists by id is left out of every fraction's pool, so each entry
        keeps all the nodes it asks for.
        """
        cfg = self.cfg
        protected = {self.fixed_source} if cfg.source_policy == "fixed" else set()
        listed = {t for entry in cfg.fault_spec if entry.nodes is not None
                  for t in entry.nodes}
        assigned: dict[int, FaultSpec] = {}
        for entry in cfg.fault_spec:
            if entry.behavior == "honest":
                continue
            if entry.nodes is not None:
                targets = list(entry.nodes)
                bad = [t for t in targets if t in protected]
                if bad:
                    raise ValueError(f"fault assigned to the source node {bad}")
            else:
                pool = sorted(set(range(cfg.node_count)) - protected - listed
                              - set(assigned))
                count = min(int(round(entry.fraction * cfg.node_count)), len(pool))
                targets = self.rng.sample(pool, count)
            for t in targets:
                assigned[t] = entry
        return assigned

    # ------------------------------------------------------------ cycle steps

    def _new_packet(self, origin: int, fake: bool = False) -> Packet:
        p = Packet(self._next_pid, origin, self.cycle, fake=fake)
        self._next_pid += 1
        self._in_flight += 1
        self._row.generated += 1
        return p

    def _finish(self, p: Packet, fate: str) -> None:
        """End a packet: resolve it, count it in this cycle's row and, when
        routes are logged, keep its line: cycle, id, fate, hop trail."""
        p.resolve(fate)
        self._in_flight -= 1
        row = self._row
        setattr(row, fate, getattr(row, fate) + 1)
        if self.log_routes:
            trail = ">".join(map(str, p.hop_trail))
            self.route_log.append(f"{self.cycle}\t{p.id}\t{fate}\t{trail}\n")

    def _pick_source(self) -> int:
        alive = self._alive
        if self.cfg.source_policy == "fixed":
            source = self.fixed_source
            if not alive[source]:
                raise SourceDead(f"fixed source {source} fell below the energy threshold")
            return source
        # honest nodes whose alive component reaches the base station; the
        # pool holds until a node dies
        if self._source_pool is None:
            hops = hops_from(self._live,
                             [j for j in self.topology.adjacency[self.bs] if alive[j]])
            self._source_pool = [
                i for i in range(self.cfg.node_count)
                if hops[i] is not None and i not in self.faults
            ]
        pool = self._source_pool
        if not pool:
            raise SourceDead("no alive honest node can reach the base station")
        return self.rng.choice(pool)

    def _ensure_levels(self, source: int) -> None:
        """Levels from ``source``; they hold until the source moves or a node
        dies, and a source's search is kept until a node dies."""
        if self._levels_source == source:
            return
        cached = self._level_cache.get(source)
        if cached is None:
            self.levels = assign_levels(self.topology, source, self._live)
            self._level_cache[source] = array(self._level_typecode, self.levels)
        else:
            self.levels = cached.tolist()
        self._levels_source = source

    def _scored_candidates(self, i: int, level_i: int):
        """Valid next hops for node i with (id, tc, d, tau) scoring inputs.

        The trust filter asks only whether a candidate's link is above the
        threshold (``TrustReads.trusted``) and whether the candidate is
        flagged; the exact trust is read only where the trust-congestion
        score uses it, once per candidate that passes."""
        cfg = self.cfg
        use_tcm = self.betas[0] > 0
        trust_filter = self.trust_filter
        levels, bs = self.levels, self.bs
        reads = self.trust
        link, trusted, malicious = reads.link, reads.trusted, reads.malicious
        congestion_index = self.flow.congestion_index
        distances = self.topology.distances[i]
        taus = self.pheromone.row(i) if self.needs_pheromone else None
        next_level = level_i + 1
        out = []
        for j in self.topology.adjacency[i]:
            if j == bs:
                ci_j = 0.0
            else:
                if levels[j] != next_level:
                    continue
                if trust_filter and (not trusted(i, j) or malicious(j)):
                    continue
                # flow rows change only at the end of a cycle; only tc_aco
                # scores congestion, and its trust filter has passed j
                ci_j = congestion_index(j) if use_tcm else 0.0
            tc = trust_congestion_metric(link(i, j), ci_j, cfg.alpha,
                                         cfg.congestion_polarity) if use_tcm else 1.0
            tau = taus[j] if taus is not None else 1.0
            out.append((j, tc, distances[j], tau))
        return out

    def _admissible(self, j: int) -> bool:
        """A candidate accepts traffic while its queue has room and it can transmit."""
        if j == self.bs:
            return True
        cfg = self.cfg
        return (self.energy[j] >= cfg.energy_threshold
                and len(self.queues[j]) < cfg.queue_capacity)

    def _link_costs(self, i: int, j: int) -> tuple[float, float]:
        """The transmit costs of a packet and of an ack over i->j, memoised
        at the link's first use."""
        row = self._tx_costs[i]
        if row is None:
            row = self._tx_costs[i] = {}
        costs = row.get(j)
        if costs is None:
            d, cfg = self.topology.distances[i][j], self.cfg
            costs = row[j] = (radio.tx_cost(self.packet_bits, d, cfg),
                              radio.tx_cost(self.ack_bits, d, cfg))
        return costs

    def _transmit(self, i: int, p: Packet, j: int) -> bool:
        """Radio one packet from i to j; True when j acknowledged it.

        An unacknowledged transfer leaves the packet with the sender: the
        radio energy is spent on both ends, but the payload never arrived
        anywhere it can progress from. The caller counts the transfer, and
        whether it went unacknowledged, in the cycle's ledger.
        """
        cfg = self.cfg
        row = self._tx_costs[i]
        costs = row.get(j) if row is not None else None
        if costs is None:
            costs = self._link_costs(i, j)
        radio.debit(self.energy, i, costs[0])

        if j == self.bs:
            p.hop_trail.append(j)
            if p.fake:
                self._finish(p, DROPPED_MALICIOUS)
            else:
                self._finish(p, DELIVERED)
                self._latency_now.append((p.hop_trail, float(self.cycle - p.created_cycle)))
            # the sink acknowledges everything it absorbs
            if self.ack_bits:
                radio.debit(self.energy, i, self._rx_ack)
            return True

        behavior = self.faults.get(j)
        if behavior is not None:
            self._row.forwarded_to_malicious += 1
        radio.debit(self.energy, j, self._rx_packet)

        if behavior is not None and behavior.behavior == "drop":
            if self.rng.random() < behavior.p:
                return False

        if self.ack_bits:
            radio.debit(self.energy, j, costs[1])
            radio.debit(self.energy, i, self._rx_ack)

        p.hop_trail.append(j)
        if behavior is not None and behavior.behavior == "delay":
            p.held_until = self.cycle + behavior.extra
        queue = self.queues[j]
        if not queue:
            # j sits one level past i, so its turn in the sweep is still to come
            heappush(self._sweep, (self.levels[j], j))
            self._occupied.add(j)
        # j was admissible, so its queue has room
        enqueue(queue, p, self.cycle, cfg.queue_capacity)

        if behavior is not None and behavior.behavior == "duplicate":
            for _ in range(behavior.copies - 1):
                if len(queue) >= cfg.queue_capacity:
                    break
                clone = self._new_packet(p.hop_trail[0], fake=True)
                clone.hop_trail = list(p.hop_trail)
                enqueue(queue, clone, self.cycle, cfg.queue_capacity)
        return True

    def _forward_from(self, i: int, level_i: int) -> None:
        cfg = self.cfg
        queue = self.queues[i]
        energy, threshold = self.energy, cfg.energy_threshold
        if not queue or energy[i] < threshold:
            return
        candidates = self._scored_candidates(i, level_i)
        if not candidates:
            return
        probabilities = transition_probabilities(candidates, *self.betas)
        ranked = rank_by_probability(probabilities)
        # the candidate set is fixed for this call, so every selection's
        # first roulette draw spins one wheel
        rank_mode = cfg.forwarding_mode == "deterministic_rank"
        wheel = None if rank_mode else roulette_wheel(ranked, probabilities)
        limit = cfg.per_cycle_forward_limit
        max_attempts = cfg.max_transfer_attempts
        transmit, admissible = self._transmit, self._admissible
        # in rank mode the pick holds while it stays admissible: during i's
        # turn only i's transfers touch its candidates, and they only fill
        # queues and drain batteries, so a candidate refused once stays
        # refused and the first admissible one in the ranking can only move
        # later. Roulette draws afresh on every attempt
        kept = None

        cycle = self.cycle
        forwarded = 0
        # i's row of the cycle's ledger: transfers to each receiver, and how
        # many of them went unacknowledged; i forwards once per cycle, so the
        # ledger lists its links in the order of their first transfers
        sent: dict[int, int] = {}
        lost: dict[int, int] = {}
        try:
            for p in list(queue):
                if limit is not None and forwarded >= limit:
                    break
                if p.held_until > cycle:
                    continue
                # retry loop: an unacknowledged transfer keeps the packet here
                # and burns one of its attempts; there is no cross-packet
                # memory of refusals, so shaking off a bad hop is the trust
                # layer's job
                while True:
                    if energy[i] < threshold:
                        return
                    if rank_mode and kept is not None and admissible(kept):
                        j = kept
                    else:
                        j = kept = select_next_hop(ranked, admissible, cfg.forwarding_mode,
                                                   probabilities, self.rng, wheel)
                        if j is None:
                            # nothing admissible now; this and later packets keep aging
                            return
                    sent[j] = sent.get(j, 0) + 1
                    if transmit(i, p, j):
                        queue.remove(p)
                        forwarded += 1
                        break
                    lost[j] = lost.get(j, 0) + 1
                    p.transfer_failures += 1
                    if p.transfer_failures >= max_attempts:
                        queue.remove(p)
                        self._finish(p, DROPPED_MALICIOUS)
                        break
        finally:
            if sent:
                self._sent_now[i] = sent
                if lost:
                    self._lost_now[i] = lost

    def _age_queues(self) -> None:
        cycle, wc_max = self.cycle, self.cfg.wc_max
        for k in sorted(self._occupied):
            queue = self.queues[k]
            if not queue:
                continue
            for p in tick_wait_and_drop(queue, cycle, wc_max):
                self._finish(p, DROPPED_TIMEOUT)
                trail = p.hop_trail
                if len(trail) >= 2:
                    # the holder sat on this packet until it died
                    self._latency_now.append((trail[-2:], self.latency_penalty))

    def _recompute_trust(self) -> None:
        """Record the cycle's ledger into the evidence: its latency samples
        in order, then its sends, acks and unacknowledged transfers as
        per-link counts, each unacknowledged transfer as an unbounded
        latency sample; hand the reader the snapshot it reads until the next
        step 8: the cycle's levels and a copy of the energies as they stand,
        the sink last and energy-unbounded. Nothing is blended here."""
        stats, lost_now = self.stats, self._lost_now
        record_trail = stats.record_trail
        for trail, value in self._latency_now:
            record_trail(trail, value)
        for i, sent in self._sent_now.items():
            lost = lost_now.get(i)
            for j, n in sent.items():
                stats.record_send(i, j, n)
                n_lost = lost.get(j, 0) if lost else 0
                stats.record_ack(i, j, n - n_lost)
                if n_lost:
                    # an unacknowledged transfer never completed
                    stats.record_latency(i, j, math.inf, n_lost)
        self.trust.take(self.levels, [*self.energy, self.cfg.initial_energy])

    def run_cycle(self) -> CycleStats:
        """Advance the simulation by one cycle and return its statistics."""
        cfg = self.cfg
        self.cycle += 1
        # the cycle in progress: its row, its ledger (latency samples as
        # (trail, value) in the order they were taken; transfers sent per
        # sender and receiver, and the unacknowledged ones among them) and
        # its packets received per node: the flood receipts, to which step 6
        # adds the ledger's columns. Every node the cycle debits is a key of
        # the ledger's transfers or of the inflow, or a flood node
        row = self._row = CycleStats(self.cycle)
        self._inflow_now: dict[int, int] = {}
        self._latency_now: list[tuple[Sequence[int], float]] = []
        self._sent_now: dict[int, dict[int, int]] = {}
        self._lost_now: dict[int, dict[int, int]] = {}

        if self._alive is None:
            self._alive = [e >= cfg.energy_threshold for e in self.energy]
            self._dead_count = len(self._alive) - sum(self._alive)
            self._live = live_adjacency(self.topology, self._alive)
        alive = self._alive
        source = self._pick_source()
        self._ensure_levels(source)

        # 1. traffic generation; the application buffer is not capacity-bound
        queue = self.queues[source]
        for _ in range(cfg.packets_per_round):
            queue.append(self._new_packet(source))
        occupied = self._occupied
        occupied.add(source)

        # 2. flood faults blast fake packets at random neighbors, ignoring
        # flow control entirely; victims' buffers can overflow
        for f_id in self._flooders:
            if not alive[f_id]:
                continue
            victims = [j for j in self.topology.adjacency[f_id] if j != self.bs]
            if not victims:
                continue
            for _ in range(self.faults[f_id].rate):
                if self.energy[f_id] < cfg.energy_threshold:
                    break
                k = self.rng.choice(victims)
                fake = self._new_packet(f_id, fake=True)
                fake.hop_trail.append(k)
                radio.debit(self.energy, f_id, self._link_costs(f_id, k)[0])
                radio.debit(self.energy, k, self._rx_packet)
                self._inflow_now[k] = self._inflow_now.get(k, 0) + 1
                if enqueue(self.queues[k], fake, self.cycle, cfg.queue_capacity):
                    occupied.add(k)
                else:
                    self._finish(fake, DROPPED_OVERFLOW)

        # 3./4. forwarding sweep, levels ascending, node ids ascending, over
        # the levelled nodes that hold packets: a heap of (level, id) to which
        # _transmit adds each node whose empty queue it fills
        levels, unreached = self.levels, self._unreached
        sweep = self._sweep
        sweep.extend((levels[i], i) for i in occupied if levels[i] != unreached)
        heapify(sweep)
        while sweep:
            level_i, i = heappop(sweep)
            self._forward_from(i, level_i)

        # 5. queue aging and timeout drops
        self._age_queues()

        # 6. close this cycle's flow-history row; a queue outside the
        # occupied set was empty at the end of the last cycle and still is.
        # The source's queue can hold more than the capacity: no free space.
        # Inflow is the flood receipts plus the ledger's columns, the sink's
        # left out
        inflow, bs = self._inflow_now, self.bs
        for out in self._sent_now.values():
            for j, count in out.items():
                if j != bs:
                    inflow[j] = inflow.get(j, 0) + count
        queues, cap = self.queues, cfg.queue_capacity
        self.flow.record_cycle(inflow,
                               {i: sum(out.values()) for i, out in self._sent_now.items()},
                               {k: (free if (free := cap - len(queues[k])) > 0 else 0)
                                for k in occupied})
        self._occupied = {k for k in occupied if queues[k]}

        # 7. pheromone evaporation and deposits
        if self.needs_pheromone:
            self.pheromone.update_cycle(self._sent_now, self.topology.distance,
                                        cfg.pheromone_deposit_scale)

        # 8. record the cycle's evidence; the next cycle routes on the trust
        # of this moment
        self._recompute_trust()

        # 9. deaths and metrics; a death cuts links, so the live adjacency is
        # rebuilt and the source pool and the levels are derived afresh: the
        # level cache is dropped with them
        dead = self._dead_count
        for k in chain(self._sent_now, self._inflow_now, self._flooders):
            if alive[k] and self.energy[k] < cfg.energy_threshold:
                alive[k] = False
                dead += 1
        if dead != self._dead_count:
            self._dead_count = dead
            self._live = live_adjacency(self.topology, alive)
            self._source_pool = self._levels_source = None
            self._level_cache = {}
        row.dead_nodes = dead
        row.total_energy_j = left_sum(self.energy)
        row.in_flight = self._in_flight
        self.metric_rows.append(row)
        return row

    def run(self, after_cycle: Optional[Callable[["Simulation"], None]] = None,
            ) -> SimMetrics:
        """Cycle until 60% of nodes are dead (the last milestone), the
        horizon, or a dead end.

        ``after_cycle(self)``, when given, is called after each cycle that
        completes, outside ``run_cycle``.
        """
        cfg = self.cfg
        stop_dead = dead_needed(cfg.node_count, MILESTONE_PERCENTAGES[-1])
        termination = "max_cycles"
        while self.cycle < cfg.max_cycles:
            try:
                row = self.run_cycle()
            except SourceDead:
                termination = "source_dead"
                break
            except DisconnectedNetwork:
                termination = "sink_unreachable"
                break
            if after_cycle is not None:
                after_cycle(self)
            if row.dead_nodes >= stop_dead:
                termination = "dead_fraction"
                break
        metrics = SimMetrics(
            protocol=self.protocol,
            seed=self.seed,
            node_count=cfg.node_count,
            cycles=self.metric_rows,
            termination=termination,
        )
        metrics.milestones = extract_milestones(metrics.dead_counts(), cfg.node_count)
        return metrics


def run_simulation(cfg: SimConfig, protocol: str = "tc_aco",
                   seed: Optional[int] = None) -> SimMetrics:
    return Simulation(cfg, protocol=protocol, seed=seed).run()

