"""Simulation lifecycle: deployment, the per-cycle state machine, fault
injection, baseline protocols, and lifetime metrics.

One simulation instance owns all state and is strictly single threaded; a
fixed event order (levels ascending, node ids ascending, FIFO within a
queue) plus a single seeded random stream per replicate make every run
bit-reproducible. The documented draw order is: node deployment first,
then fault assignment, then per-cycle draws (source pick, then forwarding
and receipt coins in processing order).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import energy as radio
from .config import FaultSpec, SimConfig, validate_config
from .congestion import FlowHistory, NodeQueue, enqueue, tick_wait_and_drop
from .model import DELIVERED, DROPPED_MALICIOUS, NodeState, Packet
from .routing import (LevelAssignment, PheromoneTable, assign_levels, hops_from,
                      rank_by_probability, select_next_hop,
                      transition_probabilities, trust_congestion_metric)
from .topology import DisconnectedNetwork, Topology, build_topology, euclidean_distance
from .trust import MALICIOUS_NODE, TRUSTED_NODE, TrustStats, classify, node_trust


class SourceDead(RuntimeError):
    """No usable traffic source remains."""


MILESTONE_PERCENTAGES = (1, 10, 20, 30, 40, 50, 60)

PROTOCOLS = ("tc_aco", "dist_aco", "trust_greedy", "naive_minhop")


@dataclass(frozen=True)
class ProtocolPolicy:
    """What a routing protocol looks at when scoring candidates."""

    name: str
    trust_filter: bool   # drop candidates failing the trust test


_POLICIES = {
    # Full pipeline: trust filter plus trust-congestion, distance, pheromone.
    "tc_aco": ProtocolPolicy("tc_aco", trust_filter=True),
    # Pheromone and distance only; routes straight through malicious nodes.
    "dist_aco": ProtocolPolicy("dist_aco", trust_filter=False),
    # Trust-filtered greedy nearest neighbor; no pheromone, no congestion.
    "trust_greedy": ProtocolPolicy("trust_greedy", trust_filter=True),
    # Greedy nearest neighbor, blind to trust and congestion.
    "naive_minhop": ProtocolPolicy("naive_minhop", trust_filter=False),
}


def get_policy(protocol: str, cfg: SimConfig) -> tuple[ProtocolPolicy, tuple[float, float, float]]:
    if protocol not in _POLICIES:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    betas = {
        "tc_aco": (cfg.beta1, cfg.beta2, cfg.beta3),
        "dist_aco": (0.0, cfg.beta2, cfg.beta3),
        "trust_greedy": (0.0, 1.0, 0.0),
        "naive_minhop": (0.0, 1.0, 0.0),
    }[protocol]
    return _POLICIES[protocol], betas


@dataclass
class CycleStats:
    """Per-cycle increments plus end-of-cycle levels."""

    cycle: int
    generated: int
    delivered: int
    dropped_overflow: int
    dropped_timeout: int
    dropped_malicious: int
    dead_nodes: int
    total_energy_j: float
    in_flight: int
    forwarded_to_malicious: int


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


def extract_milestones(dead_counts: Sequence[int], node_count: int,
                       ) -> dict[int, Optional[int]]:
    """First round at which each dead-node percentage is reached, else None."""
    out: dict[int, Optional[int]] = {}
    for pct in MILESTONE_PERCENTAGES:
        need = node_count * pct / 100.0
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
        self.policy, self.betas = get_policy(protocol, cfg)
        self.protocol = protocol
        self.needs_trust = self.policy.trust_filter or self.betas[0] > 0
        self.needs_ci = self.betas[0] > 0
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
        self.nodes = [
            NodeState(i, positions[i], cfg.initial_energy, cfg.energy_threshold)
            for i in range(n)
        ]
        self.queues = [NodeQueue(cfg.queue_capacity) for _ in range(n)]

        self.radio_params = cfg.radio_params()
        self.packet_bits = cfg.packet_size_bits
        self.ack_bits = int(round(cfg.ack_size_fraction * cfg.packet_size_bits))
        self.latency_penalty = cfg.effective_latency_penalty()

        self.stats = TrustStats()
        self.trust_table: dict[tuple[int, int], float] = {
            (i, j): 1.0 for i in range(n) for j in self.topology.adjacency[i]
        }
        self.node_class = {i: TRUSTED_NODE for i in range(n)}
        self.ci = [0.0] * n
        self.pheromone = PheromoneTable(self.trust_table, cfg.tau_init, cfg.tau_floor)
        self.flow = FlowHistory(n, window=cfg.congestion_window)

        self.cycle = 0
        self._next_pid = 0
        self.levels: Optional[LevelAssignment] = None
        self._levels_source: Optional[int] = None
        self._levels_dead_count = -1
        self.metric_rows: list[CycleStats] = []
        self.route_log: list[tuple[int, Packet]] = []

        # running counters for the cycle in progress
        self._reset_cycle_counters()

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
        fault nodes are simply never drawn as sources.
        """
        cfg = self.cfg
        protected = {self.fixed_source} if cfg.source_policy == "fixed" else set()
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
                pool = sorted(set(range(cfg.node_count)) - protected - set(assigned))
                count = min(int(round(entry.fraction * cfg.node_count)), len(pool))
                targets = self.rng.sample(pool, count)
            for t in targets:
                assigned[t] = entry
        return assigned

    # ------------------------------------------------------------ cycle steps

    def _reset_cycle_counters(self) -> None:
        n = self.cfg.node_count
        self._gen = 0
        self._delivered = 0
        self._drop_overflow = 0
        self._drop_timeout = 0
        self._drop_malicious = 0
        self._fwd_malicious = 0
        self._inflow_now = [0] * n
        self._outflow_now = [0] * n
        self._tx_counts: dict[tuple[int, int], int] = {}

    def _new_packet(self, origin: int, fake: bool = False) -> Packet:
        p = Packet(self._next_pid, origin, self.cycle, fake=fake)
        self._next_pid += 1
        self._gen += 1
        return p

    def _alive_flags(self) -> list[bool]:
        return [node.alive for node in self.nodes]

    def _pick_source(self, alive: list[bool]) -> int:
        if self.cfg.source_policy == "fixed":
            source = self.fixed_source
            if not alive[source]:
                raise SourceDead(f"fixed source {source} fell below the energy threshold")
            return source
        # nodes whose alive component currently reaches the base station
        hops = hops_from(self.topology,
                         [j for j in self.topology.adjacency[self.bs] if alive[j]], alive)
        pool = [
            i for i in range(self.cfg.node_count)
            if hops[i] is not None and i not in self.faults
        ]
        if not pool:
            raise SourceDead("no alive honest node can reach the base station")
        return self.rng.choice(pool)

    def _ensure_levels(self, source: int, alive: list[bool]) -> None:
        dead_count = alive.count(False)
        if (self.levels is not None and self._levels_source == source
                and self._levels_dead_count == dead_count):
            return
        self.levels = assign_levels(self.topology, source, alive)
        self._levels_source = source
        self._levels_dead_count = dead_count

    def _scored_candidates(self, i: int, level_i: int):
        """Valid next hops for node i with (id, tc, d, tau) scoring inputs."""
        cfg = self.cfg
        use_tcm = self.betas[0] > 0
        levels = self.levels.levels
        out = []
        for j in self.topology.adjacency[i]:
            if j == self.bs:
                t_ij = self.trust_table[i, j]
                ci_j = 0.0
            else:
                if levels[j] != level_i + 1:
                    continue
                t_ij = self.trust_table[i, j]
                if self.policy.trust_filter:
                    if self.node_class.get(j) == MALICIOUS_NODE:
                        continue
                    if not t_ij > cfg.trust_threshold:
                        continue
                ci_j = self.ci[j]
            tc = trust_congestion_metric(t_ij, ci_j, cfg.alpha,
                                         cfg.congestion_polarity) if use_tcm else 1.0
            tau = self.pheromone.get(i, j) if self.needs_pheromone else 1.0
            out.append((j, tc, self.topology.distances[i][j], tau))
        return out

    def _admissible(self, j: int) -> bool:
        """A candidate accepts traffic while its queue has room and it can transmit."""
        if j == self.bs:
            return True
        return (self.nodes[j].energy >= self.cfg.energy_threshold
                and not self.queues[j].full)

    def _record_delivery_latency(self, p: Packet) -> None:
        latency = float(self.cycle - p.created_cycle)
        trail = p.hop_trail
        for a, b in zip(trail, trail[1:]):
            self.stats.record_latency(a, b, latency)

    def _transmit(self, i: int, p: Packet, j: int) -> bool:
        """Radio one packet from i to j; True when j acknowledged it.

        An unacknowledged transfer leaves the packet with the sender: the
        radio energy is spent on both ends, but the payload never arrived
        anywhere it can progress from.
        """
        d = self.topology.distances[i][j]
        radio.debit(self.nodes[i], radio.tx_cost(self.packet_bits, d, self.radio_params))
        self._outflow_now[i] += 1
        self.stats.record_send(i, j)
        key = (i, j)
        self._tx_counts[key] = self._tx_counts.get(key, 0) + 1

        if j == self.bs:
            p.record_hop(j)
            if p.fake:
                p.resolve(DROPPED_MALICIOUS)
                self._drop_malicious += 1
            else:
                p.resolve(DELIVERED)
                self._delivered += 1
                self._record_delivery_latency(p)
            if self.log_routes:
                self.route_log.append((self.cycle, p))
            # the sink acknowledges everything it absorbs
            self.stats.record_ack(i, j)
            if self.ack_bits:
                radio.debit(self.nodes[i], radio.rx_cost(self.ack_bits, self.radio_params))
            return True

        self._inflow_now[j] += 1
        receiver = self.nodes[j]
        behavior = self.faults.get(j)
        if behavior is not None:
            self._fwd_malicious += 1
        radio.debit(receiver, radio.rx_cost(self.packet_bits, self.radio_params))

        if behavior is not None and behavior.behavior == "drop":
            if self.rng.random() < behavior.p:
                # an unacknowledged transfer never completed: unbounded latency
                self.stats.record_latency(i, j, math.inf)
                return False

        self.stats.record_ack(i, j)
        if self.ack_bits:
            radio.debit(receiver, radio.tx_cost(self.ack_bits, d, self.radio_params))
            radio.debit(self.nodes[i], radio.rx_cost(self.ack_bits, self.radio_params))

        p.record_hop(j)
        if behavior is not None and behavior.behavior == "delay":
            p.hold_cycles = behavior.extra
        enqueue(self.queues[j], p)

        if behavior is not None and behavior.behavior == "duplicate":
            for _ in range(behavior.copies - 1):
                if self.queues[j].full:
                    break
                clone = self._new_packet(p.origin, fake=True)
                clone.hop_trail = list(p.hop_trail)
                enqueue(self.queues[j], clone)
        return True

    def _forward_from(self, i: int, level_i: int) -> None:
        cfg = self.cfg
        queue = self.queues[i]
        if not queue.entries or self.nodes[i].energy < cfg.energy_threshold:
            return
        candidates = self._scored_candidates(i, level_i)
        if not candidates:
            return
        probabilities = transition_probabilities(candidates, *self.betas)
        ranked = rank_by_probability(probabilities)
        limit = cfg.per_cycle_forward_limit
        max_attempts = cfg.max_transfer_attempts

        forwarded = 0
        for p in list(queue.entries):
            if limit is not None and forwarded >= limit:
                break
            if p.hold_cycles > 0:
                continue
            # retry loop: an unacknowledged transfer keeps the packet here and
            # burns one of its attempts; there is no cross-packet memory of
            # refusals, so shaking off a bad hop is the trust layer's job
            while True:
                if self.nodes[i].energy < cfg.energy_threshold:
                    return
                j = select_next_hop(ranked, self._admissible, cfg.forwarding_mode,
                                    probabilities, self.rng)
                if j is None:
                    # nothing admissible now; this and later packets keep aging
                    return
                if self._transmit(i, p, j):
                    queue.entries.remove(p)
                    forwarded += 1
                    break
                p.transfer_failures += 1
                if p.transfer_failures >= max_attempts:
                    queue.entries.remove(p)
                    p.resolve(DROPPED_MALICIOUS)
                    self._drop_malicious += 1
                    if self.log_routes:
                        self.route_log.append((self.cycle, p))
                    break

    def _age_queues(self) -> None:
        wc_max = self.cfg.wc_max
        for k in range(self.cfg.node_count):
            for p in tick_wait_and_drop(self.queues[k], wc_max):
                self._drop_timeout += 1
                trail = p.hop_trail
                if len(trail) >= 2:
                    # the holder sat on this packet until it died
                    self.stats.record_latency(trail[-2], trail[-1], self.latency_penalty)
                if self.log_routes:
                    self.route_log.append((self.cycle, p))

    def trust_rows(self):
        """Yield ``(i, [(j, ne, ptr, pl, t_ij), ...])`` per node, in link order,
        from the current evidence, energies and levels."""
        cfg = self.cfg
        n = cfg.node_count
        if self.levels is None:
            levels = [None] * (n + 1)
        else:
            levels = [*self.levels.levels, self.levels.bs_level]
        energies = [node.energy for node in self.nodes]
        energies.append(cfg.initial_energy)   # the sink is energy-unbounded
        adjacency = self.topology.adjacency
        for i in range(n):
            yield i, node_trust(self.stats, i, adjacency[i], levels, energies,
                                cfg.initial_energy, cfg.a1, cfg.a2, cfg.a3,
                                cfg.latency_polarity, float(cfg.wc_max))

    def _recompute_trust(self) -> None:
        table = self.trust_table
        for i, rows in self.trust_rows():
            for j, _, _, _, t_ij in rows:
                table[i, j] = t_ij
        self.node_class = classify(table, self.stats, self.cfg.trust_threshold,
                                   self.cfg.node_count)

    def run_cycle(self) -> CycleStats:
        """Advance the simulation by one cycle and return its statistics."""
        cfg = self.cfg
        self.cycle += 1
        self._reset_cycle_counters()

        alive = self._alive_flags()
        source = self._pick_source(alive)
        self._ensure_levels(source, alive)

        # 1. traffic generation; the application buffer is not capacity-bound
        for _ in range(cfg.packets_per_round):
            self.queues[source].entries.append(self._new_packet(source))

        # 2. flood faults blast fake packets at random neighbors, ignoring
        # flow control entirely; victims' buffers can overflow
        for f_id in sorted(self.faults):
            behavior = self.faults[f_id]
            if behavior.behavior != "flood" or not alive[f_id]:
                continue
            victims = [j for j in self.topology.adjacency[f_id] if j != self.bs]
            if not victims:
                continue
            for _ in range(behavior.rate):
                if self.nodes[f_id].energy < cfg.energy_threshold:
                    break
                k = self.rng.choice(victims)
                fake = self._new_packet(f_id, fake=True)
                fake.record_hop(k)
                d = self.topology.distances[f_id][k]
                radio.debit(self.nodes[f_id],
                            radio.tx_cost(self.packet_bits, d, self.radio_params))
                radio.debit(self.nodes[k],
                            radio.rx_cost(self.packet_bits, self.radio_params))
                self._inflow_now[k] += 1
                if not enqueue(self.queues[k], fake):
                    self._drop_overflow += 1

        # 3./4. forwarding sweep, levels ascending, node ids ascending
        levels = self.levels.levels
        order = sorted(
            (lvl, i) for i, lvl in enumerate(levels) if lvl is not None
        )
        for level_i, i in order:
            self._forward_from(i, level_i)

        # 5. queue aging and timeout drops
        self._age_queues()

        # 6. close this cycle's flow-history row
        free = [self.queues[k].free_space() for k in range(cfg.node_count)]
        self.flow.record_cycle(self._inflow_now, self._outflow_now, free)

        # 7. pheromone evaporation and deposits
        if self.needs_pheromone:
            self.pheromone.update_cycle(self._tx_counts, self.topology.distance,
                                        cfg.rho, cfg.pheromone_deposit_scale)

        # 8. refresh trust, classification, and congestion for the next cycle
        if self.needs_trust:
            self._recompute_trust()
        if self.needs_ci:
            self.ci = [
                self.flow.congestion_index(k)
                if self.node_class.get(k) == TRUSTED_NODE else 0.0
                for k in range(cfg.node_count)
            ]

        # 9. metrics
        row = CycleStats(
            cycle=self.cycle,
            generated=self._gen,
            delivered=self._delivered,
            dropped_overflow=self._drop_overflow,
            dropped_timeout=self._drop_timeout,
            dropped_malicious=self._drop_malicious,
            dead_nodes=sum(1 for node in self.nodes if not node.alive),
            total_energy_j=sum(node.energy for node in self.nodes),
            in_flight=sum(len(q) for q in self.queues),
            forwarded_to_malicious=self._fwd_malicious,
        )
        self.metric_rows.append(row)
        return row

    def run(self) -> SimMetrics:
        """Cycle until 60% of nodes are dead, the horizon, or a dead end."""
        cfg = self.cfg
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
            if row.dead_nodes >= 0.6 * cfg.node_count:
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

