"""Invariants of small random runs across protocols, forwarding modes,
fault kinds and polarities."""

import math
from bisect import insort
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from hypothesis import assume, given, settings, strategies as st

from tcaco import engine
from tcaco.config import (CONGESTION_POLARITIES, FORWARDING_MODES, LATENCY_POLARITIES,
                          SOURCE_POLICIES, FaultSpec, SimConfig)
from tcaco.engine import PROTOCOLS, Simulation, SourceDead
from tcaco.model import DELIVERED, DROPPED_TIMEOUT, TERMINAL_FATES
from tcaco.routing import (UNREACHED, assign_levels, hops_from, live_adjacency,
                           rank_by_probability, select_next_hop)
from tcaco.topology import DisconnectedNetwork, build_topology

from test_engine import all_trust, conserved_totals, route_lines
from test_trust import classify, node_class

fractions = st.sampled_from([0.1, 0.2, 0.3])
FAULTS = {
    "drop": st.builds(FaultSpec, behavior=st.just("drop"), fraction=fractions,
                      p=st.floats(0.0, 1.0)),
    "duplicate": st.builds(FaultSpec, behavior=st.just("duplicate"), fraction=fractions,
                           copies=st.integers(1, 3)),
    "flood": st.builds(FaultSpec, behavior=st.just("flood"), fraction=fractions,
                       rate=st.integers(0, 6)),
    "delay": st.builds(FaultSpec, behavior=st.just("delay"), fraction=fractions,
                       extra=st.integers(0, 3)),
}
fault_specs = st.lists(st.sampled_from(sorted(FAULTS)), unique=True, max_size=4).flatmap(
    lambda kinds: st.tuples(*(FAULTS[kind] for kind in kinds)))

configs = st.builds(
    SimConfig,
    node_count=st.integers(2, 20),
    field_width=st.floats(20.0, 150.0),
    field_height=st.floats(20.0, 150.0),
    # low batteries let nodes die inside the horizon
    initial_energy=st.sampled_from([0.02, 0.05, 1.0]),
    queue_capacity=st.integers(1, 8),
    wc_max=st.integers(1, 4),
    congestion_window=st.none() | st.integers(1, 4),
    packets_per_round=st.integers(1, 12),
    max_cycles=st.integers(0, 40),
    forwarding_mode=st.sampled_from(FORWARDING_MODES),
    source_policy=st.sampled_from(SOURCE_POLICIES),
    congestion_polarity=st.sampled_from(CONGESTION_POLARITIES),
    latency_polarity=st.sampled_from(LATENCY_POLARITIES),
    fault_spec=fault_specs,
    rng_seed=st.integers(0, 2 ** 16),
)


@settings(max_examples=40, deadline=None)
@given(configs, st.sampled_from(PROTOCOLS))
def test_random_run_keeps_its_invariants(cfg, protocol):
    try:
        sim = Simulation(cfg, protocol=protocol, log_routes=True)
    except DisconnectedNetwork:
        assume(False)   # no node within radio range of the sink
    metrics = sim.run()
    totals = conserved_totals(metrics)
    energies = [row.total_energy_j for row in metrics.cycles]
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))
    dead = metrics.dead_counts()
    assert dead == sorted(dead)
    assert all(s.acks_received <= s.packets_sent for s in sim.stats._links.values())
    fates = Counter(fate for _, fate, _ in route_lines(sim))
    assert fates == Counter({fate: totals[fate] for fate in TERMINAL_FATES})


@settings(max_examples=60, deadline=None)
@given(configs, st.sampled_from(PROTOCOLS))
def test_evidence_indexes_equal_a_scan_of_the_links(cfg, protocol):
    """After every cycle ``senders[j]`` holds, in any order and once each,
    the neighbours k whose link k->j has a send, and ``timed[i]`` holds, in
    adjacency order, the neighbours j whose link i->j has a latency sample."""
    try:
        sim = Simulation(cfg, protocol=protocol)
    except DisconnectedNetwork:
        assume(False)
    stats, adjacency = sim.stats, sim.topology.adjacency
    while sim.cycle < cfg.max_cycles:
        try:
            sim.run_cycle()
        except (SourceDead, DisconnectedNetwork):
            break
        for j, row in enumerate(adjacency):
            senders = [k for k in row if stats.link(k, j).packets_sent]
            timed = [k for k in row if stats.link(j, k).latency_count]
            assert sorted(stats.senders.get(j, ())) == senders, (sim.cycle, j)
            assert stats.timed.get(j, []) == timed, (sim.cycle, j)


class TransferByTransfer:
    """Evidence recorded transfer by transfer and applied at once: one send
    per ``_transmit`` call, one ack per call that returned True, one latency
    sample per hop of each delivered packet's trail, and one for each
    unacknowledged transfer and each timeout. It installs itself on ``sim``
    as wrappers of ``_transmit`` and ``_finish``."""

    def __init__(self, sim):
        self.links = {}   # (i, j) -> [sent, acks, latency count, latency sum]
        self.senders, self.timed = {}, {}
        penalty = sim.cfg.latency_penalty_cycles
        transmit, finish = sim._transmit, sim._finish

        def shadow_transmit(i, p, j):
            self.send(i, j)
            acked = transmit(i, p, j)
            if acked:
                self.link(i, j)[1] += 1
            else:
                self.latency(i, j, math.inf)
            return acked

        def shadow_finish(p, fate):
            finish(p, fate)
            trail = p.hop_trail
            if fate == DELIVERED:
                for a, b in zip(trail, trail[1:]):
                    self.latency(a, b, float(sim.cycle - p.created_cycle))
            elif fate == DROPPED_TIMEOUT and len(trail) >= 2:
                self.latency(trail[-2], trail[-1], penalty)

        sim._transmit, sim._finish = shadow_transmit, shadow_finish

    def link(self, i, j):
        return self.links.setdefault((i, j), [0, 0, 0, 0.0])

    def send(self, i, j):
        s = self.link(i, j)
        if not s[0]:
            self.senders.setdefault(j, []).append(i)
        s[0] += 1

    def latency(self, i, j, value):
        s = self.link(i, j)
        if not s[2]:
            insort(self.timed.setdefault(i, []), j)
        s[2] += 1
        s[3] += value

    def evidence(self):
        return {link: (sent, acks, count, total.hex())
                for link, (sent, acks, count, total) in self.links.items()}


# every fault behaviour at once, and a latency penalty that is no whole cycle
ledger_configs = st.builds(
    replace, configs,
    fault_spec=st.tuples(*(FAULTS[kind] for kind in sorted(FAULTS))),
    latency_penalty_cycles=st.floats(0.1, 40.0).filter(lambda v: not v.is_integer()))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(ledger_configs)
def test_ledger_evidence_equals_transfer_by_transfer(protocol, cfg):
    """After every cycle the evidence handed over from the cycle's ledger
    equals evidence recorded transfer by transfer: each link's counts, its
    latency sum bit for bit, and ``senders`` and ``timed`` in their order."""
    try:
        sim = Simulation(cfg, protocol=protocol)
    except DisconnectedNetwork:
        assume(False)
    shadow = TransferByTransfer(sim)
    stats = sim.stats
    while sim.cycle < cfg.max_cycles:
        try:
            sim.run_cycle()
        except (SourceDead, DisconnectedNetwork):
            break
        got = {link: (s.packets_sent, s.acks_received, s.latency_count,
                      s.latency_sum.hex()) for link, s in stats._links.items()}
        assert got == shadow.evidence(), sim.cycle
        assert stats.senders == shadow.senders, sim.cycle
        assert stats.timed == shadow.timed, sim.cycle


# rank mode under the faults that touch a receiver's queue or battery, a
# forward limit, and batteries a few transfers above the energy threshold
kept_pick_configs = st.builds(
    replace, configs,
    forwarding_mode=st.just("deterministic_rank"),
    fault_spec=st.tuples(*(FAULTS[kind] for kind in ("delay", "drop", "duplicate"))),
    initial_energy=st.sampled_from([0.0102, 0.0105, 0.011, 0.013]),
    per_cycle_forward_limit=st.integers(1, 6))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(kept_pick_configs)
def test_rank_mode_transfers_to_the_first_admissible_candidate(protocol, cfg):
    """In rank mode every transfer goes where ``select_next_hop`` over the
    turn's ranking points as it is made, although the engine keeps its last
    pick while that stays admissible; and no candidate refused during a
    turn is admissible again in it."""
    try:
        sim = Simulation(cfg, protocol=protocol)
    except DisconnectedNetwork:
        assume(False)
    turn = {"ranking": [], "refused": set()}
    transmit = sim._transmit

    def shadow_rank(probabilities):
        turn["ranking"] = rank_by_probability(probabilities)
        turn["refused"] = set()
        return turn["ranking"]

    def shadow_transmit(i, p, j):
        ranking = turn["ranking"]
        assert select_next_hop(ranking, sim._admissible) == j, (sim.cycle, i)
        refused = {k for k in ranking if not sim._admissible(k)}
        assert turn["refused"] <= refused, (sim.cycle, i)
        turn["refused"] = refused
        return transmit(i, p, j)

    sim._transmit = shadow_transmit
    with mock.patch.object(engine, "rank_by_probability", shadow_rank):
        while sim.cycle < cfg.max_cycles:
            try:
                sim.run_cycle()
            except (SourceDead, DisconnectedNetwork):
                break


@settings(max_examples=100, deadline=None)
@given(configs.map(lambda cfg: replace(cfg, source_policy="random_per_round")),
       st.sampled_from(PROTOCOLS))
def test_kept_trust_equals_the_full_recomputation(cfg, protocol):
    """After every cycle each link's trust read on demand equals
    ``sim.trust.rows()`` and the verdict read on demand equals ``classify``
    over those values."""
    try:
        sim = Simulation(cfg, protocol=protocol)
    except DisconnectedNetwork:
        assume(False)
    while sim.cycle < cfg.max_cycles:
        try:
            sim.run_cycle()
        except (SourceDead, DisconnectedNetwork):
            break
        full = all_trust(sim)
        assert {link: sim.trust.link(*link) for link in full} == full, sim.cycle
        assert node_class(sim) == classify(full, sim.stats, cfg.trust_threshold,
                                           cfg.node_count), sim.cycle


# batteries a few transfers above the energy threshold, so nodes die
# mid-run and the cached levels are dropped
dying_configs = st.builds(
    replace, configs,
    initial_energy=st.sampled_from([0.0102, 0.0105, 0.011, 0.013, 0.02]))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("policy", SOURCE_POLICIES)
@settings(max_examples=30, deadline=None)
@given(dying_configs)
def test_cached_levels_equal_a_fresh_search(policy, protocol, cfg):
    """After every cycle the levels the cycle routed on, which the trust
    snapshot keeps, equal a fresh search from its source over the live
    adjacency it started with; and every cached search equals a fresh one
    over the live adjacency the next cycle starts with."""
    try:
        sim = Simulation(replace(cfg, source_policy=policy), protocol=protocol)
    except DisconnectedNetwork:
        assume(False)
    ensure, searched = sim._ensure_levels, {}

    def recorded_ensure(source):
        ensure(source)
        searched.update(source=source, live=sim._live)

    sim._ensure_levels = recorded_ensure
    topology = sim.topology
    while sim.cycle < cfg.max_cycles:
        try:
            sim.run_cycle()
        except (SourceDead, DisconnectedNetwork):
            break
        fresh = assign_levels(topology, searched["source"], searched["live"])
        assert sim.levels == fresh, sim.cycle
        assert sim.trust.levels is sim.levels, sim.cycle
        for source, levels in sim._level_cache.items():
            assert levels.tolist() == assign_levels(topology, source, sim._live), (sim.cycle,
                                                                                   source)


def reference_hops(topology, roots, alive):
    """Breadth-first hops over the full adjacency, skipping the sink, dead
    nodes and visited nodes as each neighbour is met."""
    hops = [None] * topology.node_count
    for r in roots:
        hops[r] = 0
    frontier, depth = list(roots), 0
    while frontier:
        depth += 1
        nxt = []
        for i in frontier:
            for j in topology.adjacency[i]:
                if j == topology.bs_id or not alive[j] or hops[j] is not None:
                    continue
                hops[j] = depth
                nxt.append(j)
        frontier = nxt
    return hops


points = st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
# every endpoint at its own point: a link of length zero is refused
graphs = st.lists(st.tuples(points, st.booleans()), min_size=1, max_size=25,
                  unique_by=lambda node: node[0]).flatmap(
    lambda nodes: st.tuples(st.just(nodes),
                            points.filter(lambda bs: bs not in [p for p, _ in nodes]),
                            st.floats(10.0, 60.0), st.integers(0, len(nodes) - 1)))


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_live_adjacency_search_equals_the_filtered_search(graph):
    """Levels and the sink's alive component, searched over the live
    adjacency, equal a search over the full adjacency that filters as it
    goes."""
    nodes, bs_position, radio_range, source = graph
    try:
        topology = build_topology([p for p, _ in nodes], bs_position, radio_range)
    except DisconnectedNetwork:
        assume(False)   # no node within radio range of the sink
    alive = [a for _, a in nodes]
    live = live_adjacency(topology, alive)
    sink_roots = [j for j in topology.adjacency[topology.bs_id] if alive[j]]
    assert hops_from(live, sink_roots) == reference_hops(topology, sink_roots, alive)

    want = reference_hops(topology, [source], alive)
    reached = [want[j] for j in topology.adjacency[topology.bs_id] if want[j] is not None]
    if not alive[source] or not reached:
        try:
            assign_levels(topology, source, live)
        except DisconnectedNetwork:
            return
        raise AssertionError("a dead source or an unreachable sink got levels")
    want = [UNREACHED if h is None else h for h in want]
    assert assign_levels(topology, source, live) == [*want, min(reached) + 1]
