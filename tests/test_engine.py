"""Per-cycle state machine, fault behaviors, terminations, determinism, and
bounded stored state."""

import math
import os
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest

from tcaco import congestion, topology
from tcaco.cli import build_parser, load_experiment
from tcaco.config import FaultSpec, SimConfig
from tcaco.engine import (PROTOCOLS, Simulation, SourceDead, dead_needed, deploy_nodes,
                          extract_milestones, run_simulation)
from tcaco.energy import tx_cost
from tcaco.model import DROPPED_OVERFLOW, TERMINAL_FATES
from tcaco.output import route_dump_text
from tcaco.routing import UNREACHED, live_adjacency
from tcaco.topology import DisconnectedNetwork
from tcaco.trust import TrustReads, blend, trust_weights
import random

from test_trust import (MALICIOUS_NODE, TRUSTED_NODE, classify, energy_metric,
                        latency_score, mean_latency, node_class, packet_transmission_ratio)


def conserved_totals(metrics):
    """Cumulative generated count and count per terminal fate after the last
    row; every row must satisfy generated = delivered + drops + in-flight."""
    totals = dict.fromkeys(("generated", *TERMINAL_FATES), 0)
    for r in metrics.cycles:
        for name in totals:
            totals[name] += getattr(r, name)
        ended = sum(totals[fate] for fate in TERMINAL_FATES)
        assert totals["generated"] == ended + r.in_flight, f"cycle {r.cycle}"
    return totals


# low battery under a rotating source: nodes die well inside the horizon
DYING = dict(node_count=30, field_width=120.0, field_height=120.0, packets_per_round=8,
             max_cycles=200, initial_energy=0.02, source_policy="random_per_round",
             fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))


def parse_routes(text):
    """(id, fate, hop trail) of each line of route dump text."""
    lines = []
    for line in text.splitlines():
        _, pid, fate, trail = line.split("\t")
        lines.append((int(pid), fate, [int(h) for h in trail.split(">")]))
    return lines


def route_lines(sim):
    """``parse_routes`` of the route dump, which drains the route log."""
    return parse_routes(route_dump_text(sim))


def seen_packets(sim):
    """(id, fate, hop trail) of every packet that reached a terminal fate,
    from the route dump, or is still queued; needs ``log_routes=True``."""
    return route_lines(sim) + [(p.id, p.fate, p.hop_trail)
                               for q in sim.queues for p in q]


class TestDeployment:
    def test_same_seed_identical_positions(self):
        cfg = SimConfig()
        a = deploy_nodes(cfg, random.Random(42))
        b = deploy_nodes(cfg, random.Random(42))
        assert a == b

    def test_positions_within_field(self):
        cfg = SimConfig()
        positions = deploy_nodes(cfg, random.Random(7))
        assert len(positions) == 50
        assert all(0 <= x <= 200 and 0 <= y <= 200 for x, y in positions)

    def test_same_seed_identical_across_protocols(self):
        cfg = SimConfig(node_count=20, max_cycles=1,
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=1.0),))
        sims = [Simulation(cfg, protocol=p, seed=9) for p in PROTOCOLS]
        first = sims[0]
        for sim in sims[1:]:
            assert sim.topology.positions == first.topology.positions
            assert sim.faults.keys() == first.faults.keys()


class TestMilestones:
    def test_first_death_rule(self):
        dead = [0, 0, 1] + [1] * 10
        got = extract_milestones(dead, 50)
        assert got[1] == 3  # 1% of 50 rounds up to the first death

    def test_unreached_is_none(self):
        got = extract_milestones([0, 0, 1, 2], 50)
        assert got[60] is None

    def test_mass_death_hits_every_milestone_at_once(self):
        got = extract_milestones([0, 50], 50)
        assert all(got[p] == 2 for p in (1, 10, 20, 30, 40, 50, 60))

    def test_non_decreasing(self):
        dead = [0, 1, 3, 7, 12, 18, 25, 31, 40]
        got = extract_milestones(dead, 50)
        reached = [got[p] for p in (1, 10, 20, 30, 40, 50, 60) if got[p] is not None]
        assert reached == sorted(reached)

    def test_threshold_is_the_ceiling_of_the_float_rules(self):
        # the stop rule read ``dead >= 0.6 * n`` and the milestones
        # ``dead >= n * pct / 100.0``; both reach the same integer counts
        for n in range(1, 5001):
            assert dead_needed(n, 60) == math.ceil(0.6 * n), n
            for pct in (1, 10, 20, 30, 40, 50, 60):
                assert dead_needed(n, pct) == math.ceil(n * pct / 100.0), (n, pct)


class TestTwoNodeDelivery:
    def test_whole_generation_delivered_in_one_cycle(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, ack_size_fraction=0.0, max_cycles=1)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        row = sim.run_cycle()
        assert row.delivered == cfg.packets_per_round
        assert row.in_flight == 0
        expected = 1.0 - cfg.packets_per_round * tx_cost(cfg.packet_size_bits, 10.0, cfg)
        assert sim.energy[0] == pytest.approx(expected, abs=1e-12)

    def test_generation_not_bound_by_buffer_capacity(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, queue_capacity=5, packets_per_round=20,
                        max_cycles=1)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        row = sim.run_cycle()
        assert row.generated == 20
        assert row.dropped_overflow == 0
        assert row.delivered == 20


class TestEnergyThreshold:
    def test_node_at_the_threshold_is_admissible_and_transmits(self):
        """A node holding exactly ``energy_threshold`` is alive: it accepts a
        packet and transmits. One holding any less does neither."""
        cfg = SimConfig(node_count=3, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, packets_per_round=3, ack_size_fraction=0.0,
                        max_cycles=1)
        # source 0, relay 1, then the sink; node 2 is out of everyone's range
        layout = [(0.0, 0.0), (30.0, 0.0), (0.0, 100.0)]
        th = cfg.energy_threshold

        # the source at the threshold sends one packet, which leaves it below;
        # the idle node at the threshold is not counted dead
        sim = Simulation(cfg, positions=layout)
        sim.energy[0] = sim.energy[2] = th
        row = sim.run_cycle()
        assert row.delivered == 1 and [len(q) for q in sim.queues] == [2, 0, 0]
        assert row.dead_nodes == 1

        # the relay at the threshold accepts one packet; receiving it leaves
        # the relay below, where it neither forwards it nor accepts another
        sim = Simulation(cfg, positions=layout)
        sim.energy[1] = th
        row = sim.run_cycle()
        assert row.delivered == 0 and [len(q) for q in sim.queues] == [2, 1, 0]
        assert sim.energy[1] < th and row.dead_nodes == 1

        # a relay just below the threshold is dead: the sink is out of reach
        sim = Simulation(cfg, positions=layout)
        sim.energy[1] = math.nextafter(th, 0.0)
        with pytest.raises(DisconnectedNetwork):
            sim.run_cycle()


class TestDropRelay:
    def chain(self, p=1.0, cycles=12):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=cycles,
                        fault_spec=(FaultSpec(behavior="drop", nodes=(1,), p=p),))
        return Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])

    def test_no_alternative_blackhole_kills_delivery(self):
        sim = self.chain()
        totals = conserved_totals(sim.run())
        assert totals["delivered"] == 0
        # abandoned after retries or aged out
        assert totals["dropped_malicious"] > 0 or totals["dropped_timeout"] > 0

    def test_ack_ratio_converges_to_zero(self):
        sim = self.chain()
        sim.run()
        link = sim.stats.link(0, 1)
        assert link.packets_sent > 0
        assert link.acks_received == 0
        assert link.acks_received / link.packets_sent == 0.0

    def test_link_trust_falls_below_threshold(self):
        sim = self.chain()
        for _ in range(4):
            sim.run_cycle()
        assert sim.trust.link(0, 1) < sim.cfg.trust_threshold
        assert node_class(sim)[1] == MALICIOUS_NODE


class TestFaultBehaviors:
    def test_flood_into_stuffed_buffer_overflows(self):
        cfg = SimConfig(node_count=2, radio_range=45.0, bs_position=(40.0, 0.0),
                        source_node=0, max_cycles=3, packets_per_round=20,
                        fault_spec=(FaultSpec(behavior="flood", nodes=(1,), rate=3),))
        sim = Simulation(cfg, positions=[(0.0, 0.0), (20.0, 0.0)])
        metrics = sim.run()
        for row in metrics.cycles:
            assert row.generated == 23
            assert row.delivered == 20
            assert row.dropped_overflow == 3  # bounced off the packed buffer
        conserved_totals(metrics)

    def test_flood_can_starve_a_relay_without_delivery_credit(self):
        # 12 fakes per cycle into a 10-slot relay: two overflow every cycle,
        # the rest monopolize the buffer ahead of the real traffic
        cfg = SimConfig(node_count=3, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=6, packets_per_round=6,
                        queue_capacity=10,
                        fault_spec=(FaultSpec(behavior="flood", nodes=(2,), rate=12),))
        sim = Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0), (30.0, 30.0)],
                         log_routes=True)
        metrics = sim.run()
        for row in metrics.cycles:
            assert row.dropped_overflow == 2
        totals = conserved_totals(metrics)
        assert totals["delivered"] == 0          # the attack starves the only route
        assert totals["dropped_malicious"] > 0   # absorbed fakes earn no delivery credit
        # the fakes are the packets that originate at the flood node
        fakes = [fate for _, fate, trail in seen_packets(sim) if trail[0] == 2]
        assert fakes
        assert "delivered" not in fakes
        # the attacker pays transmission energy for every emitted fake
        assert sim.energy[2] < cfg.initial_energy

    def test_duplicate_spawns_clones_without_delivery_credit(self):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=4, packets_per_round=4,
                        fault_spec=(FaultSpec(behavior="duplicate", nodes=(1,), copies=3),))
        sim = Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])
        metrics = sim.run()
        totals = conserved_totals(metrics)
        assert totals["generated"] > metrics.cycles[-1].cycle * 4  # clones inflate generation
        assert totals["delivered"] == 4 * len(metrics.cycles)     # only originals count

    def test_delay_holds_packets_for_extra_cycles(self):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=6, packets_per_round=2, wc_max=5,
                        fault_spec=(FaultSpec(behavior="delay", nodes=(1,), extra=2),))
        sim = Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])
        first = sim.run_cycle()
        assert first.delivered == 0  # held at the relay
        second = sim.run_cycle()
        assert second.delivered == 0
        third = sim.run_cycle()
        assert third.delivered == 2  # released after the hold expires
        # delivery latency fed the trust stats with the two-cycle delay
        assert mean_latency(sim.stats.link(0, 1)) == pytest.approx(2.0)


class TestTerminations:
    def test_zero_cycle_horizon(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, max_cycles=0)
        metrics = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)]).run()
        assert metrics.cycles == []
        assert all(v is None for v in metrics.milestones.values())
        assert metrics.termination == "max_cycles"

    def test_source_death_terminates_with_partial_metrics(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, max_cycles=50, initial_energy=0.012,
                        energy_threshold=0.01)
        metrics = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)]).run()
        assert metrics.termination == "source_dead"
        assert 1 <= len(metrics.cycles) < 50

    def test_sink_unreachable_terminates(self):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=10)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])
        sim.energy[1] = 0.0  # the only bridge to the sink is dead
        metrics = sim.run()
        assert metrics.termination == "sink_unreachable"
        assert metrics.cycles == []


class TestRovingSource:
    def test_sources_are_honest_and_alive(self):
        cfg = SimConfig(node_count=20, max_cycles=30, source_policy="random_per_round",
                        rng_seed=3,
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.3, p=1.0),))
        sim = Simulation(cfg, log_routes=True)
        sim.run()
        # drop faults create no fakes: every packet was generated by a source
        origins = {trail[0] for _, _, trail in seen_packets(sim)}
        assert origins
        assert not origins & set(sim.faults)

    def test_source_pool_is_rebuilt_only_when_a_node_dies(self, monkeypatch):
        from tcaco import engine
        searches = []

        def counting_hops_from(*args):
            searches.append(args)
            return real_hops_from(*args)

        real_hops_from = engine.hops_from
        monkeypatch.setattr(engine, "hops_from", counting_hops_from)
        metrics = Simulation(SimConfig(**DYING), seed=4).run()
        # the pool is built for the dead count each cycle starts with
        start_counts = {0, *metrics.dead_counts()[:-1]}
        assert len(start_counts) > 3
        assert len(searches) == len(start_counts)

    def test_levels_are_searched_once_per_source_until_a_node_dies(self, monkeypatch):
        """Each source's levels are searched once per death epoch, and the
        cache holds at most one compact array of n + 1 levels per pool
        source."""
        from tcaco import engine
        searches, drawn = [], []

        def counting_assign_levels(*args):
            searches.append(args[1])
            return real_assign_levels(*args)

        def checked_ensure_levels(sim, source):
            # the dead count a cycle starts with names its death epoch
            drawn.append((source, sim._dead_count))
            real_ensure_levels(sim, source)
            cache = sim._level_cache
            assert source in cache and len(cache) <= len(sim._source_pool), sim.cycle
            for levels in cache.values():
                assert isinstance(levels, array) and levels.typecode == "H", sim.cycle
                assert len(levels) == sim.cfg.node_count + 1, sim.cycle

        real_assign_levels = engine.assign_levels
        real_ensure_levels = Simulation._ensure_levels
        monkeypatch.setattr(engine, "assign_levels", counting_assign_levels)
        monkeypatch.setattr(Simulation, "_ensure_levels", checked_ensure_levels)
        metrics = Simulation(SimConfig(**DYING), seed=4).run()
        assert len({dead for _, dead in drawn}) > 3
        assert len(searches) == len(set(drawn)) < len(drawn) == len(metrics.cycles)

    def test_explicit_fault_on_fixed_source_rejected(self):
        cfg = SimConfig(node_count=5, source_node=2, max_cycles=5,
                        bs_position=(40.0, 20.0),
                        fault_spec=(FaultSpec(behavior="drop", nodes=(2,), p=1.0),))
        with pytest.raises(ValueError, match="source"):
            Simulation(cfg, positions=[(0, 0), (10, 0), (20, 0), (30, 0), (40, 0)])

    def test_listed_nodes_stay_out_of_fraction_pools(self):
        # the delay entry comes second, so the drop sample could draw node 3
        cfg = SimConfig(node_count=20, source_policy="random_per_round",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.5),
                                    FaultSpec(behavior="delay", nodes=(3,))))
        for seed in range(1, 21):
            faults = Simulation(cfg, seed=seed).faults
            drops = [k for k, f in faults.items() if f.behavior == "drop"]
            assert len(drops) == 10 and 3 not in drops, seed
            assert faults[3].behavior == "delay", seed


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        cfg = SimConfig(node_count=25, max_cycles=60, source_policy="random_per_round",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))
        a = run_simulation(cfg, seed=11)
        b = run_simulation(cfg, seed=11)
        assert a.cycles == b.cycles
        assert a.milestones == b.milestones
        assert a.termination == b.termination

    def test_roulette_mode_deterministic_too(self):
        cfg = SimConfig(node_count=15, max_cycles=30,
                        forwarding_mode="stochastic_roulette")
        a = run_simulation(cfg, seed=5)
        b = run_simulation(cfg, seed=5)
        assert a.cycles == b.cycles


class TestPerNodeLedger:
    def test_accepted_equals_departed_plus_terminal_plus_queued(self):
        """Every packet accepted into a buffer leaves by forwarding, by a
        terminal drop at that holder, or is still queued at the end."""
        from collections import Counter
        cfg = SimConfig(node_count=25, max_cycles=60, source_policy="random_per_round",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.15, p=0.9),
                                    FaultSpec(behavior="duplicate", fraction=0.1, copies=2),
                                    FaultSpec(behavior="flood", fraction=0.1, rate=4),
                                    FaultSpec(behavior="delay", fraction=0.1, extra=1)))
        sim = Simulation(cfg, seed=17, log_routes=True)
        metrics = sim.run()
        bs = sim.bs
        accepted = Counter()
        departed = Counter()
        terminal = Counter()
        # every packet generated is seen exactly once
        packets = seen_packets(sim)
        totals = conserved_totals(metrics)
        assert len({pid for pid, _, _ in packets}) == len(packets) == totals["generated"]
        assert totals[DROPPED_OVERFLOW] > 0
        for _, fate, trail in packets:
            if fate == DROPPED_OVERFLOW:
                continue   # refused at the door, never queued anywhere
            accepted.update(h for h in trail if h != bs)
            for a, _ in zip(trail, trail[1:]):
                departed[a] += 1
            if fate in ("dropped_timeout", "dropped_malicious") and trail[-1] != bs:
                terminal[trail[-1]] += 1
        for k in range(cfg.node_count):
            assert accepted[k] == departed[k] + terminal[k] + len(sim.queues[k]), k


class TestForwardLimit:
    def test_per_cycle_forward_limit_caps_throughput(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, packets_per_round=6, max_cycles=1,
                        per_cycle_forward_limit=2)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        row = sim.run_cycle()
        assert row.delivered == 2
        assert row.in_flight == 4

    def test_over_capacity_source_buffer_has_no_free_space(self):
        """Generation can fill the source's buffer past the capacity; its
        recorded free space is then 0, never negative."""
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, queue_capacity=5, packets_per_round=20,
                        max_cycles=1, per_cycle_forward_limit=2)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        sim.run_cycle()
        assert len(sim.queues[0]) == 18 > cfg.queue_capacity
        assert sim.flow._free[0] == 0
        assert 0.0 <= sim.flow.congestion_index(0) <= 1.0


class TestSweep:
    """The forwarding sweep visits each levelled node that holds a packet at
    its turn once, in ascending (level, id), and never an empty queue."""

    @pytest.mark.parametrize("protocol,mode", [("dist_aco", "stochastic_roulette"),
                                               ("tc_aco", "deterministic_rank")])
    def test_visits_exactly_the_nodes_holding_packets(self, monkeypatch, protocol, mode):
        cfg = SimConfig(**{**TestRouteLog.STORM, "node_count": 40, "packets_per_round": 30,
                           "max_cycles": 40, "forwarding_mode": mode})
        forward, age = Simulation._forward_from, Simulation._age_queues
        visits = []   # (level, id, queue length) per _forward_from call this cycle
        totals = Counter()

        def logged_forward(sim, i, level_i):
            visits.append((level_i, i, len(sim.queues[i])))
            forward(sim, i, level_i)

        def checked_age(sim):
            keys = [(level_i, i) for level_i, i, _ in visits]
            assert keys == sorted(set(keys)), sim.cycle
            assert all(held for _, _, held in visits), sim.cycle
            # a queue gains packets only from the level before its own, so one
            # that is not empty now was not empty at its turn either
            levelled = {i for i, lvl in enumerate(sim.levels[:-1]) if lvl != UNREACHED}
            skipped = levelled - {i for _, i, _ in visits}
            assert not any(sim.queues[i] for i in skipped), sim.cycle
            totals["visits"] += len(visits)
            totals["skipped"] += len(skipped)
            visits.clear()
            age(sim)

        monkeypatch.setattr(Simulation, "_forward_from", logged_forward)
        monkeypatch.setattr(Simulation, "_age_queues", checked_age)
        metrics = Simulation(cfg, protocol=protocol, seed=5).run()
        assert len(metrics.cycles) > 10
        assert totals["visits"] > 10 * len(metrics.cycles) and totals["skipped"] > 0


class TestAckEnergy:
    def test_both_ends_pay_for_acknowledgements(self):
        from tcaco.energy import rx_cost
        base = dict(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                    source_node=0, packets_per_round=1, max_cycles=1)
        layout = [(0.0, 0.0), (30.0, 0.0)]
        quiet = Simulation(SimConfig(**base, ack_size_fraction=0.0), positions=layout)
        quiet.run_cycle()
        paying = Simulation(SimConfig(**base, ack_size_fraction=0.1), positions=layout)
        paying.run_cycle()
        # relay pays the ack transmission plus the sink-ack reception,
        # source pays the ack reception
        assert paying.energy[1] < quiet.energy[1]
        expected_source_delta = rx_cost(paying.ack_bits, paying.cfg)
        got_delta = quiet.energy[0] - paying.energy[0]
        assert got_delta == pytest.approx(expected_source_delta, abs=1e-12)


class TestLiteralPolarities:
    def test_literal_modes_run_and_stay_conservative(self):
        cfg = SimConfig(node_count=20, max_cycles=30, source_policy="random_per_round",
                        congestion_polarity="literal", latency_polarity="literal",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))
        metrics = run_simulation(cfg, seed=8)
        assert len(metrics.cycles) > 0
        conserved_totals(metrics)


class TestConservationSmall:
    def test_mixed_fault_run_conserves_and_monotone(self):
        cfg = SimConfig(node_count=25, max_cycles=80, source_policy="random_per_round",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.15, p=0.9),
                                    FaultSpec(behavior="flood", fraction=0.1, rate=2),
                                    FaultSpec(behavior="delay", fraction=0.1, extra=1)))
        metrics = run_simulation(cfg, seed=13)
        conserved_totals(metrics)
        energies = [r.total_energy_j for r in metrics.cycles]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        deads = [r.dead_nodes for r in metrics.cycles]
        assert all(b >= a for a, b in zip(deads, deads[1:]))


class TestTrustTableAgreement:
    @pytest.mark.parametrize("polarity", ["normalized", "literal"])
    def test_engine_recompute_matches_contract_functions(self, polarity):
        """The engine's grouped trust rows equal the per-link reference functions."""
        cfg = SimConfig(node_count=20, max_cycles=12, source_policy="random_per_round",
                        latency_polarity=polarity,
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.9),
                                    FaultSpec(behavior="delay", fraction=0.1, extra=2),
                                    FaultSpec(behavior="duplicate", fraction=0.1,
                                              copies=2)))
        sim = Simulation(cfg, seed=6)
        sim.run()
        levels = sim.levels
        partial_scores = 0
        for i, rows in sim.trust.rows():
            for j, ne, ptr, pl, t_ij in rows:
                assert t_ij == sim.trust.link(i, j), (i, j)
                e_j = cfg.initial_energy if j == sim.bs else sim.energy[j]
                peers = [k for k in sim.topology.adjacency[i] if levels[k] == levels[j]]
                want = (energy_metric(sim.energy[i], e_j, cfg.initial_energy),
                        packet_transmission_ratio(sim.stats, i, j),
                        latency_score(sim.stats, i, j, peers, polarity,
                                      reference=float(cfg.wc_max)))
                assert (ne, ptr, pl) == pytest.approx(want, abs=1e-9), (i, j)
                assert t_ij == pytest.approx(
                    blend(*want, trust_weights(cfg.a1, cfg.a2, cfg.a3)), abs=1e-9), (i, j)
                partial_scores += 0.0 < pl < 1.0
        assert partial_scores > 0   # the peer comparison itself was exercised


class TestBaselines:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_simulation(SimConfig(node_count=5, max_cycles=1), "dijkstra")

    def test_dist_aco_routes_through_malicious_tc_aco_does_not(self):
        cfg = SimConfig(node_count=50, max_cycles=60,
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=1.0),))
        tc = run_simulation(cfg, protocol="tc_aco", seed=22)
        da = run_simulation(cfg, protocol="dist_aco", seed=22)
        tc_late = sum(r.forwarded_to_malicious for r in tc.cycles[10:])
        da_total = sum(r.forwarded_to_malicious for r in da.cycles)
        assert tc_late == 0
        assert da_total > 0

    def test_alpha_zero_reduces_tcm_to_trust(self):
        cfg = SimConfig(node_count=10, field_width=80.0, field_height=80.0,
                        max_cycles=10, alpha=0.0)
        metrics = run_simulation(cfg, seed=2)
        assert len(metrics.cycles) == 10


class TestBoundedState:
    def test_flow_and_topology_state_does_not_grow_with_cycles(self):
        """Cycles 101-400 of the lifetime config add (almost) nothing that
        congestion.py or topology.py allocated."""
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "lifetime_experiment.json")
        spec = load_experiment(config, build_parser().parse_args([]))
        watched = [tracemalloc.Filter(True, congestion.__file__),
                   tracemalloc.Filter(True, topology.__file__)]
        tracemalloc.start()
        try:
            sim = Simulation(spec.config, protocol="tc_aco", seed=1)
            for _ in range(100):
                sim.run_cycle()
            before = tracemalloc.take_snapshot().filter_traces(watched)
            for _ in range(300):
                sim.run_cycle()
            after = tracemalloc.take_snapshot().filter_traces(watched)
        finally:
            tracemalloc.stop()
        assert spec.config.node_count == 50 and sim.cycle == 400
        growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert growth < 32 * 1024, f"{growth} bytes"


class TestRouteLog:
    """One storm-benchmark job (dist_aco, n=100, 300 cycles, seed 9): flood
    faults overflow their victims' buffers, and 37,738 packets end."""

    STORM = dict(node_count=100, source_policy="random_per_round",
                 forwarding_mode="stochastic_roulette", packets_per_round=100,
                 max_cycles=300,
                 fault_spec=(FaultSpec(behavior="flood", fraction=0.05, rate=4),
                             FaultSpec(behavior="duplicate", fraction=0.05, copies=3),
                             FaultSpec(behavior="delay", fraction=0.05, extra=2),
                             FaultSpec(behavior="drop", fraction=0.05, p=0.5)))

    @pytest.fixture(scope="class")
    def storm(self):
        """The job's metrics and route lines, the lines logged over its last
        50 cycles, the bytes the log held for them (what draining it with
        ``route_dump_text`` frees, the text it returns added back, traced
        while they were made), and what a second drain returns."""
        sim = Simulation(SimConfig(**self.STORM), protocol="dist_aco", seed=9,
                         log_routes=True)
        for _ in range(250):
            sim.run_cycle()
        early = route_dump_text(sim)
        tracemalloc.start()
        try:
            metrics = sim.run()
            logged = len(sim.route_log)
            held = tracemalloc.get_traced_memory()[0]
            late = route_dump_text(sim)
            freed = held - tracemalloc.get_traced_memory()[0] + sys.getsizeof(late)
        finally:
            tracemalloc.stop()
        lines = parse_routes(early + late)
        return metrics, lines, logged, freed, route_dump_text(sim)

    def test_every_terminal_packet_has_one_line(self, storm):
        metrics, lines, _, _, _ = storm
        totals = conserved_totals(metrics)
        assert len(metrics.cycles) == 300 and totals[DROPPED_OVERFLOW] > 0
        assert len({pid for pid, _, _ in lines}) == len(lines)
        fates = Counter(fate for _, fate, _ in lines)
        assert fates == Counter({fate: totals[fate] for fate in TERMINAL_FATES})

    def test_route_log_retains_only_text(self, storm):
        _, _, logged, freed, drained_again = storm
        assert logged > 5000
        assert freed <= 150 * logged, f"{freed / logged:.0f} bytes per line"
        assert drained_again == ""


class TestKeptCounters:
    """The alive flags, dead count, live adjacency, in-flight count, occupied
    set and flow history that the engine keeps from the nodes each cycle
    touches equal a full recomputation over every node after every cycle,
    and a death clears the source pool, the levels' source and the level
    cache."""

    CASES = {
        "dying": ("tc_aco", DYING),
        "storm": ("dist_aco", {**TestRouteLog.STORM, "node_count": 40,
                               "packets_per_round": 30, "max_cycles": 80,
                               "initial_energy": 0.2}),
        "congestion_window": ("tc_aco", {**DYING, "congestion_window": 3,
                                         "max_cycles": 120}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_kept_values_equal_a_full_recomputation(self, case):
        protocol, params = self.CASES[case]
        cfg = SimConfig(**params)
        sim = Simulation(cfg, protocol=protocol, seed=4)
        n, th, window = cfg.node_count, cfg.energy_threshold, cfg.congestion_window
        in_rows, out_rows = [], []
        deaths = 0
        while sim.cycle < cfg.max_cycles:
            alive_before = [e >= th for e in sim.energy]
            try:
                row = sim.run_cycle()
            except (SourceDead, DisconnectedNetwork):
                break
            alive = [e >= th for e in sim.energy]
            deaths += alive != alive_before
            assert sim._alive == alive, sim.cycle
            assert sim._dead_count == row.dead_nodes == n - sum(alive), sim.cycle
            assert sim._live == live_adjacency(sim.topology, alive), sim.cycle
            if alive != alive_before:
                assert sim._source_pool is None and sim._levels_source is None, sim.cycle
                assert sim._level_cache == {}, sim.cycle
            assert sim._in_flight == row.in_flight == sum(map(len, sim.queues)), sim.cycle
            assert sim._occupied == {k for k, q in enumerate(sim.queues) if q}, sim.cycle

            # dense replay of the flow history from this cycle's maps
            in_rows.append([sim._inflow_now.get(k, 0) for k in range(n)])
            out_rows.append([sum(sim._sent_now.get(k, {}).values()) for k in range(n)])
            span = slice(None) if window is None else slice(-window, None)
            assert sim.flow._in_sum == [sum(c) for c in zip(*in_rows[span])], sim.cycle
            assert sim.flow._out_sum == [sum(c) for c in zip(*out_rows[span])], sim.cycle
            assert sim.flow._free == [max(0, cfg.queue_capacity - len(q))
                                      for q in sim.queues], sim.cycle
        assert sim.cycle > 40 and deaths > 0
        assert any(row.in_flight for row in sim.metric_rows)


def all_trust(sim):
    """``sim.trust.rows()`` as a map of link -> t_ij."""
    return {(i, j): t_ij for i, rows in sim.trust.rows() for j, _, _, _, t_ij in rows}


class TestIncrementalTrust:
    """The engine reads trust on demand from the state of the end of the
    last cycle; after every cycle each link must read as the full
    recomputation and each node's verdict as ``classify``."""

    GOLDEN_CASES = [f"{protocol}_{mode}" for protocol in PROTOCOLS
                    for mode in ("deterministic_rank", "stochastic_roulette")] + [
        "fault_drop", "fault_duplicate", "fault_flood", "fault_delay",
        "literal_polarities", "congestion_window", "fixed_source"]

    # light traffic on a wide network: most rows keep their energies and
    # evidence from one cycle to the next while the rotating source moves
    # the levels, so only the level grouping changes their latency scores
    SPARSE = dict(node_count=60, field_width=300.0, field_height=300.0,
                  packets_per_round=2, max_cycles=150, source_policy="random_per_round",
                  fault_spec=(FaultSpec(behavior="delay", fraction=0.2, extra=2),))

    @staticmethod
    def run_checked(sim):
        """Run ``sim`` to its end, checking after every cycle that every
        link's trust and every node's verdict read as the full
        recomputation."""
        cfg = sim.cfg
        while sim.cycle < cfg.max_cycles:
            try:
                sim.run_cycle()
            except (SourceDead, DisconnectedNetwork):
                break
            full = all_trust(sim)
            assert {link: sim.trust.link(*link) for link in full} == full, sim.cycle
            assert node_class(sim) == classify(full, sim.stats, cfg.trust_threshold,
                                               cfg.node_count), sim.cycle
        return sim

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_golden_case_matches_full_recompute(self, name):
        from test_golden import case_simulation
        sim = self.run_checked(case_simulation(name))
        assert sim.cycle > 10

    def test_sparse_traffic_matches_full_recompute(self):
        sim = self.run_checked(Simulation(SimConfig(**self.SPARSE), seed=3))
        assert sim.cycle == 150

    def test_run_where_nodes_die_matches_full_recompute(self):
        sim = self.run_checked(Simulation(SimConfig(**DYING), seed=4))
        assert sum(e < sim.cfg.energy_threshold for e in sim.energy) >= 5

    def test_first_send_on_an_untrustworthy_link_does_not_vouch(self):
        cfg = SimConfig(**{**self.SPARSE, "trust_threshold": 0.8, "fault_spec": ()})
        sim = Simulation(cfg, seed=3)
        # at 0.3 of their energy, links between nodes without evidence score
        # (0.3 + 1 + 1) / 3 < 0.8; the snapshot takes up the energy written
        # before the first cycle
        sim.energy[:] = [e * 0.3 for e in sim.energy]
        sim.run_cycle()
        adjacency = sim.topology.adjacency
        i, j = next((i, j) for i in range(cfg.node_count) for j in adjacency[i]
                    if j != sim.bs and not any(sim.stats.link(k, j).packets_sent
                                               for k in adjacency[j]))
        assert sim.trust.link(i, j) <= cfg.trust_threshold
        assert node_class(sim)[j] != MALICIOUS_NODE
        sim.stats.record_send(i, j)
        sim.stats.record_ack(i, j)
        # take the snapshot of the end of the cycle again; _recompute_trust
        # would record the cycle's ledger a second time
        sim.trust.take(sim.trust.levels, sim.trust.energies)
        assert sim.trust.link(i, j) <= cfg.trust_threshold
        assert node_class(sim) == classify(all_trust(sim), sim.stats,
                                           cfg.trust_threshold, cfg.node_count)
        assert node_class(sim)[j] == MALICIOUS_NODE


class TestTrustReadsAtCycleStart:
    """Every trust value and verdict routing reads during cycle c equals
    ``sim.trust.rows()``/``classify`` taken right after cycle c-1 (before
    cycle 1: every link 1.0, every node trusted)."""

    # many delayed packets are delivered while the sweep is under way, so
    # some verdicts read links whose rows gained latency evidence earlier in
    # the same cycle
    CFG = dict(node_count=30, field_width=140.0, field_height=140.0,
               packets_per_round=15, max_cycles=100, wc_max=4,
               source_policy="random_per_round",
               fault_spec=(FaultSpec(behavior="drop", fraction=0.1, p=0.5),
                           FaultSpec(behavior="delay", fraction=0.3, extra=1)))

    @pytest.mark.parametrize("protocol", ["tc_aco", "trust_greedy"])
    def test_reads_equal_the_previous_cycles_recomputation(self, protocol):
        cfg = SimConfig(**self.CFG)
        th = cfg.trust_threshold
        sim = Simulation(cfg, protocol=protocol, seed=4)
        reader = sim.trust
        trust, trusted, malicious = reader.link, reader.trusted, reader.malicious
        read_t, read_th, read_v = [], [], []

        def recording_trust(i, j):
            read_t.append(((i, j), trust(i, j)))
            return read_t[-1][1]

        def recording_trusted(i, j):
            read_th.append(((i, j), trusted(i, j)))
            return read_th[-1][1]

        def recording_malicious(j):
            read_v.append((j, malicious(j)))
            return read_v[-1][1]

        reader.link, reader.trusted = recording_trust, recording_trusted
        reader.malicious = recording_malicious
        reads = tests = flagged = 0
        while sim.cycle < cfg.max_cycles:
            full = all_trust(sim)
            verdict = classify(full, sim.stats, th, cfg.node_count)
            read_t.clear()
            read_th.clear()
            read_v.clear()
            sim.run_cycle()
            assert all(t_ij == full[link] for link, t_ij in read_t), sim.cycle
            assert all(passed == (full[link] > th) for link, passed in read_th), sim.cycle
            assert all(verdict[j] == (MALICIOUS_NODE if flag else TRUSTED_NODE)
                       for j, flag in read_v), sim.cycle
            reads += len(read_t)
            tests += len(read_th)
            flagged += any(flag for _, flag in read_v)
        # tc_aco reads the exact trust of the candidates that pass; the
        # trust_greedy filter needs only the threshold tests
        assert tests and flagged and (reads > 0) == (protocol == "tc_aco")

    @pytest.mark.parametrize("protocol", ["tc_aco", "trust_greedy"])
    def test_verdicts_kept_through_the_cycle_equal_the_reference(self, protocol):
        """A verdict is made once per snapshot and kept until the next: at
        step 8, the verdicts routing made during the cycle, read again with
        every other node's, equal ``classify`` over the snapshot they were
        made from."""
        cfg = SimConfig(**self.CFG)
        sim = Simulation(cfg, protocol=protocol, seed=4)
        recompute, reference, kept = sim._recompute_trust, {}, []

        def checked_recompute():
            kept.append(len(sim.trust._verdicts))
            assert node_class(sim) == reference, sim.cycle
            recompute()

        sim._recompute_trust = checked_recompute
        while sim.cycle < cfg.max_cycles:
            reference.clear()
            reference.update(classify(all_trust(sim), sim.stats, cfg.trust_threshold,
                                      cfg.node_count))
            sim.run_cycle()
        assert len(kept) == cfg.max_cycles and sum(kept) > cfg.max_cycles

    def test_level_groups_are_summed_at_most_once_between_snapshots(self, monkeypatch):
        """Between two ``take`` calls, the reads sum each (row, level) group
        of latencies at most once: the memo the reader keeps. A sum walks
        ``stats.timed[i]``, the only read of that index by key."""
        take, level_group, link, trusted = (TrustReads.take, TrustReads.level_group,
                                            TrustReads.link, TrustReads.trusted)
        asked, totals = set(), Counter()
        walks, summed = [], []

        class CountedRows(dict):
            def __getitem__(self, i):
                walks.append(i)
                return dict.__getitem__(self, i)

        def counted_take(reads, levels, energies):
            summed.append((len(walks), len(asked)))
            asked.clear()
            walks.clear()
            take(reads, levels, energies)

        def counted_group(reads, i, level):
            asked.add((i, level))
            return level_group(reads, i, level)

        def counted_link(reads, i, j):
            totals["reads"] += 1
            return link(reads, i, j)

        def counted_trusted(reads, i, j):
            totals["reads"] += 1
            return trusted(reads, i, j)

        monkeypatch.setattr(TrustReads, "take", counted_take)
        monkeypatch.setattr(TrustReads, "level_group", counted_group)
        monkeypatch.setattr(TrustReads, "link", counted_link)
        monkeypatch.setattr(TrustReads, "trusted", counted_trusted)
        sim = Simulation(SimConfig(**self.CFG), protocol="tc_aco", seed=4)
        sim.stats.timed = CountedRows()
        metrics = sim.run()
        assert len(metrics.cycles) == self.CFG["max_cycles"]
        # per snapshot, one walk for each distinct group asked for
        assert all(n_walks == n_asked for n_walks, n_asked in summed)
        groups = sum(n_walks for n_walks, _ in summed)
        assert 0 < groups < totals["reads"] / 2
