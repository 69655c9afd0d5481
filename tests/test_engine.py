"""Per-cycle state machine, fault behaviors, terminations, determinism, and
bounded stored state."""

import os
import tracemalloc

import pytest

from tcaco import congestion, topology
from tcaco.cli import build_parser, load_experiment
from tcaco.config import FaultSpec, SimConfig
from tcaco.engine import (PROTOCOLS, Simulation, SourceDead, deploy_nodes,
                          extract_milestones, run_simulation)
from tcaco.energy import tx_cost
from tcaco.topology import DisconnectedNetwork
from tcaco.trust import MALICIOUS_NODE, TRUSTED_NODE
import random


def total_counts(metrics):
    gen = dele = dov = dti = dma = 0
    for r in metrics.cycles:
        gen += r.generated
        dele += r.delivered
        dov += r.dropped_overflow
        dti += r.dropped_timeout
        dma += r.dropped_malicious
    return gen, dele, dov, dti, dma


# low battery under a rotating source: nodes die well inside the horizon
DYING = dict(node_count=30, field_width=120.0, field_height=120.0, packets_per_round=8,
             max_cycles=200, initial_energy=0.02, source_policy="random_per_round",
             fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))


def seen_packets(sim):
    """Every packet that reached a terminal fate other than overflow, or is
    still queued; needs ``log_routes=True``."""
    return ([p for _, p in sim.route_log]
            + [p for q in sim.queues for p in q.entries])


def assert_conserved(metrics):
    gen = dele = dov = dti = dma = 0
    for r in metrics.cycles:
        gen += r.generated
        dele += r.delivered
        dov += r.dropped_overflow
        dti += r.dropped_timeout
        dma += r.dropped_malicious
        assert gen == dele + dov + dti + dma + r.in_flight, f"cycle {r.cycle}"


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


class TestTwoNodeDelivery:
    def test_whole_generation_delivered_in_one_cycle(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, ack_size_fraction=0.0, max_cycles=1)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        row = sim.run_cycle()
        assert row.delivered == cfg.packets_per_round
        assert row.in_flight == 0
        expected = 1.0 - cfg.packets_per_round * tx_cost(
            cfg.packet_size_bits, 10.0, cfg.radio_params())
        assert sim.nodes[0].energy == pytest.approx(expected, abs=1e-12)

    def test_generation_not_bound_by_buffer_capacity(self):
        cfg = SimConfig(node_count=2, radio_range=60.0, bs_position=(10.0, 0.0),
                        source_node=0, queue_capacity=5, packets_per_round=20,
                        max_cycles=1)
        sim = Simulation(cfg, positions=[(0.0, 0.0), (50.0, 50.0)])
        row = sim.run_cycle()
        assert row.generated == 20
        assert row.dropped_overflow == 0
        assert row.delivered == 20


class TestDropRelay:
    def chain(self, p=1.0, cycles=12):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=cycles,
                        fault_spec=(FaultSpec(behavior="drop", nodes=(1,), p=p),))
        return Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])

    def test_no_alternative_blackhole_kills_delivery(self):
        sim = self.chain()
        metrics = sim.run()
        gen, dele, dov, dti, dma = total_counts(metrics)
        assert dele == 0
        assert dma > 0 or dti > 0  # abandoned after retries or aged out
        assert_conserved(metrics)

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
        assert sim.trust_table[(0, 1)] < sim.cfg.trust_threshold
        assert sim.node_class[1] == "malicious"


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
        assert_conserved(metrics)

    def test_flood_can_starve_a_relay_without_delivery_credit(self):
        from tcaco.model import DELIVERED
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
        gen, dele, dov, dti, dma = total_counts(metrics)
        assert dele == 0          # the attack starves the only route
        assert dma > 0            # absorbed fakes earn no delivery credit
        packets = seen_packets(sim)
        assert any(p.fake for p in packets)
        assert not any(p.fake and p.fate == DELIVERED for p in packets)
        assert_conserved(metrics)
        # the attacker pays transmission energy for every emitted fake
        assert sim.nodes[2].energy < cfg.initial_energy

    def test_duplicate_spawns_clones_without_delivery_credit(self):
        cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                        source_node=0, max_cycles=4, packets_per_round=4,
                        fault_spec=(FaultSpec(behavior="duplicate", nodes=(1,), copies=3),))
        sim = Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0)])
        metrics = sim.run()
        gen, dele, dov, dti, dma = total_counts(metrics)
        assert gen > metrics.cycles[-1].cycle * 4  # clones inflate generation
        assert dele == 4 * len(metrics.cycles)     # only originals count
        assert_conserved(metrics)

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
        assert sim.stats.link(0, 1).mean_latency() == pytest.approx(2.0)


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
        sim.nodes[1].energy = 0.0  # the only bridge to the sink is dead
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
        origins = {p.origin for p in seen_packets(sim) if not p.fake}
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

    def test_explicit_fault_on_fixed_source_rejected(self):
        cfg = SimConfig(node_count=5, source_node=2, max_cycles=5,
                        bs_position=(40.0, 20.0),
                        fault_spec=(FaultSpec(behavior="drop", nodes=(2,), p=1.0),))
        with pytest.raises(ValueError, match="source"):
            Simulation(cfg, positions=[(0, 0), (10, 0), (20, 0), (30, 0), (40, 0)])


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
        # overflow drops were refused at the door and never sat in any
        # queue; every other packet generated is seen exactly once
        packets = seen_packets(sim)
        gen, _, overflow, _, _ = total_counts(metrics)
        assert len({p.id for p in packets}) == len(packets) == gen - overflow
        for p in packets:
            trail = p.hop_trail
            accepted.update(h for h in trail if h != bs)
            for a, _ in zip(trail, trail[1:]):
                departed[a] += 1
            if p.fate in ("dropped_timeout", "dropped_malicious") and trail[-1] != bs:
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
        assert paying.nodes[1].energy < quiet.nodes[1].energy
        params = paying.radio_params
        expected_source_delta = rx_cost(paying.ack_bits, params)
        got_delta = quiet.nodes[0].energy - paying.nodes[0].energy
        assert got_delta == pytest.approx(expected_source_delta, abs=1e-12)


class TestLiteralPolarities:
    def test_literal_modes_run_and_stay_conservative(self):
        cfg = SimConfig(node_count=20, max_cycles=30, source_policy="random_per_round",
                        congestion_polarity="literal", latency_polarity="literal",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))
        metrics = run_simulation(cfg, seed=8)
        assert len(metrics.cycles) > 0
        gen = dele = dov = dti = dma = 0
        for r in metrics.cycles:
            gen += r.generated
            dele += r.delivered
            dov += r.dropped_overflow
            dti += r.dropped_timeout
            dma += r.dropped_malicious
            assert gen == dele + dov + dti + dma + r.in_flight


class TestConservationSmall:
    def test_mixed_fault_run_conserves_and_monotone(self):
        cfg = SimConfig(node_count=25, max_cycles=80, source_policy="random_per_round",
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.15, p=0.9),
                                    FaultSpec(behavior="flood", fraction=0.1, rate=2),
                                    FaultSpec(behavior="delay", fraction=0.1, extra=1)))
        metrics = run_simulation(cfg, seed=13)
        assert_conserved(metrics)
        energies = [r.total_energy_j for r in metrics.cycles]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        deads = [r.dead_nodes for r in metrics.cycles]
        assert all(b >= a for a, b in zip(deads, deads[1:]))


class TestTrustTableAgreement:
    @pytest.mark.parametrize("polarity", ["normalized", "literal"])
    def test_engine_recompute_matches_contract_functions(self, polarity):
        """The engine's grouped trust rows equal the per-link reference functions."""
        from tcaco.trust import (compute_trust, energy_metric, latency_score,
                                 packet_transmission_ratio)
        cfg = SimConfig(node_count=20, max_cycles=12, source_policy="random_per_round",
                        latency_polarity=polarity,
                        fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.9),
                                    FaultSpec(behavior="delay", fraction=0.1, extra=2),
                                    FaultSpec(behavior="duplicate", fraction=0.1,
                                              copies=2)))
        sim = Simulation(cfg, seed=6)
        sim.run()
        levels = sim.levels.levels
        bs_level = sim.levels.bs_level
        partial_scores = 0
        for i, rows in sim.trust_rows():
            for j, ne, ptr, pl, t_ij in rows:
                assert t_ij == sim.trust_table[(i, j)], (i, j)
                e_j = cfg.initial_energy if j == sim.bs else sim.nodes[j].energy
                lvl_j = bs_level if j == sim.bs else levels[j]
                peers = [k for k in sim.topology.adjacency[i]
                         if (bs_level if k == sim.bs else levels[k]) == lvl_j]
                want = (energy_metric(sim.nodes[i].energy, e_j, cfg.initial_energy),
                        packet_transmission_ratio(sim.stats, i, j),
                        latency_score(sim.stats, i, j, peers, polarity,
                                      reference=float(cfg.wc_max)))
                assert (ne, ptr, pl) == pytest.approx(want, abs=1e-9), (i, j)
                assert t_ij == pytest.approx(
                    compute_trust(*want, cfg.a1, cfg.a2, cfg.a3), abs=1e-9), (i, j)
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


def full_verdict(table, stats, t_th, node_count):
    """The node verdict over every link of the table, evidence or not."""
    evidenced, vouched = set(), set()
    for (i, j), t_ij in table.items():
        if stats.link(i, j).packets_sent:
            evidenced.add(j)
            if t_ij > t_th:
                vouched.add(j)
    return {j: MALICIOUS_NODE if j in evidenced - vouched else TRUSTED_NODE
            for j in range(node_count)}


class TestIncrementalTrust:
    """The engine refreshes only trust rows whose inputs changed; after every
    cycle its table and verdict must equal the full recomputation."""

    GOLDEN_CASES = [f"{protocol}_{mode}" for protocol in ("tc_aco", "trust_greedy")
                    for mode in ("deterministic_rank", "stochastic_roulette")] + [
        "fault_drop", "fault_duplicate", "fault_flood", "fault_delay",
        "literal_polarities", "congestion_window"]

    # light traffic on a wide network: most rows keep their energies and
    # evidence from one cycle to the next while the rotating source moves
    # the levels, so only the level-grouping rule catches their changes
    SPARSE = dict(node_count=60, field_width=300.0, field_height=300.0,
                  packets_per_round=2, max_cycles=150, source_policy="random_per_round",
                  fault_spec=(FaultSpec(behavior="delay", fraction=0.2, extra=2),))

    @staticmethod
    def run_checked(sim):
        cfg = sim.cfg
        while sim.cycle < cfg.max_cycles:
            try:
                sim.run_cycle()
            except (SourceDead, DisconnectedNetwork):
                break
            full = {(i, j): t_ij for i, rows in sim.trust_rows()
                    for j, _, _, _, t_ij in rows}
            assert sim.trust_table == full, sim.cycle
            assert sim.node_class == full_verdict(full, sim.stats, cfg.trust_threshold,
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
        assert sum(not node.alive for node in sim.nodes) >= 5
