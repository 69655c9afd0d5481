"""Level assignment, candidate scoring, hop selection, pheromone update."""

import bisect
import copy
import math
import random
import sys
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaco.routing import (UNREACHED, UNREACHED_WIDE, PheromoneTable, assign_levels,
                           left_sum, level_form, live_adjacency, rank_by_probability,
                           roulette_wheel, select_next_hop, transition_probabilities,
                           trust_congestion_metric)
from tcaco.topology import DisconnectedNetwork, Topology, build_topology


def chain_topology():
    # a(0) - b(1) - c(2) - BS, spaced 10 apart, range 12
    return build_topology([(0, 0), (10, 0), (20, 0)], (30, 0), 12.0)


class TestLevels:
    def test_chain_levels(self):
        # indexed by endpoint id, the sink's level last
        assert assign_levels(chain_topology(), source=0) == [0, 1, 2, 3]

    def test_source_neighbors_are_level_one(self):
        topo = build_topology([(0, 0), (5, 0), (0, 5), (3, 3)], (6, 6), 8.0)
        levels = assign_levels(topo, source=0)
        for j in topo.adjacency[0]:
            if j != topo.bs_id:
                assert levels[j] == 1

    def test_out_of_range_node_unreachable(self):
        topo = build_topology([(0, 0), (10, 0), (200, 200)], (15, 0), 12.0)
        levels = assign_levels(topo, source=0)
        assert levels[2] == UNREACHED

    def test_level_form_keeps_every_level_below_its_sentinel(self):
        # every level is at most the node count, the sink one past the
        # farthest sensor of a chain
        assert level_form(UNREACHED - 1) == ("H", UNREACHED)
        assert level_form(UNREACHED) == ("L", UNREACHED_WIDE)

    def test_wide_chain_keeps_a_level_equal_to_the_narrow_sentinel(self):
        # 0 - 1 - ... - (n-1) - sink, built by hand: n sensors on a line,
        # each linked to the next, the last to the sink. Node n-1 is at level
        # UNREACHED, the narrow sentinel, and the sink one past 'H'
        n = bs = UNREACHED + 1
        adjacency = tuple((*([i - 1] if i else ()), i + 1) for i in range(n)) + ((n - 1,),)
        distances = tuple({j: 1.0 for j in row} for row in adjacency)
        topo = Topology(tuple((float(i), 0.0) for i in range(n)), distances, adjacency)
        levels = assign_levels(topo, source=0)
        assert len(levels) == n + 1
        assert levels[n - 1] == UNREACHED and levels[bs] == UNREACHED + 1
        assert array(level_form(n)[0], levels) == array("L", range(n + 1))
        live = live_adjacency(topo, [i != 1 for i in range(n)])
        with pytest.raises(DisconnectedNetwork):
            assign_levels(topo, source=0, live=live)
        levels = assign_levels(topo, source=2, live=live)
        assert levels[0] == levels[1] == UNREACHED_WIDE and levels[bs] == n - 2

    def test_sink_unreachable_raises(self):
        topo = build_topology([(0, 0), (10, 0), (100, 0)], (105, 0), 12.0)
        # source 0 reaches node 1 but the gap to node 2 (the sink's only
        # neighbor) cannot be bridged
        with pytest.raises(DisconnectedNetwork):
            assign_levels(topo, source=0)

    def test_dead_nodes_do_not_relay(self):
        topo = chain_topology()
        with pytest.raises(DisconnectedNetwork):
            assign_levels(topo, source=0, live=live_adjacency(topo, [True, False, True]))

    def test_dead_source_rejected(self):
        topo = chain_topology()
        with pytest.raises(DisconnectedNetwork):
            assign_levels(topo, source=0, live=live_adjacency(topo, [False, True, True]))


class TestTrustCongestionMetric:
    def test_alpha_zero_reduces_to_trust(self):
        for polarity in ("inverted", "literal"):
            assert trust_congestion_metric(0.73, 0.9, 0.0, polarity) == pytest.approx(0.73)

    def test_alpha_one_pure_congestion(self):
        assert trust_congestion_metric(0.2, 0.4, 1.0, "inverted") == pytest.approx(0.6)
        assert trust_congestion_metric(0.2, 0.4, 1.0, "literal") == pytest.approx(0.4)

    def test_blend_both_modes(self):
        assert trust_congestion_metric(0.8, 0.4, 0.5, "inverted") == pytest.approx(0.7)
        assert trust_congestion_metric(0.8, 0.4, 0.5, "literal") == pytest.approx(0.6)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_stays_in_unit_interval(self, t, ci, alpha):
        for polarity in ("inverted", "literal"):
            v = trust_congestion_metric(t, ci, alpha, polarity)
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestTransitionProbabilities:
    def test_single_candidate_gets_one(self):
        probs = transition_probabilities([(7, 0.5, 25.0, 2.0)], 1, 1, 1)
        assert probs == {7: 1.0}

    def test_identical_candidates_split_evenly(self):
        probs = transition_probabilities(
            [(1, 0.6, 20.0, 1.5), (2, 0.6, 20.0, 1.5)], 1, 1, 1)
        assert probs[1] == pytest.approx(0.5, abs=1e-9)
        assert probs[2] == pytest.approx(0.5, abs=1e-9)

    def test_hand_computed_weights(self):
        # weights 0.8*(1/10)*1 = 0.08 and 0.4*(1/20)*1 = 0.02
        probs = transition_probabilities(
            [(1, 0.8, 10.0, 1.0), (2, 0.4, 20.0, 1.0)], 1, 1, 1)
        assert probs[1] == pytest.approx(0.8, abs=1e-9)
        assert probs[2] == pytest.approx(0.2, abs=1e-9)

    def test_distance_only_reduction_prefers_nearest(self):
        probs = transition_probabilities(
            [(1, 0.1, 40.0, 9.0), (2, 0.9, 10.0, 0.001)], 0, 1, 0)
        assert max(probs, key=probs.get) == 2

    def test_zero_weights_fall_back_to_uniform(self):
        probs = transition_probabilities(
            [(1, 0.0, 10.0, 1.0), (2, 0.0, 20.0, 1.0)], 1, 1, 1)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[2] == pytest.approx(0.5, abs=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            transition_probabilities([(1, 0.5, 0.0, 1.0)], 1, 1, 1)
        with pytest.raises(ValueError):
            transition_probabilities([(1, 0.5, 1.0, 0.0)], 1, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 1),
                  st.floats(min_value=0.1, max_value=300),
                  st.floats(min_value=1e-6, max_value=100)),
        min_size=1, max_size=10,
    ), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_normalization_property(self, rows, b1, b2, b3):
        cands = [(idx, tc, d, tau) for idx, (tc, d, tau) in enumerate(rows)]
        probs = transition_probabilities(cands, b1, b2, b3)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in probs.values())


class TestSelection:
    def test_rank_orders_by_probability_then_id(self):
        ranked = rank_by_probability({3: 0.2, 1: 0.5, 2: 0.2, 0: 0.1})
        assert ranked == [1, 2, 3, 0]

    def test_first_admissible_wins(self):
        assert select_next_hop([4, 9], lambda _: True) == 4

    def test_full_queue_skipped(self):
        assert select_next_hop([4, 9], lambda cid: cid != 4) == 9

    def test_exhausted_returns_none(self):
        assert select_next_hop([4, 9], lambda _: False) is None

    def test_rank_walk_is_replayable(self):
        ranked = [5, 2, 8]
        admissible = lambda cid: cid != 5
        assert select_next_hop(ranked, admissible) == select_next_hop(ranked, admissible)

    def test_roulette_single_candidate(self):
        rng = random.Random(0)
        got = select_next_hop([3], lambda _: True, "stochastic_roulette",
                              {3: 1.0}, rng)
        assert got == 3

    def test_roulette_respects_admissibility(self):
        rng = random.Random(1)
        for _ in range(20):
            got = select_next_hop([1, 2], lambda cid: cid == 2,
                                  "stochastic_roulette", {1: 0.99, 2: 0.01}, rng)
            assert got == 2

    def test_roulette_deterministic_per_seed(self):
        probs = {1: 0.3, 2: 0.3, 3: 0.4}
        seq_a = [select_next_hop([3, 1, 2], lambda _: True, "stochastic_roulette",
                                 probs, random.Random(42)) for _ in range(5)]
        seq_b = [select_next_hop([3, 1, 2], lambda _: True, "stochastic_roulette",
                                 probs, random.Random(42)) for _ in range(5)]
        assert seq_a == seq_b

    def test_shared_wheel_draws_as_a_fresh_one(self):
        """One wheel serves many roulette selections over one candidate set:
        same picks, same RNG stream, rejections included, and the wheel is
        left as it was."""
        probs = {7: 0.05, 3: 0.4, 1: 0.25, 9: 0.3}
        ranked = rank_by_probability(probs)
        wheel = roulette_wheel(ranked, probs)
        kept = copy.deepcopy(wheel)
        for refused in (set(), {3}, {3, 9}, {1, 3, 7, 9}):
            admissible = lambda cid: cid not in refused
            shared, fresh = random.Random(5), random.Random(5)
            picks = [select_next_hop(ranked, admissible, "stochastic_roulette",
                                     probs, shared, wheel) for _ in range(30)]
            assert picks == [select_next_hop(ranked, admissible, "stochastic_roulette",
                                             probs, fresh) for _ in range(30)]
            assert shared.random() == fresh.random()
        assert wheel == kept

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            select_next_hop([1], lambda _: True, "wheel")


def rebuilding_roulette(ranked, admissible, probabilities, rng):
    """Roulette selection that builds the whole wheel afresh over the
    remaining pool after every refused draw."""
    pool = list(ranked)
    while pool:
        cum = list(accumulate(probabilities[cid] for cid in pool))
        total = cum[-1]
        if total <= 0.0:
            idx = 0
        else:
            idx = min(bisect.bisect_left(cum, rng.random() * total), len(pool) - 1)
        cid = pool.pop(idx)
        if admissible(cid):
            return cid
    return None


SUBNORMAL = 5e-324
probability = st.one_of(st.sampled_from([0.0, SUBNORMAL, 1e-300, 0.1, 1.0]),
                        st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(probability, min_size=1, max_size=8), st.data(), st.integers(0, 2 ** 16),
       st.booleans())
@example([0.0, 0.0, 0.0], None, 1, False)                # all-zero total
@example([0.0, 0.0, 0.0], None, 1, True)
@example([SUBNORMAL, 0.0, SUBNORMAL, 0.5], None, 2, True)
@example([0.3, 0.3, 0.4], None, 3, True)
def test_roulette_respin_equals_a_full_rebuild(weights, data, seed, shared):
    """Whatever draws are refused, selection returns the pick the full
    rebuild returns and leaves the RNG where it leaves it; a shared wheel is
    left as it was."""
    ranked = list(range(20, 20 + len(weights)))
    probabilities = dict(zip(ranked, weights))
    if data is None:   # an explicit example: refuse all but the last candidate
        refusals = [set(ranked[:-1])] * 4
    else:
        refusals = data.draw(st.lists(st.sets(st.sampled_from(ranked)),
                                      min_size=1, max_size=6))
    wheel = roulette_wheel(ranked, probabilities) if shared else None
    kept = copy.deepcopy(wheel)
    rng, ref = random.Random(seed), random.Random(seed)
    for refused in refusals:
        admissible = lambda cid: cid not in refused
        got = select_next_hop(ranked, admissible, "stochastic_roulette", probabilities,
                              rng, wheel)
        assert got == rebuilding_roulette(ranked, admissible, probabilities, ref)
        assert rng.getstate() == ref.getstate()
    assert wheel == kept


# the float sums CPython 3.11's ``sum`` gives, by ``float.hex``; 3.12 and
# later give 0x1.0000000000000p+0 and 0x1.0000000000001p+0 for the last two
SUMS_OF_3_11 = [
    ([], "0x0.0p+0"),
    ([-0.0], "0x0.0p+0"),                  # a -0.0 first term
    ([-0.0, -0.0], "0x0.0p+0"),
    ([0.0, 0.0, 0.0], "0x0.0p+0"),
    ([-0.0, 1.0], "0x1.0000000000000p+0"),
    ([SUBNORMAL, SUBNORMAL, -SUBNORMAL], "0x0.0000000000001p-1022"),
    ([2.2250738585072014e-308, -SUBNORMAL], "0x0.fffffffffffffp-1022"),
    ([math.inf, 1.0], "inf"),
    ([-math.inf, 1.0], "-inf"),
    ([math.inf, -math.inf], "nan"),
    ([math.nan, 1.0], "nan"),
    ([1.0, math.nan], "nan"),
    ([1e308, 1e308], "inf"),
    ([0.1] * 10, "0x1.fffffffffffffp-1"),
    ([1.0, 1e-16, 1e-16], "0x1.0000000000000p+0"),
]


@pytest.mark.parametrize("values,expected", SUMS_OF_3_11)
def test_left_sum_gives_the_sums_of_3_11(values, expected):
    assert left_sum(values).hex() == expected
    assert left_sum(iter(values)).hex() == expected


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum compensates from 3.12 on")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([-0.0, SUBNORMAL, math.inf, -math.inf, math.nan]),
                          st.floats()), max_size=8))
def test_left_sum_equals_the_builtin_sum_before_3_12(values):
    assert left_sum(values).hex() == float(sum(values)).hex()


def one_link_step(tau, rho, n_ij, d_ij, deposit_scale=1.0, tau_floor=1e-6):
    """Pheromone on the one link 0->1 after one cycle with ``n_ij`` transfers."""
    table = PheromoneTable([(1,), ()], tau, tau_floor, rho)
    table.update_cycle({0: {1: n_ij}}, lambda i, j: d_ij, deposit_scale)
    return table.row(0)[1]


class TestPheromone:
    def test_full_evaporation_pure_deposit(self):
        assert one_link_step(5.0, 1.0, 12, 4.0) == pytest.approx(3.0, abs=1e-12)

    def test_no_evaporation_no_deposit(self):
        assert one_link_step(1.7, 0.0, 0, 9.0) == pytest.approx(1.7, abs=1e-12)

    def test_hand_blend(self):
        assert one_link_step(1.0, 0.1, 5, 10.0) == pytest.approx(1.4, abs=1e-12)

    def test_deposit_scale(self):
        assert one_link_step(1.0, 0.25, 3, 2.0, deposit_scale=2.0) == pytest.approx(3.75)

    def test_floor_holds_under_pure_evaporation(self):
        table = PheromoneTable([(1,), ()], 1.0, 1e-6, 0.1)
        for _ in range(10_000):
            table.update_cycle({}, lambda i, j: 10.0)
        tau = table.row(0)[1]
        assert tau == pytest.approx(1e-6, abs=1e-18)
        assert tau >= 1e-6

    def test_busier_link_ends_higher(self):
        table = PheromoneTable([(1, 2), (), ()], 1.0, 1e-6, 0.1)
        table.update_cycle({0: {1: 9, 2: 2}}, lambda i, j: 10.0)
        assert table.row(0)[1] > table.row(0)[2]

    def test_table_update_evaporates_unused(self):
        table = PheromoneTable([(1,), (0,)], tau_init=1.0, tau_floor=1e-6, rho=0.1)
        table.update_cycle({0: {1: 5}}, lambda i, j: 10.0)
        assert table.row(0)[1] == pytest.approx(1.4, abs=1e-12)
        assert table.row(1)[0] == pytest.approx(0.9, abs=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            one_link_step(1.0, 0.1, 1, 0.0)


class EagerPheromone:
    """Reference table: every link evaporates and is floored on every cycle."""

    def __init__(self, adjacency, tau_init, tau_floor, rho):
        self.tau_floor = tau_floor
        self.rho = rho
        self.values = {(i, j): tau_init for i, nbrs in enumerate(adjacency) for j in nbrs}

    def get(self, i, j):
        return self.values[(i, j)]

    def update_cycle(self, sent, distance, deposit_scale=1.0):
        decay = 1.0 - self.rho
        floor = self.tau_floor
        values = self.values
        for link, tau in values.items():
            n = sent.get(link[0], {}).get(link[1], 0)
            if n:
                tau = decay * tau + deposit_scale * (n / distance(link[0], link[1]))
            else:
                tau = decay * tau
            values[link] = tau if tau > floor else floor


def by_sender(counts):
    """Transfers per link grouped as sender -> receiver -> transfers."""
    sent = {}
    for (i, j), n in counts.items():
        sent.setdefault(i, {})[j] = n
    return sent


# five nodes, all linked: each row is read, deposited on or left idle; a
# row's four links often share a value (tau_init, the floor, equal deposits)
NODES = 5
LINKS = [(i, j) for i in range(NODES) for j in range(NODES) if i != j]
pheromone_steps = st.lists(st.one_of(
    st.tuples(st.just("read"), st.sampled_from(LINKS)),
    st.tuples(st.just("update"),
              st.dictionaries(st.sampled_from(LINKS), st.integers(0, 30), max_size=6)
              .map(by_sender)),
    # long idle gaps evaporate any deposit down to the floor
    st.tuples(st.just("idle"), st.integers(1, 400)),
), max_size=25)


class TestLazyPheromone:
    # row 0 after one deposit (two distinct values, two equal ones) is read
    # after gaps of 1, 7 and 200 cycles, the last of which floors every link;
    # rows 1 and 2 still hold the shared tau_init when read after 9 and 209
    @example(rho=0.1, tau_init=1.0, tau_floor=1e-3, deposit_scale=1.0,
             lengths=[10.0] * len(LINKS),
             steps=[("update", {0: {1: 9, 2: 2, 3: 5, 4: 5}}), ("idle", 1), ("read", (0, 1)),
                    ("idle", 7), ("read", (0, 2)), ("read", (1, 0)),
                    ("idle", 200), ("read", (0, 3)), ("read", (2, 0))])
    @settings(max_examples=200, deadline=None)
    @given(rho=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           tau_init=st.floats(1e-7, 5.0),
           tau_floor=st.sampled_from([1e-6, 1e-3, 0.5]),
           deposit_scale=st.floats(0.0, 3.0),
           lengths=st.lists(st.sampled_from([10.0, 40.0]) | st.floats(0.5, 60.0),
                            min_size=len(LINKS), max_size=len(LINKS)),
           steps=pheromone_steps)
    def test_every_read_equals_eager_evaporation(self, rho, tau_init, tau_floor,
                                                 deposit_scale, lengths, steps):
        adjacency = [tuple(j for j in range(NODES) if j != i) for i in range(NODES)]
        lazy = PheromoneTable(adjacency, tau_init, tau_floor, rho)
        eager = EagerPheromone(adjacency, tau_init, tau_floor, rho)
        length = dict(zip(LINKS, lengths))
        distance = lambda i, j: length[(i, j)]
        for kind, arg in steps:
            if kind == "read":
                assert lazy.row(arg[0])[arg[1]] == eager.get(*arg)
            elif kind == "update":
                for table in (lazy, eager):
                    table.update_cycle(arg, distance, deposit_scale)
            else:
                for _ in range(arg):
                    for table in (lazy, eager):
                        table.update_cycle({}, distance, deposit_scale)
            # read a copy, so the table under test keeps its stale rows
            seen = copy.deepcopy(lazy)
            assert [seen.row(i)[j] for i, j in LINKS] == [eager.get(*link)
                                                            for link in LINKS]
