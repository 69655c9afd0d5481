"""Trust metrics, the weighted blend, and classification.

The per-link metric functions and ``classify`` below are the tests'
independent references: each computes one link's metric, or the full node
verdict, straight from the evidence, the way the definitions read.
``TrustReads`` computes the same from per-level sums and reads the verdict
by walking a node's senders; ``test_engine`` and ``test_properties``
compare it against these. ``node_class`` is the reader's verdict in the
references' form.
"""

import math
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaco.config import SimConfig
from tcaco.routing import UNREACHED
from tcaco.trust import TrustReads, TrustStats, ZeroWeights, blend, trust_weights

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

TRUSTED_NODE = "trusted"
MALICIOUS_NODE = "malicious"


def node_class(sim) -> dict[int, str]:
    """Verdict per node of ``sim``, as ``sim.trust.malicious`` reads it."""
    return {j: MALICIOUS_NODE if sim.trust.malicious(j) else TRUSTED_NODE
            for j in range(sim.cfg.node_count)}


def mean_latency(s) -> float | None:
    """Mean latency sample of the link record ``s``; None before any."""
    return s.latency_sum / s.latency_count if s.latency_count else None


def packet_transmission_ratio(stats: TrustStats, i: int, j: int) -> float:
    """Acknowledged fraction of packets sent on i->j; 1.0 before any send."""
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
    neutral 1.0. When j has samples but no peer does, ``reference`` stands
    in for the peer mean; with no reference the score is again neutral.
    An unbounded mean latency (transfers that never completed) scores 0
    outright: no peer comparison can redeem it.
    """
    lat_j = mean_latency(stats.link(i, j))
    if lat_j is None:
        return 1.0
    if polarity != "literal" and lat_j == math.inf:
        return 0.0
    peer_means = [m for m in (mean_latency(stats.link(i, k)) for k in peers if k != j)
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
    """Average remaining energy of the pair, as a fraction of the initial charge."""
    if e_init <= 0:
        raise ValueError("initial energy must be positive")
    return ((e_i + e_j) / 2.0) / e_init


def classify(trust_table: dict[tuple[int, int], float], stats: TrustStats,
             t_th: float, node_count: int) -> dict[int, str]:
    """Trusted/malicious verdict for nodes 0..node_count-1 (the sink, id
    node_count, is never classified).

    A link is trustworthy only strictly above the threshold. A node is
    malicious when some sender has sent to it and no such sender's link to
    it is trustworthy; a node nobody has sent to stays trusted, and one
    vouching sender is enough. Every link of the table is visited, with
    evidence or without.
    """
    evidenced, vouched = set(), set()
    for (i, j), t_ij in trust_table.items():
        if stats.link(i, j).packets_sent:
            evidenced.add(j)
            if t_ij > t_th:
                vouched.add(j)
    return {j: MALICIOUS_NODE if j in evidenced - vouched else TRUSTED_NODE
            for j in range(node_count)}


def make_stats(sent=0, acked=0, latencies=(), link=(0, 1)):
    stats = TrustStats()
    i, j = link
    for _ in range(sent):
        stats.record_send(i, j)
    for _ in range(acked):
        stats.record_ack(i, j)
    for value in latencies:
        stats.record_latency(i, j, value)
    return stats


class TestTransmissionRatio:
    def test_partial_acks(self):
        stats = make_stats(sent=10, acked=8)
        assert packet_transmission_ratio(stats, 0, 1) == pytest.approx(0.8, abs=1e-9)

    def test_perfect_link(self):
        stats = make_stats(sent=5, acked=5)
        assert packet_transmission_ratio(stats, 0, 1) == 1.0

    def test_no_evidence_bootstraps_to_one(self):
        assert packet_transmission_ratio(TrustStats(), 0, 1) == 1.0

    def test_more_acks_than_sends_rejected(self):
        stats = make_stats(sent=1, acked=1)
        with pytest.raises(RuntimeError):
            stats.record_ack(0, 1)
        assert stats.link(0, 1).acks_received == 1
        with pytest.raises(RuntimeError):
            TrustStats().record_ack(0, 1)


class TestLatencyScore:
    def test_faster_than_peers_capped_at_one(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 2.0)
        stats.record_latency(0, 2, 4.0)
        assert latency_score(stats, 0, 1, peers=[2]) == 1.0  # min(1, 4/2)

    def test_slower_than_peers(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 8.0)
        stats.record_latency(0, 2, 4.0)
        assert latency_score(stats, 0, 1, peers=[2]) == pytest.approx(0.5, abs=1e-9)

    def test_no_samples_bootstraps_to_one(self):
        assert latency_score(TrustStats(), 0, 1, peers=[2]) == 1.0

    def test_zero_latency_scores_one(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 0.0)
        stats.record_latency(0, 2, 4.0)
        assert latency_score(stats, 0, 1, peers=[2]) == 1.0

    def test_literal_polarity_rewards_slow(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 2.0)
        stats.record_latency(0, 2, 4.0)
        assert latency_score(stats, 0, 1, [2], polarity="literal") == pytest.approx(0.5)
        stats2 = TrustStats()
        stats2.record_latency(0, 1, 8.0)
        stats2.record_latency(0, 2, 4.0)
        assert latency_score(stats2, 0, 1, [2], polarity="literal") == 1.0  # clamped

    def test_reference_used_when_no_peer_evidence(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 6.0)
        assert latency_score(stats, 0, 1, peers=[2]) == 1.0
        assert latency_score(stats, 0, 1, peers=[2], reference=3.0) == pytest.approx(0.5)

    def test_unbounded_latency_scores_zero(self):
        stats = TrustStats()
        stats.record_latency(0, 1, math.inf)
        stats.record_latency(0, 2, 4.0)
        assert latency_score(stats, 0, 1, peers=[2]) == 0.0
        # even without peers, with only a reference
        stats2 = TrustStats()
        stats2.record_latency(0, 1, math.inf)
        assert latency_score(stats2, 0, 1, peers=[], reference=3.0) == 0.0

    def test_peer_with_unbounded_latency_makes_finite_look_fast(self):
        stats = TrustStats()
        stats.record_latency(0, 1, 5.0)
        stats.record_latency(0, 2, math.inf)
        assert latency_score(stats, 0, 1, peers=[2]) == 1.0


class TestEnergyMetric:
    def test_full_batteries(self):
        assert energy_metric(1.0, 1.0, 1.0) == 1.0

    def test_half(self):
        assert energy_metric(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_empty(self):
        assert energy_metric(0.0, 0.0, 1.0) == 0.0

    def test_normalized_by_initial(self):
        assert energy_metric(0.5, 0.5, 2.0) == pytest.approx(0.25, abs=1e-9)


class TestComputeTrust:
    """A link's trust from its three metrics: ``blend`` under ``trust_weights``."""

    def test_equal_weights_mean(self):
        assert blend(0.6, 0.8, 0.4, trust_weights(1, 1, 1)) == pytest.approx(0.6, abs=1e-9)

    def test_all_ones_any_weights(self):
        assert blend(1, 1, 1, trust_weights(0.3, 0.9, 0.05)) == pytest.approx(1.0, abs=1e-9)

    def test_scaled_weights(self):
        assert blend(0.5, 1.0, 0.0, trust_weights(1.0, 0.5, 0.5)) == pytest.approx(0.5, abs=1e-9)

    def test_zero_weights_raise(self):
        with pytest.raises(ZeroWeights):
            blend(0.5, 0.5, 0.5, trust_weights(0, 0, 0))

    @given(unit, unit, unit, unit, unit, unit,
           st.floats(min_value=0.01, max_value=100))
    @example(ne=0.0, ptr=0.5, pl=0.0, a1=0.0, a2=5e-324, a3=0.0, k=2.0)
    def test_weight_scaling_invariance(self, ne, ptr, pl, a1, a2, a3, k):
        # the mean is undefined for zero weights, which k * a reaches when
        # it rounds subnormal weights away
        if a1 + a2 + a3 == 0 or k * a1 + k * a2 + k * a3 == 0:
            return
        base = blend(ne, ptr, pl, trust_weights(a1, a2, a3))
        scaled = blend(ne, ptr, pl, trust_weights(k * a1, k * a2, k * a3))
        assert scaled == pytest.approx(base, abs=1e-9)

    @given(unit, unit, unit, unit)
    def test_monotone_in_each_metric(self, ne, ptr, pl, bump):
        hi = min(1.0, ne + bump)
        weights = trust_weights(1, 1, 1)
        assert blend(hi, ptr, pl, weights) >= blend(ne, ptr, pl, weights) - 1e-12

    @given(unit, unit, unit, unit, unit, unit)
    def test_result_in_unit_interval(self, ne, ptr, pl, a1, a2, a3):
        if a1 + a2 + a3 == 0:
            return
        t = blend(ne, ptr, pl, trust_weights(a1, a2, a3))
        assert -1e-12 <= t <= 1.0 + 1e-12


def sent(*links):
    stats = TrustStats()
    for i, j in links:
        stats.record_send(i, j)
    return stats


class TestClassify:
    def test_strictly_above_threshold_is_trustworthy(self):
        nodes = classify({(0, 1): 0.51}, sent((0, 1)), 0.5, 2)
        assert nodes[1] == TRUSTED_NODE

    def test_equality_is_untrusted(self):
        nodes = classify({(0, 1): 0.5}, sent((0, 1)), 0.5, 2)
        assert nodes[1] == MALICIOUS_NODE

    def test_node_without_evidence_stays_trusted(self):
        table = {(0, 1): 0.1, (1, 0): 0.1}
        assert classify(table, TrustStats(), 0.5, 2) == {0: TRUSTED_NODE, 1: TRUSTED_NODE}

    def test_node_with_no_trustworthy_incoming_link_is_malicious(self):
        table = {(0, 2): 0.3, (1, 2): 0.4, (2, 0): 0.9, (2, 1): 0.9}
        nodes = classify(table, sent((0, 2), (1, 2), (2, 0), (2, 1)), 0.5, 3)
        assert nodes[2] == MALICIOUS_NODE
        assert nodes[0] == TRUSTED_NODE and nodes[1] == TRUSTED_NODE

    def test_one_vouching_sender_is_enough(self):
        table = {(0, 2): 0.3, (1, 2): 0.9, (2, 0): 0.9, (2, 1): 0.9}
        nodes = classify(table, sent((0, 2), (1, 2)), 0.5, 3)
        assert nodes[2] == TRUSTED_NODE

    def test_vouching_needs_evidence(self):
        # the trustworthy link from 1 carried nothing, so it vouches for nothing
        table = {(0, 2): 0.3, (1, 2): 0.9}
        nodes = classify(table, sent((0, 2)), 0.5, 3)
        assert nodes[2] == MALICIOUS_NODE
        assert nodes[0] == TRUSTED_NODE and nodes[1] == TRUSTED_NODE

    def test_sink_is_never_classified(self):
        # two sensor nodes; id 2 is the sink, and its only link is untrusted
        nodes = classify({(0, 2): 0.1, (1, 2): 0.1}, sent((0, 2), (1, 2)), 0.5, 2)
        assert nodes == {0: TRUSTED_NODE, 1: TRUSTED_NODE}

    def test_pure_function(self):
        table = {(0, 1): 0.7, (1, 0): 0.2}
        stats = sent((0, 1), (1, 0))
        assert classify(table, stats, 0.5, 2) == classify(table, stats, 0.5, 2)


def test_drop_all_link_converges_untrusted():
    """A never-acknowledging neighbor loses the link and the node verdict."""
    reads = TrustReads(SimConfig(node_count=3, initial_energy=1.0, wc_max=3),
                       [[1, 2], [0], [0], []])
    stats = reads.stats
    table = {}
    levels = (1, 2, 2, 3)       # 0 sends to 1 and 2 on the next level; 3 is the sink
    energies = [1.0] * 4
    for cycle in range(1, 30):
        for _ in range(5):
            stats.record_send(0, 1)
            stats.record_latency(0, 1, math.inf)
        reads.take(levels, energies)
        for j, _, _, _, t_ij in dict(reads.rows())[0]:
            table[(0, j)] = t_ij
    assert packet_transmission_ratio(stats, 0, 1) == 0.0
    assert table[(0, 1)] < 0.5
    nodes = classify(table, stats, 0.5, 3)
    assert nodes[1] == MALICIOUS_NODE
    assert nodes[2] == TRUSTED_NODE     # never sent to: no evidence against it
    assert (reads.malicious(1), reads.malicious(2)) == (True, False)


SUBNORMAL = 5e-324
# latency samples: zero, subnormal, huge and unbounded ones drawn often.
# Huge samples stay below the float range when a level's few means are
# summed: the reader takes a link's own term back out of its level's sum,
# and a sum past the float range reads the others as unbounded where the
# per-link reference reads them finite. The engine's samples are cycle
# counts, the timeout penalty or unbounded, far from that range
latency_samples = st.one_of(
    st.sampled_from([0.0, SUBNORMAL, 1e-300, 1.0, 2.0, 1e300, math.inf]),
    st.floats(min_value=0.0, max_value=1e6))
# weights, zero and those small enough for ``trust_weights`` to rescale
# drawn often; at least one is positive
weight = st.one_of(st.sampled_from([0.0, SUBNORMAL, 1e-305, 1e-301, 1.0]), unit)


@st.composite
def trust_histories(draw):
    """A reader over a complete graph of up to five sensors and the sink,
    and a few cycles of evidence on the sensors' links, each cycle with its
    levels and energies."""
    n = draw(st.integers(2, 5))
    weights = draw(st.tuples(weight, weight, weight).filter(lambda w: sum(w) > 0))
    cfg = SimConfig(node_count=n, initial_energy=2.0, wc_max=draw(st.integers(1, 4)),
                    a1=weights[0], a2=weights[1], a3=weights[2],
                    trust_threshold=draw(st.one_of(st.sampled_from([0.0, 1.0]), unit)),
                    latency_polarity=draw(st.sampled_from(["normalized", "literal"])))
    links = [(i, j) for i in range(n) for j in range(n + 1) if i != j]
    cycles = []
    for _ in range(draw(st.integers(1, 4))):
        records = draw(st.lists(st.tuples(st.sampled_from(links), st.integers(0, 3),
                                          st.integers(0, 3), st.lists(latency_samples,
                                                                      max_size=3)),
                                max_size=8))
        levels = draw(st.lists(st.sampled_from([0, 1, 2, UNREACHED]),
                               min_size=n + 1, max_size=n + 1))
        energies = draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                                 min_size=n + 1, max_size=n + 1))
        cycles.append((records, levels, energies))
    return cfg, cycles


@settings(max_examples=200, deadline=None)
@given(trust_histories())
def test_threshold_tests_and_exact_reads_equal_the_references(history):
    """After every cycle, every link's threshold test reads as its exact
    trust compared with the threshold, and every exact read blends the
    per-link references: the energy and transmission metrics bit for bit,
    the latency score within rounding (the reader sums a level's means once
    and takes each link's own term back out)."""
    cfg, cycles = history
    n = cfg.node_count
    adjacency = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    reads = TrustReads(cfg, adjacency)
    stats, th, weights = reads.stats, cfg.trust_threshold, reads.weights
    for records, levels, energies in cycles:
        for (i, j), sends, acks, samples in records:
            if sends:
                stats.record_send(i, j, sends)
                stats.record_ack(i, j, min(acks, sends))
            for value in samples:
                stats.record_latency(i, j, value)
        reads.take(levels, energies)
        evidenced = list(stats._links)
        tests = {link: reads.trusted(*link) for link in evidenced}
        exact = {link: reads.link(*link) for link in evidenced}
        assert tests == {link: t_ij > th for link, t_ij in exact.items()}
        rows = {(i, j): (pl, t_ij) for i, row in reads.rows() for j, _, _, pl, t_ij in row}
        for i, j in evidenced:
            pl, t_ij = rows[(i, j)]
            assert exact[(i, j)] == t_ij
            peers = [k for k in adjacency[i] if levels[k] == levels[j]]
            want = latency_score(stats, i, j, peers, cfg.latency_polarity,
                                 reference=float(cfg.wc_max))
            assert pl == pytest.approx(want, rel=1e-12, abs=1e-12), (i, j)
            ne = energy_metric(energies[i], energies[j], cfg.initial_energy)
            assert t_ij == blend(ne, packet_transmission_ratio(stats, i, j), pl, weights)


class TestEvidenceRecords:
    def test_read_stores_nothing(self):
        stats = TrustStats()
        assert stats.link(0, 1).packets_sent == 0
        assert mean_latency(stats.link(0, 1)) is None
        assert stats._links == {}

    def test_negative_latency_fails_at_record(self):
        # NaN is no sample either: it would make the link's mean NaN for good
        for value in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                TrustStats().record_latency(0, 1, value)
            with pytest.raises(ValueError, match="non-negative"):
                TrustStats().record_latency(0, 1, value, 3)
            with pytest.raises(ValueError, match="non-negative"):
                TrustStats().record_trail([0, 1, 2], value)
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one"):
                TrustStats().record_latency(0, 1, 1.0, n)
        stats = TrustStats()
        stats.record_latency(0, 1, 1.0)
        with pytest.raises(ValueError):
            stats.record_latency(0, 1, math.nan)
        assert mean_latency(stats.link(0, 1)) == 1.0

    @given(st.lists(st.floats(min_value=0.0), max_size=6),
           st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=6),
           st.integers(1, 5), st.data())
    @example(earlier=[], finite=[1e308, 1e308], n=2, data=None)  # the sum overflows
    @example(earlier=[], finite=[], n=3, data=None)
    def test_counted_unbounded_samples_equal_single_records(self, earlier, finite, n,
                                                            data):
        """``n`` unbounded samples recorded as one count after a cycle's
        finite samples give the link, bit for bit, what ``n`` single records
        give wherever they fall among those samples, after earlier samples
        of any value: the engine may hand its lost transfers over at step 8."""
        places = (data.draw(st.lists(st.integers(0, len(finite)), min_size=n, max_size=n))
                  if data is not None else [0] * n)
        single, counted = TrustStats(), TrustStats()
        for stats in (single, counted):
            for value in earlier:
                stats.record_latency(0, 1, value)
        for k in range(len(finite) + 1):
            for _ in range(places.count(k)):
                single.record_latency(0, 1, math.inf)
            if k < len(finite):
                single.record_latency(0, 1, finite[k])
                counted.record_latency(0, 1, finite[k])
        counted.record_latency(0, 1, math.inf, n)
        got, want = counted.link(0, 1), single.link(0, 1)
        assert (got.latency_count, got.latency_sum.hex()) == (want.latency_count,
                                                               want.latency_sum.hex())
        assert got.latency_count == len(earlier) + len(finite) + n
        assert counted.timed == single.timed == {0: [1]}

    def test_engine_run_stores_only_links_with_evidence(self):
        from test_golden import case_simulation
        sim = case_simulation("tc_aco_deterministic_rank")
        sim.run()
        records = sim.stats._links
        assert records
        assert all(s.packets_sent > 0 for s in records.values())
        # the trust reads allocated none
        links = sum(len(sim.topology.adjacency[i]) for i in range(sim.cfg.node_count))
        assert len(records) < links
