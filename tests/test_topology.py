"""Distance metric, disk-graph construction, and domain object invariants."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tcaco import topology
from tcaco.config import FaultSpec, SimConfig
from tcaco.engine import Simulation, deploy_nodes
from tcaco.model import DELIVERED, DROPPED_TIMEOUT, IN_FLIGHT, Packet
from tcaco.routing import UNREACHED
from tcaco.topology import (DisconnectedNetwork, Topology, build_topology,
                            euclidean_distance)
from tcaco.trust import TrustReads, TrustStats

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
point = st.tuples(coord, coord)


def test_distance_345_triangle():
    assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0, abs=1e-9)


def test_distance_identity():
    assert euclidean_distance((7, 2), (7, 2)) == 0.0


def test_distance_unit_diagonal():
    assert euclidean_distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-9)


@given(point, point)
def test_distance_symmetric_nonnegative(a, b):
    d = euclidean_distance(a, b)
    assert d >= 0.0
    assert d == euclidean_distance(b, a)


@given(point, point, point)
def test_triangle_inequality(a, b, c):
    assert euclidean_distance(a, c) <= (
        euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-6
    )


def test_three_node_line_adjacency():
    # pairwise distances 10, 90, 100 against range 15: only 0-1 connect
    topo = build_topology([(0, 0), (10, 0), (100, 0)], (0, 10), 15.0)
    assert 1 in topo.adjacency[0] and 0 in topo.adjacency[1]
    assert 2 not in topo.adjacency[0] and 2 not in topo.adjacency[1]
    assert all(j == topo.bs_id or j in (0, 1) for j in topo.adjacency[0])
    # node 2 is isolated from every sensor and the sink
    assert topo.adjacency[2] == ()


def test_two_nodes_in_range_are_mutual_neighbors():
    topo = build_topology([(0, 0), (5, 0)], (2, 2), 10.0)
    assert 1 in topo.adjacency[0]
    assert 0 in topo.adjacency[1]


def test_unreachable_sink_raises():
    with pytest.raises(DisconnectedNetwork):
        build_topology([(0, 0), (5, 0)], (500, 500), 10.0)


def test_coincident_endpoints_rejected_at_construction():
    """Two nodes at one point, or a node on the sink, would make a link of
    length zero; the simulation refuses the layout before its first cycle."""
    cfg = SimConfig(node_count=3, radio_range=35.0, bs_position=(60.0, 0.0),
                    source_node=0, max_cycles=5)
    with pytest.raises(ValueError, match="node 0 and node 1 are at the same point"):
        Simulation(cfg, positions=[(0.0, 0.0), (0.0, 0.0), (30.0, 0.0)])
    with pytest.raises(ValueError, match="node 2 and the base station are at the same point"):
        Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected_at_construction(bad):
    """A node or a sink off the plane has no distance to anything; the
    simulation names it instead of leaving it without links."""
    cfg = SimConfig(node_count=3, radio_range=35.0, bs_position=(60.0, 0.0),
                    source_node=0, max_cycles=5)
    with pytest.raises(ValueError, match="node 1 has a non-finite coordinate"):
        Simulation(cfg, positions=[(0.0, 0.0), (bad, 0.0), (30.0, 0.0)])
    with pytest.raises(ValueError, match="node 2 has a non-finite coordinate"):
        Simulation(cfg, positions=[(0.0, 0.0), (30.0, 0.0), (40.0, bad)])
    sink_off = SimConfig(node_count=3, radio_range=35.0, bs_position=(bad, 0.0),
                         source_node=0, max_cycles=5)
    with pytest.raises(ValueError, match="the base station has a non-finite coordinate"):
        Simulation(sink_off, positions=[(0.0, 0.0), (30.0, 0.0), (40.0, 0.0)])


def all_pairs_topology(positions, bs_position, radio_range) -> Topology:
    """Measure every unordered pair (i, j), i < j, in id order: the
    reference the cell-grid build is held to."""
    pts = [tuple(p) for p in positions] + [tuple(bs_position)]
    n_all = len(pts)
    distances = [{} for _ in range(n_all)]
    for i in range(n_all):
        for j in range(i + 1, n_all):
            d = euclidean_distance(pts[i], pts[j])
            if d <= radio_range:
                if not d:
                    other = "the base station" if j == n_all - 1 else f"node {j}"
                    raise ValueError(f"node {i} and {other} are at the same point")
                distances[i][j] = d
                distances[j][i] = d
    if not distances[n_all - 1]:
        raise DisconnectedNetwork("no node within radio range of the base station")
    return Topology(positions=tuple(pts[:-1]), distances=tuple(distances),
                    adjacency=tuple(tuple(row) for row in distances))


@st.composite
def layouts(draw):
    """Nodes and a sink, mixing points on a lattice of spacing range or
    range/2 (so that some pairs are exactly the range apart) with points
    anywhere around the origin. One layout in four repeats a node's point,
    and the sink may sit on a node or beyond every node."""
    radio_range = draw(st.one_of(st.sampled_from([60.0, 35.0, 1.0, 0.1, 1 / 3]),
                                 st.floats(1e-3, 1e3)))
    spacing = draw(st.sampled_from([radio_range, radio_range / 2]))
    coord = st.one_of(st.integers(-4, 4).map(lambda k: k * spacing),
                      st.floats(-2 * radio_range, 2 * radio_range))
    nodes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30,
                          unique=True))
    if draw(st.integers(0, 3)) == 3:
        nodes.insert(draw(st.integers(0, len(nodes))), draw(st.sampled_from(nodes)))
    sink = draw(st.integers(0, 7))
    if sink == 7:
        bs = draw(st.sampled_from(nodes))
    elif sink == 6:
        edge = max(abs(c) for p in nodes for c in p)
        side = draw(st.sampled_from([1.0, -1.0]))
        bs = (side * draw(st.floats(edge, edge + radio_range)), draw(coord))
    else:
        bs = draw(st.tuples(coord, coord).filter(lambda p: p not in nodes))
    return nodes, bs, radio_range


def outcome(build, nodes, bs, radio_range):
    try:
        topo = build(nodes, bs, radio_range)
    except (ValueError, DisconnectedNetwork) as e:
        return None, (type(e), str(e))
    return topo, [list(row) for row in topo.distances]


@settings(max_examples=400, deadline=None)
@given(layouts())
def test_cell_grid_build_equals_all_pairs(layout):
    """Same links, same bit-identical distances, same row key order, and
    the same error for the same layout."""
    got, got_rows = outcome(build_topology, *layout)
    want, want_rows = outcome(all_pairs_topology, *layout)
    assert got == want
    assert got_rows == want_rows


def test_measures_a_bounded_share_of_pairs(monkeypatch):
    """At n=1600 on a field of the shipped density each endpoint measures
    only its cell neighbourhood: at most 4 distances per undirected link,
    where measuring every pair would take about 120."""
    n = 1600
    side = 200.0 * math.sqrt(n / 50)
    cfg = SimConfig(node_count=n, field_width=side, field_height=side)
    positions = deploy_nodes(cfg, random.Random(1))
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return euclidean_distance(a, b)

    monkeypatch.setattr(topology, "euclidean_distance", counted)
    topo = build_topology(positions, cfg.effective_bs_position(), cfg.radio_range)
    links = sum(map(len, topo.adjacency)) // 2
    assert links > 5 * n
    assert calls <= 4 * links


def test_trust_reads_walk_a_bounded_number_of_links(monkeypatch):
    """A scale-shaped tc_aco run (n=800 at the shipped density, rotating
    source, drop faults) looks up at most two link records per latency
    score the reader computes: the verdict walks only a node's senders, a
    threshold test or an exact read looks its own link up straight from the
    link dict, and a latency score sums only the timed links on its level,
    where walking whole neighbour rows looked up about 13 per read."""
    n = 800
    side = 200.0 * math.sqrt(n / 50)
    cfg = SimConfig(node_count=n, field_width=side, field_height=side,
                    source_policy="random_per_round", max_cycles=100,
                    fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.8),))
    lookups = reads = scores = 0
    link, trusted, exact = TrustStats.link, TrustReads.trusted, TrustReads.link
    latency_score = TrustReads.latency_score

    def counted_link(self, i, j):
        nonlocal lookups
        lookups += 1
        return link(self, i, j)

    def counted_trusted(self, i, j):
        nonlocal reads
        reads += 1
        return trusted(self, i, j)

    def counted_exact(self, i, j):
        nonlocal reads
        reads += 1
        return exact(self, i, j)

    def counted_score(self, i, j, s):
        nonlocal scores
        scores += 1
        return latency_score(self, i, j, s)

    monkeypatch.setattr(TrustStats, "link", counted_link)
    monkeypatch.setattr(TrustReads, "trusted", counted_trusted)
    monkeypatch.setattr(TrustReads, "link", counted_exact)
    monkeypatch.setattr(TrustReads, "latency_score", counted_score)
    sim = Simulation(cfg, protocol="tc_aco", seed=1)
    sim.run()
    assert sim.cycle == 100
    assert reads > 5000 and scores > 500
    assert 0 < lookups <= 2 * scores


def test_neighbor_distances_symmetric():
    topo = build_topology([(0, 0), (30, 40), (10, 10)], (5, 5), 60.0)
    for i in range(topo.node_count + 1):
        assert tuple(topo.distances[i]) == topo.adjacency[i]
        for j in topo.adjacency[i]:
            assert topo.distances[i][j] == topo.distances[j][i]


def test_adjacency_matches_range_rule():
    positions = [(0, 0), (30, 40), (10, 10), (80, 0)]
    topo = build_topology(positions, (5, 5), 60.0)
    pts = [*positions, (5, 5)]
    for i in range(topo.node_count + 1):
        for j in range(topo.node_count + 1):
            if i == j:
                continue
            d = euclidean_distance(pts[i], pts[j])
            assert (j in topo.adjacency[i]) == (d <= 60.0)
            if j in topo.adjacency[i]:
                assert topo.distances[i][j] == d
            else:
                assert j not in topo.distances[i]


def test_rebuild_is_bit_identical():
    positions = [(0.5, 1.25), (30.0, 40.0), (10.0, 10.0)]
    a = build_topology(positions, (5, 5), 60.0)
    b = build_topology(positions, (5, 5), 60.0)
    assert a == b


def test_packet_fate_monotone():
    p = Packet(0, origin=3, created_cycle=1)
    assert p.fate == IN_FLIGHT
    assert p.hop_trail == [3]
    p.resolve(DELIVERED)
    with pytest.raises(RuntimeError):
        p.resolve(DROPPED_TIMEOUT)


def test_packet_rejects_non_terminal_fate():
    p = Packet(0, origin=0, created_cycle=1)
    with pytest.raises(ValueError):
        p.resolve(IN_FLIGHT)


def test_node_alive_tracks_threshold():
    """The only relay carries the route while its energy is at or above the
    threshold (boundary included); just below it the sink is cut off."""
    cfg = SimConfig(node_count=2, radio_range=35.0, bs_position=(60.0, 0.0),
                    source_node=0, packets_per_round=1, ack_size_fraction=0.0,
                    max_cycles=1)
    layout = [(0.0, 0.0), (30.0, 0.0)]
    for energy in (1.0, 0.01):
        sim = Simulation(cfg, positions=layout)
        sim.energy[1] = energy
        sim.run_cycle()
        assert sim.levels[1] != UNREACHED
    sim = Simulation(cfg, positions=layout)
    sim.energy[1] = 0.009
    with pytest.raises(DisconnectedNetwork):
        sim.run_cycle()
