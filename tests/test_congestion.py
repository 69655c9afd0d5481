"""Queues, queue-stamp timeouts, flow averages, and the congestion index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tcaco.congestion import FlowHistory, enqueue, tick_wait_and_drop
from tcaco.model import IN_FLIGHT, Packet


def pkt(pid=0):
    return Packet(pid, origin=0, created_cycle=1)


class TestQueue:
    def test_enqueue_into_empty(self):
        q = []
        assert enqueue(q, pkt(), 1, 10)
        assert len(q) == 1

    def test_overflow_rejected_without_fate(self):
        q = []
        assert enqueue(q, pkt(0), 1, 1)
        p2 = pkt(1)
        assert not enqueue(q, p2, 1, 1)
        assert p2.fate == IN_FLIGHT   # the caller decides the packet's end
        assert len(q) == 1

    def test_reset_wait_on_enqueue(self):
        # the wait restarts at the cycle the packet is queued
        q = []
        p = pkt()
        enqueue(q, p, 5, 4)
        assert p.queued_at == 5

    def test_fifo_order_preserved(self):
        q = []
        packets = [pkt(k) for k in range(4)]
        for p in packets:
            enqueue(q, p, 1, 5)
        tick_wait_and_drop(q, 1, wc_max=3)
        assert [p.id for p in q] == [0, 1, 2, 3]


class TestTick:
    def test_below_horizon_retained(self):
        q = []
        p = pkt()
        enqueue(q, p, 1, 5)
        dropped = tick_wait_and_drop(q, 3, wc_max=3)   # waited 2 cycles
        assert dropped == []
        assert q == [p]
        assert p.queued_at == 1   # ageing leaves survivors untouched

    def test_at_horizon_dropped(self):
        q = []
        p = pkt()
        enqueue(q, p, 1, 5)
        dropped = tick_wait_and_drop(q, 4, wc_max=3)   # waited 3 cycles
        assert dropped == [p]
        assert p.fate == IN_FLIGHT   # the caller decides the packet's end
        assert len(q) == 0

    def test_empty_queue_returns_nothing(self):
        assert tick_wait_and_drop([], 1, wc_max=3) == []

    def test_wait_never_exceeds_horizon(self):
        q = []
        for cycle in range(1, 11):
            enqueue(q, pkt(cycle), cycle, 8)
            expired = tick_wait_and_drop(q, cycle, wc_max=3)
            assert all(cycle - p.queued_at == 3 for p in expired)
            assert all(cycle - p.queued_at < 3 for p in q)

    def test_hold_stamp_untouched(self):
        q = []
        p = pkt()
        p.held_until = 3
        enqueue(q, p, 1, 5)
        tick_wait_and_drop(q, 2, wc_max=5)
        assert p.held_until == 3


def history_from(inflows, outflows, frees):
    """Build a FlowHistory for one node from per-cycle columns."""
    h = FlowHistory(1, 10)
    for a, b, f in zip(inflows, outflows, frees):
        h.record_cycle({0: a}, {0: b}, {0: f})
    return h


class TestFlowAverages:
    """Each flow average shows in the congestion index, which is
    (r_in + q - r_out) / (r_in + q) with q the last recorded free space."""

    def test_avg_inflow_two_cycles(self):
        # r_in 5, r_out 3, q 1 -> 3/6
        h = history_from([4, 6], [3, 3], [10, 1])
        assert h.congestion_index(0) == 0.5

    def test_avg_inflow_single_cycle(self):
        # r_in 7, r_out 3, q 1 -> 5/8
        h = history_from([7], [3], [1])
        assert h.congestion_index(0) == 0.625

    def test_all_zero_history(self):
        # r_in 0 and r_out 0 leave the free space alone: q/q
        h = history_from([0, 0, 0], [0, 0, 0], [3, 3, 3])
        assert h.congestion_index(0) == 1.0

    def test_avg_outflow_values(self):
        # r_in 4, r_out 3, q 2 -> 3/6
        h = history_from([4, 4], [2, 4], [10, 2])
        assert h.congestion_index(0) == 0.5
        # r_in 10, r_out 10, q 6 -> 6/16
        h2 = history_from([10], [10], [6])
        assert h2.congestion_index(0) == 0.375


class TestCongestionIndex:
    def test_bootstrap_zero_before_history(self):
        assert FlowHistory(1, 10).congestion_index(0) == 0.0

    def test_hand_value(self):
        # r_in 5, free space 1, r_out 3 -> (5+1-3)/(5+1)
        h = history_from([5], [3], [1])
        assert h.congestion_index(0) == pytest.approx(0.5, abs=1e-12)

    def test_numerator_vanishes(self):
        # r_out equals r_in + free space
        h = history_from([2], [4], [2])
        assert h.congestion_index(0) == 0.0

    def test_nothing_leaves_is_fully_congested(self):
        h = history_from([3], [0], [4])
        assert h.congestion_index(0) == 1.0

    def test_negative_clamped_to_zero(self):
        # draining faster than absorbing: (1+1-5)/(1+1) < 0
        h = history_from([1], [5], [1])
        assert h.congestion_index(0) == 0.0

    def test_zero_denominator_is_zero(self):
        h = history_from([0], [0], [0])
        assert h.congestion_index(0) == 0.0

    def test_untouched_node_reads_a_full_queue(self):
        # node 1 neither sends, receives nor changes its queue in the first
        # cycle, so its free space is still the capacity: (0+10-0)/(0+10)
        h = FlowHistory(2, 10)
        h.record_cycle({0: 3}, {0: 1}, {0: 8})
        assert h.congestion_index(0) == 10 / 11
        assert h.congestion_index(1) == 1.0

    def test_in_unit_interval(self):
        rng = random.Random(5)
        h = FlowHistory(1, 10)
        for _ in range(50):
            h.record_cycle({0: rng.randrange(20)}, {0: rng.randrange(20)},
                           {0: rng.randrange(11)})
            assert 0.0 <= h.congestion_index(0) <= 1.0


def replay_congestion_index(inflows, outflows, frees, k, c, window=None):
    """Independent oracle: direct evaluation over the raw trace."""
    completed = c - 1
    start = 0 if window is None else max(0, completed - window)
    span = completed - start
    if span <= 0:
        return 0.0
    r_in = sum(inflows[k][start:completed]) / span
    r_out = sum(outflows[k][start:completed]) / span
    q_prev = frees[k][completed - 1]
    denom = r_in + q_prev
    if denom <= 0:
        return 0.0
    return min(1.0, max(0.0, (r_in + q_prev - r_out) / denom))


trace = st.integers(min_value=2, max_value=20).flatmap(
    lambda cycles: st.integers(min_value=1, max_value=5).flatmap(
        lambda nodes: st.tuples(
            st.just(nodes),
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, 30), min_size=nodes, max_size=nodes),
                    st.lists(st.integers(0, 30), min_size=nodes, max_size=nodes),
                    # None: the node's queue did not change this cycle
                    st.lists(st.none() | st.integers(0, 10), min_size=nodes, max_size=nodes),
                ),
                min_size=cycles, max_size=cycles,
            ),
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(trace, st.sampled_from([None, 1, 3, 8]))
def test_incremental_matches_replay_exactly(data, window):
    nodes, rows = data
    capacity = 10
    h = FlowHistory(nodes, capacity, window=window)
    inflows = [[] for _ in range(nodes)]
    outflows = [[] for _ in range(nodes)]
    frees = [[] for _ in range(nodes)]
    for c, (a, b, f) in enumerate(rows, start=2):
        # sparse maps: nodes without flow or without a queue change left out
        h.record_cycle({k: v for k, v in enumerate(a) if v},
                       {k: v for k, v in enumerate(b) if v},
                       {k: v for k, v in enumerate(f) if v is not None})
        for k in range(nodes):
            inflows[k].append(a[k])
            outflows[k].append(b[k])
            last = frees[k][-1] if frees[k] else capacity
            frees[k].append(last if f[k] is None else f[k])
        for k in range(nodes):
            assert h.congestion_index(k) == replay_congestion_index(
                inflows, outflows, frees, k, c, window)
