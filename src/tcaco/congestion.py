"""Bounded FIFO node queues, wait-cycle timeouts, and the congestion index.

The congestion index of a node compares how much traffic it absorbs
(average inflow plus free buffer space) against how much it drains
(average outflow). Flow averages run over all completed cycles by
default, or over a rolling window when one is configured. Counts are
kept as integers so an incremental evaluation is bit-identical to a
replay over the raw per-cycle trace.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .model import DROPPED_OVERFLOW, DROPPED_TIMEOUT, Packet


class InsufficientHistory(ValueError):
    """Flow averages need at least one completed cycle."""


class NodeQueue:
    """FIFO packet buffer with a hard capacity."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def free_space(self) -> int:
        return max(0, self.capacity - len(self.entries))


def enqueue(queue: NodeQueue, packet: Packet) -> bool:
    """Append with a reset wait counter; on overflow the packet is dropped."""
    if queue.full:
        packet.resolve(DROPPED_OVERFLOW)
        return False
    packet.wait_cycles = 0
    queue.entries.append(packet)
    return True


def tick_wait_and_drop(queue: NodeQueue, wc_max: int) -> list[Packet]:
    """Age every queued packet by one cycle; call exactly once per cycle.

    Packets that have already waited ``wc_max`` cycles are removed and
    returned with the timeout fate. Delay holds expire on the same clock.
    """
    survivors: deque[Packet] = deque()
    dropped: list[Packet] = []
    for packet in queue.entries:
        if packet.hold_cycles > 0:
            packet.hold_cycles -= 1
        if packet.wait_cycles >= wc_max:
            packet.resolve(DROPPED_TIMEOUT)
            dropped.append(packet)
        else:
            packet.wait_cycles += 1
            survivors.append(packet)
    queue.entries = survivors
    return dropped


class FlowHistory:
    """Per-node inflow/outflow counts and end-of-cycle free buffer space.

    ``record_cycle`` closes one cycle. Averages at cycle ``c`` cover
    cycles 1..c-1 (optionally only the most recent ``window`` of them).
    """

    def __init__(self, node_count: int, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when set")
        self.node_count = node_count
        self.window = window
        self.inflow: list[list[int]] = [[] for _ in range(node_count)]
        self.outflow: list[list[int]] = [[] for _ in range(node_count)]
        self.free_space: list[list[int]] = [[] for _ in range(node_count)]
        self._in_sum = [0] * node_count
        self._out_sum = [0] * node_count

    @property
    def cycles_recorded(self) -> int:
        return len(self.inflow[0]) if self.node_count else 0

    def record_cycle(self, inflows: list[int], outflows: list[int],
                     free_spaces: list[int]) -> None:
        for k in range(self.node_count):
            self.inflow[k].append(inflows[k])
            self.outflow[k].append(outflows[k])
            self.free_space[k].append(free_spaces[k])
            self._in_sum[k] += inflows[k]
            self._out_sum[k] += outflows[k]
            if self.window is not None and len(self.inflow[k]) > self.window:
                drop_idx = len(self.inflow[k]) - self.window - 1
                self._in_sum[k] -= self.inflow[k][drop_idx]
                self._out_sum[k] -= self.outflow[k][drop_idx]

    def _avg(self, series: list[int], running: int, c: int) -> float:
        if c < 2:
            raise InsufficientHistory("flow averages undefined before cycle 2")
        completed = c - 1
        if completed > self.cycles_recorded:
            raise InsufficientHistory(
                f"cycle {c} queried but only {self.cycles_recorded} recorded")
        start = 0 if self.window is None else max(0, completed - self.window)
        span = completed - start
        if completed == self.cycles_recorded:
            total = running
        else:
            total = sum(series[start:completed])
        return total / span

    def avg_inflow(self, k: int, c: int) -> float:
        return self._avg(self.inflow[k], self._in_sum[k], c)

    def avg_outflow(self, k: int, c: int) -> float:
        return self._avg(self.outflow[k], self._out_sum[k], c)

    def congestion_index(self, k: int, c: int) -> float:
        """Fraction of absorbed traffic the node fails to drain, in [0,1].

        Bootstraps to 0 before any history exists, and a zero denominator
        (no inflow history, no free space) also yields 0: such a node has
        produced no congestion evidence.
        """
        if c < 2:
            return 0.0
        r_in = self.avg_inflow(k, c)
        r_out = self.avg_outflow(k, c)
        q_prev = self.free_space[k][c - 2]
        denom = r_in + q_prev
        if denom <= 0:
            return 0.0
        ci = (r_in + q_prev - r_out) / denom
        return min(1.0, max(0.0, ci))
