"""Bounded FIFO node queues (plain packet lists), queue-stamp timeouts, and
the congestion index.

The congestion index of a node compares how much traffic it absorbs
(average inflow plus free buffer space) against how much it drains
(average outflow). Flow averages run over all completed cycles by
default, or over a rolling window when one is configured. Only running
integer sums are kept, so the history does not grow with the run and
the averages are bit-identical to a replay over the raw per-cycle trace.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .model import Packet


def enqueue(queue: list[Packet], packet: Packet, cycle: int, capacity: int) -> bool:
    """Append the packet stamped with ``cycle``; False when the queue holds
    ``capacity`` packets or more."""
    if len(queue) >= capacity:
        return False
    packet.queued_at = cycle
    queue.append(packet)
    return True


def tick_wait_and_drop(queue: list[Packet], cycle: int, wc_max: int) -> list[Packet]:
    """Remove and return the packets queued ``wc_max`` or more cycles before ``cycle``.

    Packets are only appended, with the current cycle, and never reordered,
    so the expired ones are always at the front.
    """
    k = 0
    for p in queue:
        if cycle - p.queued_at < wc_max:
            break
        k += 1
    expired = queue[:k]
    del queue[:k]
    return expired


class FlowHistory:
    """Per-node running inflow/outflow sums and end-of-cycle free buffer space.

    ``record_cycle`` closes one cycle from sparse maps: the nodes that
    received or sent, and the nodes whose queue changed. Every other node
    adds no flow and keeps its free space, which starts at the queue
    capacity. Averages answer for the next cycle and cover every recorded
    cycle, or only the most recent ``window`` of them; a window keeps its
    rows (the flow maps) so the sums can take back the oldest.
    """

    def __init__(self, node_count: int, capacity: int, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when set")
        self.window = window
        self.cycles = 0
        self._in_sum = [0] * node_count
        self._out_sum = [0] * node_count
        self._free = [capacity] * node_count
        self._rows: deque[tuple[dict[int, int], dict[int, int]]] = deque()

    def record_cycle(self, inflows: dict[int, int], outflows: dict[int, int],
                     free_spaces: dict[int, int]) -> None:
        """Close one cycle: ``inflows`` and ``outflows`` map node ids to this
        cycle's packet counts, ``free_spaces`` maps node ids to their queue's
        free space now. A window keeps the two flow maps as they are, so the
        caller hands them over and does not change them afterwards."""
        in_sum, out_sum, free = self._in_sum, self._out_sum, self._free
        for k, count in inflows.items():
            in_sum[k] += count
        for k, count in outflows.items():
            out_sum[k] += count
        for k, space in free_spaces.items():
            free[k] = space
        self.cycles += 1
        if self.window is not None:
            self._rows.append((inflows, outflows))
            if len(self._rows) > self.window:
                old_in, old_out = self._rows.popleft()
                for k, count in old_in.items():
                    in_sum[k] -= count
                for k, count in old_out.items():
                    out_sum[k] -= count

    def congestion_index(self, k: int) -> float:
        """Fraction of absorbed traffic the node fails to drain, in [0,1].

        Bootstraps to 0 before any history exists, and a zero denominator
        (no inflow history, no free space) also yields 0: such a node has
        produced no congestion evidence.
        """
        if not self.cycles:
            return 0.0
        span = self.cycles if self.window is None else len(self._rows)
        r_in = self._in_sum[k] / span
        r_out = self._out_sum[k] / span
        q_prev = self._free[k]
        denom = r_in + q_prev
        if denom <= 0:
            return 0.0
        ci = (r_in + q_prev - r_out) / denom
        # min(1.0, max(0.0, ci)), written as the comparisons it makes
        if not ci > 0.0:
            return 0.0
        return ci if ci < 1.0 else 1.0
