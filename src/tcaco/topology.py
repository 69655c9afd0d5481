"""Planar disk-graph topology over deployed nodes plus the base-station sink.

Sensor nodes get ids 0..n-1; the base station is appended as id n. Two
endpoints are neighbors when their Euclidean distance is within the radio
range; distances are kept for neighbors only, so the stored topology grows
with the link count, not with n squared. The base station must be
reachable from at least one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DisconnectedNetwork(RuntimeError):
    """The sink cannot be reached over the radio graph."""


def euclidean_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class Topology:
    positions: tuple[tuple[float, float], ...]  # sensor nodes only
    distances: tuple[dict[int, float], ...]     # per endpoint, {neighbor id: distance}, bs last
    adjacency: tuple[tuple[int, ...], ...]      # per endpoint, sorted neighbor ids

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def bs_id(self) -> int:
        return len(self.positions)

    def distance(self, i: int, j: int) -> float:
        return self.distances[i][j]


def build_topology(positions, bs_position, radio_range) -> Topology:
    """Neighbor distances and symmetric adjacency for nodes plus sink.

    Each unordered pair is measured once; only pairs within radio range
    are stored. Raises ValueError when two endpoints share a point, since
    a link must have a positive length, and DisconnectedNetwork when no
    node is within radio range of the base station; source-to-sink
    connectivity is checked at level assignment, where the source is known.
    """
    pts = [tuple(p) for p in positions] + [tuple(bs_position)]
    n_all = len(pts)
    distances: list[dict[int, float]] = [{} for _ in range(n_all)]
    # rows fill in ascending neighbor order: lower ids arrive from earlier
    # rows, higher ids from this row's own scan
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
    return Topology(
        positions=tuple(pts[:-1]),
        distances=tuple(distances),
        adjacency=tuple(tuple(row) for row in distances),
    )
