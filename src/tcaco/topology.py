"""Planar disk-graph topology over deployed nodes plus the base-station sink.

Sensor nodes get ids 0..n-1; the base station is appended as id n. Two
endpoints are neighbors when their Euclidean distance is within the radio
range; distances are kept for neighbors only, so the stored topology grows
with the link count, not with n squared. The base station must be
reachable from at least one node.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def _endpoint(k: int, bs: int) -> str:
    return "the base station" if k == bs else f"node {k}"


def build_topology(positions, bs_position, radio_range) -> Topology:
    """Neighbor distances and symmetric adjacency for nodes plus sink.

    Endpoints are bucketed into square cells a hair wider than the radio
    range, so a pair within range always sits in one 3x3 block of cells.
    Each endpoint measures only the higher ids of its block, so a pair is
    measured at most once, always as (lower id, higher id); only pairs
    within radio range are stored. Raises ValueError when a coordinate is
    NaN or infinite, or when two endpoints share a point, since a link must
    have a positive length (the lowest such pair is named), and
    DisconnectedNetwork when no node is within radio range of the base
    station; source-to-sink connectivity is checked at level assignment,
    where the source is known.
    """
    pts = [tuple(p) for p in positions] + [tuple(bs_position)]
    n_all = len(pts)
    bs = n_all - 1
    reach = 0.0
    for k, (x, y) in enumerate(pts):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{_endpoint(k, bs)} has a non-finite coordinate")
        reach = max(reach, abs(x), abs(y))
    # Rounding x / side misplaces a point by at most reach * 2**-53 metres,
    # and a pair measured within range may truly be an ulp beyond it; the
    # margin covers both, so two endpoints in range are never two cells
    # apart. It also keeps every cell index below 2**40.
    side = radio_range + (radio_range + reach) * 2.0 ** -40
    cells: dict[tuple[int, int], list[int]] = {}
    keys = []
    for k, (x, y) in enumerate(pts):
        key = (math.floor(x / side), math.floor(y / side))
        keys.append(key)
        cells.setdefault(key, []).append(k)
    # per occupied cell, the ascending ids of its 3x3 block
    blocks: dict[tuple[int, int], list[int]] = {}
    for cx, cy in cells:
        block = []
        for bx in (cx - 1, cx, cx + 1):
            for by in (cy - 1, cy, cy + 1):
                block += cells.get((bx, by), ())
        block.sort()
        blocks[cx, cy] = block

    distances: list[dict[int, float]] = [{} for _ in range(n_all)]
    # rows fill in ascending neighbor order: lower ids arrive from earlier
    # rows, higher ids from this row's own scan of its block
    for i in range(n_all):
        block = blocks[keys[i]]
        p = pts[i]
        row = distances[i]
        for j in block[bisect_right(block, i):]:
            d = euclidean_distance(p, pts[j])
            if d <= radio_range:
                if not d:
                    raise ValueError(f"node {i} and {_endpoint(j, bs)} are at the same point")
                row[j] = d
                distances[j][i] = d
    if not distances[bs]:
        raise DisconnectedNetwork("no node within radio range of the base station")
    return Topology(
        positions=tuple(pts[:-1]),
        distances=tuple(distances),
        adjacency=tuple(tuple(row) for row in distances),
    )
