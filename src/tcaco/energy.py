"""First-order radio energy accounting.

Transmitting ``bits`` over distance ``d`` costs e_elec*bits for the
electronics plus eps_fs*bits*d^2 for the free-space amplifier; receiving
costs the electronics term alone.
"""

from __future__ import annotations

from .config import RadioParams
from .model import NodeState


def tx_cost(bits: int, d: float, params: RadioParams) -> float:
    return params.e_elec * bits + params.eps_fs * bits * d * d


def rx_cost(bits: int, params: RadioParams) -> float:
    return params.e_elec * bits


def debit(node: NodeState, amount: float) -> NodeState:
    """Subtract ``amount`` from the node's battery, clamped at zero."""
    if amount < 0:
        raise ValueError("energy debit must be non-negative")
    node.energy = max(0.0, node.energy - amount)
    return node
