"""First-order radio energy accounting.

Transmitting ``bits`` over distance ``d`` costs e_elec*bits for the
electronics plus eps_fs*bits*d^2 for the free-space amplifier; receiving
costs the electronics term alone.
"""

from __future__ import annotations

from .config import RadioParams


def tx_cost(bits: int, d: float, params: RadioParams) -> float:
    return params.e_elec * bits + params.eps_fs * bits * d * d


def rx_cost(bits: int, params: RadioParams) -> float:
    return params.e_elec * bits


def debit(energy: list[float], k: int, amount: float) -> None:
    """Subtract ``amount`` from node k's battery, clamped at zero."""
    if amount < 0:
        raise ValueError("energy debit must be non-negative")
    energy[k] = max(0.0, energy[k] - amount)
