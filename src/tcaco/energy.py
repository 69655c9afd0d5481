"""First-order radio energy accounting.

Transmitting ``bits`` over distance ``d`` costs e_elec*bits for the
electronics plus eps_fs*bits*d^2 for the free-space amplifier; receiving
costs the electronics term alone. Both constants are read from the
config's ``e_elec`` and ``eps_fs``.
"""

from __future__ import annotations

from .config import SimConfig


def tx_cost(bits: int, d: float, cfg: SimConfig) -> float:
    return cfg.e_elec * bits + cfg.eps_fs * bits * d * d


def rx_cost(bits: int, cfg: SimConfig) -> float:
    return cfg.e_elec * bits


def debit(energy: list[float], k: int, amount: float) -> None:
    """Subtract ``amount`` from node k's battery, clamped at zero.

    The clamp is the comparison ``max(0.0, left)`` makes (a ``-0.0`` or NaN
    balance becomes ``0.0``), written out because this runs on every
    transfer and the builtin call costs several times as much.
    """
    if not amount >= 0:
        raise ValueError("energy debit must be non-negative")
    left = energy[k] - amount
    energy[k] = left if left > 0.0 else 0.0
