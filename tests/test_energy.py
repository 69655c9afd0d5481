"""First-order radio costs and the transmission gate."""

import pytest
from hypothesis import given, strategies as st

from tcaco.config import RadioParams, SimConfig
from tcaco.energy import debit, rx_cost, tx_cost
from tcaco.model import NodeState

PARAMS = RadioParams()  # 50 nJ/bit electronics, 100 pJ/bit/m^2 amplifier


def test_tx_zero_bits_costs_nothing():
    assert tx_cost(0, 123.0, PARAMS) == 0.0


def test_tx_at_zero_distance_is_electronics_only():
    assert tx_cost(2000, 0.0, PARAMS) == pytest.approx(1.0e-4, abs=1e-12)


def test_tx_hand_value_at_100m():
    # 2000*50e-9 + 2000*100e-12*10000 = 1e-4 + 2e-3
    assert tx_cost(2000, 100.0, PARAMS) == pytest.approx(2.1e-3, abs=1e-12)


def test_rx_hand_values():
    assert rx_cost(0, PARAMS) == 0.0
    assert rx_cost(2000, PARAMS) == pytest.approx(1.0e-4, abs=1e-12)
    assert rx_cost(1, PARAMS) == pytest.approx(50e-9, abs=1e-15)


def test_alive_boundary_included():
    cfg = SimConfig()
    node = NodeState(0, (0, 0), energy=1.0, energy_threshold=cfg.energy_threshold)
    assert node.alive
    node.energy = 0.009
    assert not node.alive
    node.energy = cfg.energy_threshold
    assert node.alive


def test_debit_basic_and_clamp():
    node = NodeState(0, (0, 0), energy=0.5, energy_threshold=0.01)
    debit(node, 0.1)
    assert node.energy == pytest.approx(0.4, abs=1e-12)
    node.energy = 0.05
    debit(node, 0.1)
    assert node.energy == 0.0
    assert not node.alive
    node.energy = 1.0
    debit(node, 0.0)
    assert node.energy == 1.0


def test_debit_rejects_negative():
    node = NodeState(0, (0, 0), energy=0.5, energy_threshold=0.01)
    with pytest.raises(ValueError):
        debit(node, -0.1)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0, max_value=500, allow_nan=False),
       st.floats(min_value=0, max_value=500, allow_nan=False))
def test_tx_cost_monotone_in_bits_and_distance(b1, b2, d1, d2):
    lo_b, hi_b = sorted((b1, b2))
    lo_d, hi_d = sorted((d1, d2))
    assert tx_cost(lo_b, lo_d, PARAMS) <= tx_cost(hi_b, lo_d, PARAMS)
    assert tx_cost(lo_b, lo_d, PARAMS) <= tx_cost(lo_b, hi_d, PARAMS)


@given(st.floats(min_value=0, max_value=2.0, allow_nan=False),
       st.lists(st.floats(min_value=0, max_value=0.5, allow_nan=False), max_size=8))
def test_energy_never_negative_under_debits(start, amounts):
    node = NodeState(0, (0, 0), energy=start, energy_threshold=0.01)
    for a in amounts:
        debit(node, a)
        assert node.energy >= 0.0
