"""First-order radio costs and battery debits."""

import math

import pytest
from hypothesis import given, strategies as st

from tcaco.config import SimConfig
from tcaco.energy import debit, rx_cost, tx_cost
from tcaco.engine import Simulation

PARAMS = SimConfig()  # 50 nJ/bit electronics, 100 pJ/bit/m^2 amplifier


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
    """A node is counted dead only once its energy is below the threshold;
    holding exactly the threshold still counts as alive."""
    cfg = SimConfig(node_count=3, radio_range=35.0, bs_position=(60.0, 0.0),
                    source_node=0, packets_per_round=3, ack_size_fraction=0.0,
                    max_cycles=1)
    # node 2 is out of everyone's range, so its energy only changes here
    layout = [(0.0, 0.0), (30.0, 0.0), (0.0, 100.0)]
    for energy, dead in [(1.0, 0), (0.009, 1), (cfg.energy_threshold, 0)]:
        sim = Simulation(cfg, positions=layout)
        sim.energy[2] = energy
        assert sim.run_cycle().dead_nodes == dead


def test_debit_basic_and_clamp():
    energy = [1.0, 0.5]
    debit(energy, 1, 0.1)
    assert energy[1] == pytest.approx(0.4, abs=1e-12)
    energy[1] = 0.05
    debit(energy, 1, 0.1)
    assert energy == [1.0, 0.0]
    energy[1] = 1.0
    debit(energy, 1, 0.0)
    assert energy[1] == 1.0


def test_debit_rejects_negative():
    """A NaN amount is no non-negative amount either: it would empty the
    battery if it got past the check."""
    energy = [0.5]
    for amount in (-0.1, -5e-324, -math.inf, math.nan):
        with pytest.raises(ValueError):
            debit(energy, 0, amount)
    assert energy == [0.5]


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
    energy = [start]
    for a in amounts:
        debit(energy, 0, a)
        assert energy[0] >= 0.0
