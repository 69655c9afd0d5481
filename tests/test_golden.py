"""Byte-identity goldens for the per-cycle CSV across the configuration space.

One small run per protocol and forwarding mode, one per fault behaviour,
one with both literal polarities, one with a rolling congestion window,
and one under a fixed source, plus the trust dump of one tc_aco run and the route dump of the
delay-fault run. Refactors must leave every file byte-identical; a change
that alters one must say why in CHANGES.md.

Run this module as a script to record goldens that do not exist yet;
existing files are never overwritten.
"""

import builtins
import importlib
import math
import os
import pkgutil
from functools import partial

import pytest

import tcaco
from tcaco.config import FaultSpec, SimConfig
from tcaco.engine import PROTOCOLS, Simulation
from tcaco.output import per_cycle_csv_text, route_dump_text, trust_dump_text

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# Low initial energy so nodes die inside the 40-cycle horizon.
BASE = dict(node_count=16, field_width=90.0, field_height=90.0, packets_per_round=6,
            max_cycles=40, source_policy="random_per_round", queue_capacity=6,
            initial_energy=0.03, rng_seed=5)
DROP = (FaultSpec(behavior="drop", fraction=0.2, p=0.8),)
FAULTS = {
    "drop": FaultSpec(behavior="drop", fraction=0.2, p=0.8),
    "duplicate": FaultSpec(behavior="duplicate", fraction=0.2, copies=3),
    "flood": FaultSpec(behavior="flood", fraction=0.2, rate=4),
    "delay": FaultSpec(behavior="delay", fraction=0.2, extra=2),
}
MODES = ("deterministic_rank", "stochastic_roulette")

# name -> (protocol, SimConfig overrides of BASE)
CASES = {
    **{f"{protocol}_{mode}": (protocol, dict(forwarding_mode=mode, fault_spec=DROP))
       for protocol in PROTOCOLS for mode in MODES},
    **{f"fault_{kind}": ("tc_aco", dict(rng_seed=7, fault_spec=(spec,)))
       for kind, spec in FAULTS.items()},
    "literal_polarities": ("tc_aco", dict(
        rng_seed=7, latency_polarity="literal", congestion_polarity="literal",
        fault_spec=(FaultSpec(behavior="drop", fraction=0.15, p=0.8),
                    FaultSpec(behavior="delay", fraction=0.15, extra=2)))),
    "congestion_window": ("tc_aco", dict(
        rng_seed=7, congestion_window=3, fault_spec=(FAULTS["flood"],))),
    # relays die under a fixed source, so its levels are recomputed on deaths
    "fixed_source": ("tc_aco", dict(rng_seed=7, source_policy="fixed", fault_spec=DROP)),
}


TRUST_DUMP_CASE = "tc_aco_deterministic_rank"
TRUST_DUMP_GOLDEN = "tc_aco_trust_dump.csv"
# no flood faults, so every terminal packet had been queued somewhere
ROUTE_DUMP_CASE = "fault_delay"
ROUTE_DUMP_GOLDEN = "fault_delay_routes.txt"


def case_simulation(name: str, log_routes: bool = False) -> Simulation:
    protocol, overrides = CASES[name]
    return Simulation(SimConfig(**{**BASE, **overrides}), protocol=protocol,
                      log_routes=log_routes)


def case_csv_text(name: str) -> str:
    return per_cycle_csv_text(case_simulation(name).run())


def trust_dump_golden_text() -> str:
    sim = case_simulation(TRUST_DUMP_CASE)
    sim.run()
    return trust_dump_text(sim)


def route_dump_golden_text() -> str:
    sim = case_simulation(ROUTE_DUMP_CASE, log_routes=True)
    sim.run()
    return route_dump_text(sim)


def read_golden(filename: str) -> str:
    with open(os.path.join(GOLDEN_DIR, filename), "r", encoding="utf-8",
              newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_cycle_csv_matches_golden(name):
    assert case_csv_text(name) == read_golden(f"{name}.csv")


def test_trust_dump_matches_golden():
    assert trust_dump_golden_text() == read_golden(TRUST_DUMP_GOLDEN)


def test_route_dump_matches_golden():
    assert route_dump_golden_text() == read_golden(ROUTE_DUMP_GOLDEN)


def compensated_sum(values, start=0):
    """``sum`` as CPython 3.12 and later give it, near enough to tell: float
    sums compensated for rounding (here, rounded once), integer sums exact."""
    values = list(values)
    if all(isinstance(v, int) for v in values) and isinstance(start, int):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


def test_goldens_hold_under_a_compensated_sum(monkeypatch):
    """The goldens do not depend on how the interpreter's ``sum`` rounds:
    with every ``sum`` in the package compensated, as from CPython 3.12 on,
    every golden is still matched, so a float sum that reaches an output
    must add left to right (``routing.left_sum``)."""
    for info in pkgutil.iter_modules(tcaco.__path__):
        module = importlib.import_module(f"tcaco.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    differ = [name for name in sorted(CASES)
              if case_csv_text(name) != read_golden(f"{name}.csv")]
    if trust_dump_golden_text() != read_golden(TRUST_DUMP_GOLDEN):
        differ.append(TRUST_DUMP_GOLDEN)
    if route_dump_golden_text() != read_golden(ROUTE_DUMP_GOLDEN):
        differ.append(ROUTE_DUMP_GOLDEN)
    assert not differ


def record_missing() -> None:
    goldens = {f"{name}.csv": partial(case_csv_text, name) for name in CASES}
    goldens[TRUST_DUMP_GOLDEN] = trust_dump_golden_text
    goldens[ROUTE_DUMP_GOLDEN] = route_dump_golden_text
    for filename, render in sorted(goldens.items()):
        path = os.path.join(GOLDEN_DIR, filename)
        if os.path.exists(path):
            continue
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render())
        print(f"recorded {path}")


if __name__ == "__main__":
    record_missing()
