"""Benchmark workloads: the experiment config each one hands to tcaco.

A workload turns the benchmark seed into one experiment JSON object that
goes through the user path (``tcaco.cli.load_experiment`` plus
``run_experiment``). Replicate seeds for seed ``s`` are ``R*s .. R*s+R-1``,
so different benchmark seeds never share a replicate.

Every job of a workload runs to the same cycle horizon. Replicates that are
left to stop on their own (60% dead, source dead) stop anywhere between
about 660 and 2500 cycles (``lifetime``) or 330 and 830 (``storm``), and
that alone moved run time by a quarter between seeds. The horizons below
sit under the earliest natural stop seen in 20 ``lifetime`` and 40 ``storm``
seeds, so the work per run no longer depends on where replicates stop.

Why these three (sizes measured with Python 3.11 on 2 cores):

* ``lifetime`` is the product's experiment: the shipped lifetime config
  (mirrors ``configs/lifetime_experiment.json``: n=50, rotating source, 20%
  drop faults, all four protocols, per-cycle and summary outputs) cut to
  its first 600 cycles. ``_recompute_trust`` is about half of tc_aco's
  time; the rotating source recomputes levels and the sink-component BFS
  every cycle.
* ``scale`` keeps the lifetime traffic (rotating source, drop faults, 20
  packets per cycle) but runs tc_aco alone at n=800 on a field of side
  200*sqrt(n/50), which keeps the density of ``lifetime``. 1000 cycles and
  no early stop; about 10.7k directed links. Network-wide sweeps (trust
  recompute, pheromone evaporation, queue aging, flow history) set the
  cost per cycle, and the O(n^2) distance matrix sets setup time and memory.
  At n=1600 the two runs of a pair (see ``run.py``) slowed each other by
  varying amounts, 57-72 s each against 44 s alone, which put cycle-time
  spread between seeds above 0.25; n=800 keeps it near 0.1.
* ``storm`` uses the same layers differently: n=100 on the default
  200x200 field (about 21 links per node), dist_aco with roulette
  forwarding, 100 packets per round, and 5% each of flood, duplicate,
  delay and drop faults, for 300 cycles. The forwarding sweep dominates,
  queues overflow and time out, the route log retains every packet, and
  the trust layer does no work, so a trust optimisation must show no
  change here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PROTOCOLS_ALL = ["tc_aco", "dist_aco", "trust_greedy", "naive_minhop"]

DROP_FAULTS = [{"behavior": "drop", "fraction": 0.2, "p": 0.8}]
STORM_FAULTS = [
    {"behavior": "flood", "fraction": 0.05, "rate": 4},
    {"behavior": "duplicate", "fraction": 0.05, "copies": 3},
    {"behavior": "delay", "fraction": 0.05, "extra": 2},
    {"behavior": "drop", "fraction": 0.05, "p": 0.5},
]


def _field_side(n: int) -> float:
    """Side of the square field that keeps the n=50, 200 m node density."""
    return 200.0 * math.sqrt(n / 50)


@dataclass(frozen=True)
class Workload:
    name: str
    sim: dict              # simulation keys of the experiment file
    protocols: tuple[str, ...]
    replicates: int
    emit: tuple[str, ...]
    # wrapped calls this workload never makes; every other one must fire
    silent: frozenset = frozenset()

    def experiment(self, seed: int, out_dir: str) -> dict:
        """The experiment JSON object for benchmark seed ``seed``."""
        r = self.replicates
        return {
            **self.sim,
            "protocols": list(self.protocols),
            "seeds": [r * seed + k for k in range(r)],
            "emit": list(self.emit),
            "out_dir": out_dir,
        }


_NO_DUMPS = frozenset({"output.trust_dump_text", "output.route_dump_text"})

WORKLOADS = {
    "lifetime": Workload(
        name="lifetime",
        sim={"source_policy": "random_per_round", "fault_spec": DROP_FAULTS,
             "max_cycles": 600},
        protocols=tuple(PROTOCOLS_ALL),
        replicates=8,
        emit=("per-cycle", "summary"),
        silent=_NO_DUMPS,
    ),
    "scale": Workload(
        name="scale",
        sim={"node_count": 800, "field_width": _field_side(800),
             "field_height": _field_side(800),
             "source_policy": "random_per_round", "fault_spec": DROP_FAULTS,
             "max_cycles": 1000},
        protocols=("tc_aco",),
        replicates=1,
        emit=("per-cycle", "summary"),
        silent=_NO_DUMPS,
    ),
    "storm": Workload(
        name="storm",
        sim={"node_count": 100, "source_policy": "random_per_round",
             "forwarding_mode": "stochastic_roulette", "packets_per_round": 100,
             "fault_spec": STORM_FAULTS, "max_cycles": 300},
        protocols=("dist_aco",),
        replicates=9,
        emit=("per-cycle", "summary", "trust", "routes"),
        # dist_aco neither filters on trust nor scores congestion
        silent=frozenset({"engine.recompute_trust", "congestion.congestion_index"}),
    ),
}

# Small versions for the benchmark's own tests: same layers, seconds to run.
TINY = {
    "lifetime": {"max_cycles": 60, "replicates": 1},
    "scale": {"node_count": 200, "field_width": _field_side(200),
              "field_height": _field_side(200), "max_cycles": 30},
    "storm": {"max_cycles": 40, "replicates": 1},
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not tiny:
        return w
    sim = dict(w.sim)
    replicates = w.replicates
    for key, value in TINY[name].items():
        if key == "replicates":
            replicates = value
        else:
            sim[key] = value
    return Workload(w.name, sim, w.protocols, replicates, w.emit, w.silent)
