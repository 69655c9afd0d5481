"""Acceptance suite: every release gate in one module.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible under ``pytest -s`` or on failure). The lifetime-ordering
experiment is shared between criteria through a session fixture: it runs
the shipped configs/lifetime_experiment.json scenario through
``run_experiment``, the user path, and the files it writes are checked
against two committed goldens, the summary JSON and the sha256 of every
replicate's per-cycle CSV.

Run this module as a script to record lifetime goldens that do not exist
yet; existing files are never overwritten.
"""

import hashlib
import json
import math
import os
import random
import tempfile
import time
from dataclasses import replace

import pytest

from tcaco.cli import build_parser, load_experiment, run_experiment
from tcaco.config import FaultSpec, SimConfig
from tcaco.congestion import FlowHistory
from tcaco.engine import MILESTONE_PERCENTAGES, run_simulation
from tcaco.output import per_cycle_csv_text
from tcaco.routing import PheromoneTable, transition_probabilities, trust_congestion_metric
from tcaco.trust import blend, trust_weights

from test_routing import one_link_step

HERE = os.path.dirname(__file__)
LIFETIME_CONFIG = os.path.join(HERE, os.pardir, "configs", "lifetime_experiment.json")
GOLDEN_CSV = os.path.join(HERE, "golden", "per_cycle_reference.csv")
LIFETIME_SUMMARY = os.path.join(HERE, "golden", "lifetime_summary.json")
LIFETIME_CSV_SHA256 = os.path.join(HERE, "golden", "lifetime_csv_sha256.json")

TOL = 1e-9


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def ci_case(inflows, outflows, frees):
    h = FlowHistory(1, 10)
    for a, b, f in zip(inflows, outflows, frees):
        h.record_cycle({0: a}, {0: b}, {0: f})
    return h.congestion_index(0)


def test_criterion_1_formula_conformance():
    checks = []

    def close(got, want):
        checks.append(abs(got - want) <= TOL)
        return checks[-1]

    # trust blend
    close(blend(0.6, 0.8, 0.4, trust_weights(1, 1, 1)), 0.6)
    close(blend(1.0, 1.0, 1.0, trust_weights(0.3, 0.9, 0.05)), 1.0)
    close(blend(0.5, 1.0, 0.0, trust_weights(1.0, 0.5, 0.5)), 0.5)
    close(blend(0.2, 0.4, 0.6, trust_weights(1.0, 0.5, 0.25)), 0.55 / 1.75)
    close(blend(0.0, 0.0, 0.0, trust_weights(1, 1, 1)), 0.0)
    close(blend(0.9, 0.3, 0.7, trust_weights(0.5, 1.0, 0.25)), 0.925 / 1.75)

    # congestion index
    close(ci_case([5], [3], [1]), 0.5)
    close(ci_case([2], [4], [2]), 0.0)
    close(ci_case([3], [0], [4]), 1.0)
    close(ci_case([4, 6], [2, 4], [9, 3]), 0.625)
    close(ci_case([1], [5], [1]), 0.0)          # negative numerator clamps
    close(ci_case([0], [0], [0]), 0.0)          # zero denominator
    close(ci_case([2, 3, 4], [1, 1, 1], [9, 9, 5]), 0.875)

    # trust-congestion blend, both polarities
    close(trust_congestion_metric(0.73, 0.9, 0.0, "inverted"), 0.73)
    close(trust_congestion_metric(0.73, 0.9, 0.0, "literal"), 0.73)
    close(trust_congestion_metric(0.2, 0.4, 1.0, "inverted"), 0.6)
    close(trust_congestion_metric(0.2, 0.4, 1.0, "literal"), 0.4)
    close(trust_congestion_metric(0.8, 0.4, 0.5, "inverted"), 0.70)
    close(trust_congestion_metric(0.8, 0.4, 0.5, "literal"), 0.60)
    close(trust_congestion_metric(0.4, 0.2, 0.25, "inverted"), 0.50)
    close(trust_congestion_metric(0.4, 0.2, 0.25, "literal"), 0.35)
    close(trust_congestion_metric(1.0, 1.0, 1.0, "inverted"), 0.0)

    # transition probabilities
    p = transition_probabilities([(7, 0.5, 25.0, 2.0)], 1, 1, 1)
    checks.append(abs(p[7] - 1.0) <= TOL)
    p = transition_probabilities([(1, 0.6, 20.0, 1.5), (2, 0.6, 20.0, 1.5)], 1, 1, 1)
    checks.append(abs(p[1] - 0.5) <= TOL and abs(p[2] - 0.5) <= TOL)
    p = transition_probabilities([(1, 0.8, 10.0, 1.0), (2, 0.4, 20.0, 1.0)], 1, 1, 1)
    checks.append(abs(p[1] - 0.8) <= TOL and abs(p[2] - 0.2) <= TOL)
    p = transition_probabilities([(1, 0.9, 2.0, 5.0), (2, 0.1, 8.0, 0.3)], 0, 1, 0)
    checks.append(abs(p[1] - 0.8) <= TOL and abs(p[2] - 0.2) <= TOL)
    p = transition_probabilities([(1, 0.5, 3.0, 2.0), (2, 0.25, 3.0, 4.0)], 1, 0, 2)
    checks.append(abs(p[1] - 1 / 3) <= TOL and abs(p[2] - 2 / 3) <= TOL)
    p = transition_probabilities([(1, 0.25, 5.0, 9.0), (2, 1.0, 10.0, 9.0)], 0.5, 1, 0)
    checks.append(abs(p[1] - 0.5) <= TOL and abs(p[2] - 0.5) <= TOL)

    # pheromone update
    close(one_link_step(5.0, 1.0, 12, 4.0), 3.0)
    close(one_link_step(1.7, 0.0, 0, 9.0), 1.7)
    close(one_link_step(1.0, 0.1, 5, 10.0), 1.4)
    close(one_link_step(1.0, 0.25, 3, 2.0, deposit_scale=2.0), 3.75)
    close(one_link_step(2.0, 0.5, 0, 7.0), 1.0)
    close(one_link_step(1e-6, 0.5, 0, 5.0), 1e-6)

    report(1, "formula conformance", all(checks),
           f"{len(checks)} hand-computed cases within {TOL}")


def test_criterion_2_probability_normalization():
    rng = random.Random(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        size = rng.randint(1, 10)
        cands = [
            (k, rng.random(), rng.uniform(0.1, 300.0), rng.uniform(1e-6, 100.0))
            for k in range(size)
        ]
        betas = (rng.random(), rng.random(), rng.random())
        probs = transition_probabilities(cands, *betas)
        total = sum(probs.values())
        worst = max(worst, abs(total - 1.0))
        assert all(-TOL <= v <= 1.0 + TOL for v in probs.values())
    elapsed = time.perf_counter() - start
    report(2, "probability normalization", worst <= TOL and elapsed < 5.0,
           f"10000 candidate sets, worst |sum-1| = {worst:.2e}, {elapsed:.2f}s")


def replay_ci(inflows, outflows, frees, c):
    completed = c - 1
    if completed <= 0:
        return 0.0
    r_in = sum(inflows[:completed]) / completed
    r_out = sum(outflows[:completed]) / completed
    q_prev = frees[completed - 1]
    denom = r_in + q_prev
    if denom <= 0:
        return 0.0
    return min(1.0, max(0.0, (r_in + q_prev - r_out) / denom))


def test_criterion_3_congestion_oracle_equivalence():
    rng = random.Random(31415)
    mismatches = 0
    for _ in range(1000):
        nodes = rng.randint(1, 5)
        cycles = rng.randint(2, 20)
        h = FlowHistory(nodes, 10)
        trace = {k: ([], [], []) for k in range(nodes)}
        for _ in range(cycles):
            a = [rng.randint(0, 30) for _ in range(nodes)]
            b = [rng.randint(0, 30) for _ in range(nodes)]
            f = [rng.randint(0, 10) for _ in range(nodes)]
            h.record_cycle(dict(enumerate(a)), dict(enumerate(b)), dict(enumerate(f)))
            for k in range(nodes):
                trace[k][0].append(a[k])
                trace[k][1].append(b[k])
                trace[k][2].append(f[k])
            # query each checked cycle c right after cycle c-1 is recorded
            c = len(trace[0][0]) + 1
            if c in (2, cycles // 2 + 1, cycles + 1):
                for k in range(nodes):
                    if h.congestion_index(k) != replay_ci(*trace[k], c):
                        mismatches += 1
    report(3, "congestion-index oracle equivalence", mismatches == 0,
           f"1000 random traces, {mismatches} mismatches (exact comparison)")


def lifetime_spec():
    args = build_parser().parse_args([])
    return load_experiment(LIFETIME_CONFIG, args)


def test_criterion_4_conservation_suite():
    spec = lifetime_spec()
    cfg = replace(spec.config, max_cycles=200)
    metrics = run_simulation(cfg, protocol="tc_aco", seed=1)
    assert len(metrics.cycles) == 200, metrics.termination
    violations = 0
    gen = dele = dov = dti = dma = 0
    prev_energy = math.inf
    prev_dead = -1
    for row in metrics.cycles:
        gen += row.generated
        dele += row.delivered
        dov += row.dropped_overflow
        dti += row.dropped_timeout
        dma += row.dropped_malicious
        if gen != dele + dov + dti + dma + row.in_flight:
            violations += 1
        if row.total_energy_j > prev_energy + 1e-12:
            violations += 1
        if row.dead_nodes < prev_dead:
            violations += 1
        prev_energy = row.total_energy_j
        prev_dead = row.dead_nodes
    report(4, "conservation suite", violations == 0,
           f"200 cycles x 50 nodes, {violations} violations")


def test_criterion_5_malicious_isolation():
    cfg = SimConfig(node_count=50, max_cycles=150, rng_seed=22,
                    fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=1.0),))
    t0 = time.perf_counter()
    tc = run_simulation(cfg, protocol="tc_aco", seed=22)
    tc_time = time.perf_counter() - t0
    fm = [r.forwarded_to_malicious for r in tc.cycles]
    isolated = all(v == 0 for v in fm[49:])
    engaged = any(v > 0 for v in fm[:49])

    t0 = time.perf_counter()
    da = run_simulation(cfg, protocol="dist_aco", seed=22)
    da_time = time.perf_counter() - t0
    fm_da = [r.forwarded_to_malicious for r in da.cycles]
    frac = sum(1 for v in fm_da if v > 0) / len(fm_da)

    ok = isolated and engaged and frac >= 0.8 and tc_time < 10 and da_time < 10
    report(5, "malicious isolation", ok,
           f"tc_aco zero from cycle 50 on (last touch cycle "
           f"{max((i + 1 for i, v in enumerate(fm) if v), default=0)}), "
           f"dist_aco receipt fraction {frac:.2f}, "
           f"runtimes {tc_time:.1f}s/{da_time:.1f}s")


def write_lifetime(out_dir):
    """Run the shipped experiment through ``run_experiment`` into ``out_dir``,
    one worker per available CPU up to the job count; return its spec and
    the seconds it took."""
    spec = lifetime_spec()
    jobs = len(spec.protocols) * len(spec.seeds)
    spec = replace(spec, out_dir=str(out_dir),
                   workers=min(len(os.sched_getaffinity(0)), jobs))
    start = time.perf_counter()
    assert run_experiment(spec) == 0
    return spec, time.perf_counter() - start


@pytest.fixture(scope="session")
def lifetime_results(tmp_path_factory):
    """The output directory of the shipped experiment, its spec and its run
    time."""
    out_dir = tmp_path_factory.mktemp("lifetime")
    return (out_dir, *write_lifetime(out_dir))


def written_digests(out_dir, spec):
    """``[{protocol, seed, sha256}]`` of each per-cycle CSV ``run_experiment``
    wrote to ``out_dir``, in job order."""
    digests = []
    for protocol in spec.protocols:
        for k, seed in enumerate(spec.seeds):
            with open(os.path.join(out_dir, f"{protocol}_rep{k}.csv"), "rb") as fh:
                digests.append({"protocol": protocol, "seed": seed,
                                "sha256": hashlib.sha256(fh.read()).hexdigest()})
    return digests


def read_text(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def test_lifetime_summary_matches_golden(lifetime_results):
    out_dir, _, _ = lifetime_results
    assert read_text(os.path.join(out_dir, "summary.json")) == read_text(LIFETIME_SUMMARY)


def test_lifetime_csv_digests_match_golden(lifetime_results):
    out_dir, spec, _ = lifetime_results
    assert written_digests(out_dir, spec) == json.loads(read_text(LIFETIME_CSV_SHA256))


def test_golden_p60_is_reached_exactly_by_the_dead_fraction_stops():
    """The stop rule and the 60% milestone count against one threshold, so
    in the golden grid p60 is set exactly when a run stopped on
    ``dead_fraction``, and then at its last cycle."""
    summary = json.loads(read_text(LIFETIME_SUMMARY))
    stops = 0
    for protocol in summary["protocols"].values():
        for rep in protocol["replicates"]:
            p60 = rep["milestones"]["p60"]
            if rep["termination"] == "dead_fraction":
                assert p60 == rep["cycles_run"], rep
                stops += 1
            else:
                assert p60 is None, rep
    assert stops


def written_summary(lifetime_results):
    out_dir, _, _ = lifetime_results
    return json.loads(read_text(os.path.join(out_dir, "summary.json")))["protocols"]


def milestone_grid(summary):
    lines = ["protocol        " + "".join(f"{f'{p}%':>8}" for p in MILESTONE_PERCENTAGES)]
    for protocol, block in summary.items():
        meds = block["median_milestones"]
        cells = "".join(f"{'-' if meds[f'p{p}'] is None else meds[f'p{p}']:>8}"
                        for p in MILESTONE_PERCENTAGES)
        lines.append(f"{protocol:<16}{cells}")
    return "\n".join(lines)


def test_criterion_6_lifetime_ordering(lifetime_results):
    _, _, elapsed = lifetime_results
    summary = written_summary(lifetime_results)
    med = {protocol: block["median_milestones"]["p30"]
           for protocol, block in summary.items()}
    print("\nmedian rounds per dead-node percentage "
          f"({len(summary['tc_aco']['replicates'])} replicates):")
    print(milestone_grid(summary))
    ok = (
        med["tc_aco"] is not None
        and med["naive_minhop"] is not None
        and med["dist_aco"] is not None
        and med["trust_greedy"] is not None
        and med["tc_aco"] >= 1.05 * med["naive_minhop"]
        and med["tc_aco"] >= med["dist_aco"]
        and med["tc_aco"] >= med["trust_greedy"]
        and elapsed < 300.0
    )
    report(6, "lifetime ordering", ok,
           f"median rounds to 30% dead: tc_aco={med['tc_aco']} "
           f"dist_aco={med['dist_aco']} trust_greedy={med['trust_greedy']} "
           f"naive_minhop={med['naive_minhop']} "
           f"(tc/naive={med['tc_aco'] / med['naive_minhop']:.3f}), {elapsed:.0f}s")


def test_criterion_7_milestone_monotonicity(lifetime_results):
    summary = written_summary(lifetime_results)
    keys = [f"p{p}" for p in MILESTONE_PERCENTAGES]
    bad = 0
    for block in summary.values():
        rows = [[rep["milestones"][key] for key in keys] for rep in block["replicates"]]
        rows.append([block["median_milestones"][key] for key in keys])
        for row in rows:
            reached = [v for v in row if v is not None]
            if reached != sorted(reached):
                bad += 1
            # dead counts are monotone, so a reached milestone cannot follow
            # an unreached one
            seen_none = False
            for v in row:
                if v is None:
                    seen_none = True
                elif seen_none:
                    bad += 1
                    break
    report(7, "milestone monotonicity", bad == 0,
           f"{sum(len(b['replicates']) + 1 for b in summary.values())} milestone rows "
           f"checked, {bad} violations")


GOLDEN_CFG = SimConfig(
    node_count=12, field_width=80.0, field_height=80.0, packets_per_round=5,
    max_cycles=25, rng_seed=4, source_policy="random_per_round",
    fault_spec=(FaultSpec(behavior="drop", fraction=0.2, p=0.9),),
)


def golden_csv_text():
    return per_cycle_csv_text(run_simulation(GOLDEN_CFG))


def test_criterion_8_determinism_golden():
    first = golden_csv_text()
    second = golden_csv_text()
    committed = read_text(GOLDEN_CSV)
    ok = first == second and first == committed
    report(8, "determinism golden", ok,
           f"{len(first.splitlines()) - 1} cycles, re-run identical: "
           f"{first == second}, matches committed reference: {first == committed}")


def test_criterion_9_degenerate_inputs():
    checks = []
    probs = transition_probabilities([(3, 0.7, 12.0, 1.0)], 1, 1, 1)
    checks.append(probs[3] == 1.0)
    probs = transition_probabilities(
        [(1, 0.0, 10.0, 1.0), (2, 0.0, 25.0, 2.0), (3, 0.0, 40.0, 0.5)], 1, 1, 1)
    checks.append(all(abs(v - 1 / 3) <= TOL for v in probs.values()))
    checks.append(FlowHistory(1, 10).congestion_index(0) == 0.0)
    table = PheromoneTable([(1,), ()], 1.0, 1e-6, 0.1)
    for _ in range(10_000):
        table.update_cycle({}, lambda i, j: 10.0)
    checks.append(table.row(0)[1] >= 1e-6)
    report(9, "degenerate-input suite", all(checks),
           "single candidate, uniform fallback, cycle-1 bootstrap, pheromone floor")


def record_missing() -> None:
    missing = [path for path in (LIFETIME_SUMMARY, LIFETIME_CSV_SHA256)
               if not os.path.exists(path)]
    if not missing:
        return
    with tempfile.TemporaryDirectory() as out_dir:
        spec, _ = write_lifetime(out_dir)
        texts = {LIFETIME_SUMMARY: read_text(os.path.join(out_dir, "summary.json")),
                 LIFETIME_CSV_SHA256: json.dumps(written_digests(out_dir, spec),
                                                 indent=1) + "\n"}
    for path in missing:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(texts[path])
        print(f"recorded {path}")


if __name__ == "__main__":
    record_missing()
