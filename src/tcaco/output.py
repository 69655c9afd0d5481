"""Machine-readable result emission: per-cycle CSV, milestone summary JSON,
trust table dumps, and route dumps.

The CSV column order is frozen; counters are cumulative so that every row
satisfies generated = delivered + drops + in-flight. Floats are written with
repr for byte-stable round-tripping.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .engine import MILESTONE_PERCENTAGES, SimMetrics, Simulation
from .trust import TRUSTWORTHY, UNTRUSTED

CSV_HEADER = ("cycle,generated,delivered,dropped_overflow,dropped_timeout,"
              "dropped_malicious,dead_nodes,total_energy_j")


def per_cycle_csv_text(metrics: SimMetrics) -> str:
    """Render the frozen-format per-cycle CSV with cumulative counters."""
    lines = [CSV_HEADER]
    gen = delivered = d_over = d_time = d_mal = 0
    for row in metrics.cycles:
        gen += row.generated
        delivered += row.delivered
        d_over += row.dropped_overflow
        d_time += row.dropped_timeout
        d_mal += row.dropped_malicious
        lines.append(
            f"{row.cycle},{gen},{delivered},{d_over},{d_time},{d_mal},"
            f"{row.dead_nodes},{row.total_energy_j!r}"
        )
    return "\n".join(lines) + "\n"


def lower_median(values: Sequence) -> Optional[float]:
    """Exact order statistic: middle element, or the lower of the two middles.

    None values sort last (treated as never-reached); a None median is
    returned as None.
    """
    if not values:
        return None
    ordered = sorted(values, key=lambda v: (1, 0.0) if v is None else (0, v))
    return ordered[(len(ordered) - 1) // 2]


def milestone_key(pct: int) -> str:
    return f"p{pct}"


def replicate_record(metrics: SimMetrics) -> dict:
    """One replicate's entry in summary.json: all the summary keeps of a run."""
    return {
        "seed": metrics.seed,
        "cycles_run": len(metrics.cycles),
        "termination": metrics.termination,
        "milestones": {
            milestone_key(p): metrics.milestones.get(p) for p in MILESTONE_PERCENTAGES
        },
    }


def summary_payload(records: dict[str, list[dict]], node_count: int) -> dict:
    """Milestone grid per protocol from its ``replicate_record``s, with
    replicate medians."""
    protocols = {}
    for protocol, replicates in records.items():
        medians = {
            key: lower_median([r["milestones"][key] for r in replicates])
            for key in map(milestone_key, MILESTONE_PERCENTAGES)
        }
        protocols[protocol] = {
            "replicates": replicates,
            "median_milestones": medians,
        }
    return {
        "node_count": node_count,
        "milestone_percentages": list(MILESTONE_PERCENTAGES),
        "protocols": protocols,
    }


def summary_json_text(records: dict[str, list[dict]], node_count: int) -> str:
    return json.dumps(summary_payload(records, node_count), indent=2, sort_keys=True) + "\n"


def trust_dump_text(sim: Simulation) -> str:
    """Per-link trust components CSV: i,j,ne,ptr,pl,t_ij,classification.

    The rows are ``sim.trust.rows()``: the full computation from the
    committed evidence and the snapshot of the last step 8, classified
    against the reader's threshold. Until the next cycle's step 8, each
    classification is what the trust filter's threshold test reads, and
    each ``t_ij`` what tc_aco's exact read returns.
    """
    threshold = sim.trust.threshold
    lines = ["i,j,ne,ptr,pl,t_ij,classification"]
    for i, rows in sim.trust.rows():
        for j, ne, ptr, pl, t_ij in rows:
            cls = TRUSTWORTHY if t_ij > threshold else UNTRUSTED
            lines.append(f"{i},{j},{ne!r},{ptr!r},{pl!r},{t_ij!r},{cls}")
    return "\n".join(lines) + "\n"


def route_dump_text(sim: Simulation) -> str:
    """One line per packet that reached a terminal fate since the last call:
    cycle, id, fate, trail.

    The lines are ``sim.route_log`` as kept, each already ending in a
    newline; the log is emptied, so called between cycles the text is
    one cycle's lines, and called once after a run it is the whole dump."""
    text = "".join(sim.route_log)
    sim.route_log.clear()
    return text
