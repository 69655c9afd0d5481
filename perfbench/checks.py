"""Correctness checks applied to every benchmark job.

Every job is checked against invariants of its ``SimMetrics``. At the seed
the reference digests were recorded for, the per-cycle CSVs and
``summary.json`` must also match those digests byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os

SUMMARY = "summary.json"


def invariant_failures(metrics) -> list[str]:
    """First violation of each per-row invariant, as messages."""
    first: dict[str, str] = {}
    generated = resolved = 0
    prev = None
    for row in metrics.cycles:
        generated += row.generated
        resolved += (row.delivered + row.dropped_overflow + row.dropped_timeout
                     + row.dropped_malicious)
        if generated != resolved + row.in_flight:
            first.setdefault("conservation", f"cycle {row.cycle}: generated {generated}"
                             f" != delivered + drops {resolved} + in_flight {row.in_flight}")
        if prev is not None and row.dead_nodes < prev.dead_nodes:
            first.setdefault("dead", f"cycle {row.cycle}: dead_nodes fell")
        if prev is not None and row.total_energy_j > prev.total_energy_j:
            first.setdefault("energy", f"cycle {row.cycle}: total_energy_j rose")
        prev = row
    return list(first.values())


def output_jobs(protocols, seeds) -> dict[str, tuple[str, int]]:
    """Map each per-job output stem written by ``run_experiment`` to its job."""
    return {f"{p}_rep{idx}": (p, seed) for p in protocols for idx, seed in enumerate(seeds)}


def file_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file in ``out_dir``."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def reference_files(digests: dict[str, str], stems) -> dict[str, str]:
    """The part of ``digests`` kept as a reference: per-cycle CSVs and the summary."""
    keep = {f"{stem}.csv" for stem in stems} | {SUMMARY}
    return {name: d for name, d in digests.items() if name in keep}


def digest_mismatches(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Names of files that are missing, extra, or differ."""
    return sorted(name for name in set(actual) | set(expected)
                  if actual.get(name) != expected.get(name))


def load_reference(path: str, key: str):
    """(seed, digests) recorded for ``key``, or None when there are none."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh).get(key)
    return None if entry is None else (entry["seed"], entry["files"])


def save_reference(path: str, key: str, seed: int, files: dict[str, str]) -> None:
    data = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data[key] = {"seed": seed, "files": files}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
