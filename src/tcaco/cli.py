"""Command-line front end: experiment orchestration and output emission.

An experiment file is one JSON object mixing simulation keys with the
experiment-level keys ``protocols``, ``replicates``, ``seeds``,
``base_seed``, ``out_dir``, and ``emit``. Command-line flags override file
values. Replicate seeds derive as base_seed + replicate index unless an
explicit seed list is given; that list must not be empty, and a replicate
count given with it must match its length.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from .config import (ConfigError, ParseError, SimConfig, check_json_type,
                     config_from_dict, read_json_object, validate_config)
from .engine import PROTOCOLS, Simulation
from .output import (per_cycle_csv_text, replicate_record, route_dump_text,
                     summary_json_text, trust_dump_text)

EMIT_CHOICES = ("per-cycle", "summary", "trust", "routes")
DEFAULT_EMIT = ("per-cycle", "summary")

# the experiment-level keys and the JSON type of each
_EXPERIMENT_KEYS = {"protocols": list[str], "replicates": int, "seeds": Optional[list[int]],
                    "base_seed": int, "out_dir": str, "emit": list[str]}

# a replicate's route file, and its name while the job writes it
_ROUTES = "_routes.txt"
_ROUTES_PART = _ROUTES + ".part"


@dataclass(frozen=True)
class ExperimentSpec:
    config: SimConfig
    protocols: tuple[str, ...]
    seeds: tuple[int, ...]
    out_dir: str
    emit: tuple[str, ...]
    workers: int = 1


def _default_out_dir() -> str:
    return os.environ.get("TCACO_OUT", "tcaco_out")


def load_experiment(path: str | None, args: argparse.Namespace | None = None,
                    ) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON file plus flag overrides."""
    raw = {} if path is None else read_json_object(path)
    exp = {key: raw.pop(key) for key in _EXPERIMENT_KEYS if key in raw}
    for key, value in exp.items():
        check_json_type(key, value, _EXPERIMENT_KEYS[key])
    cfg = config_from_dict(raw)

    protocols = exp.get("protocols", ["tc_aco"])
    replicates = exp.get("replicates")
    base_seed = exp.get("base_seed", cfg.rng_seed)
    seeds = exp.get("seeds")
    out_dir = exp.get("out_dir", _default_out_dir())
    emit = exp.get("emit", list(DEFAULT_EMIT))
    workers = 1

    if args is not None:
        if args.protocol:
            protocols = [p.strip() for p in args.protocol.split(",") if p.strip()]
        if args.replicates is not None:
            replicates = args.replicates
        if args.seed is not None:
            base_seed = args.seed
            seeds = None
        if args.max_cycles is not None:
            cfg = replace(cfg, max_cycles=args.max_cycles)
        if args.out is not None:
            out_dir = args.out
        if args.emit:
            emit = [e.strip() for e in args.emit.split(",") if e.strip()]
        workers = args.workers

    cfg = validate_config(cfg)
    problems = []
    if not protocols:
        problems.append("protocol list is empty")
    for p in protocols:
        if p not in PROTOCOLS:
            problems.append(f"unknown protocol {p!r}")
    if replicates is not None and replicates < 1:
        problems.append("replicates must be >= 1")
    if workers < 1:
        problems.append("workers must be >= 1")
    if seeds is None:
        seeds = [base_seed + k for k in range(1 if replicates is None else replicates)]
    elif not seeds:
        problems.append("seed list is empty")
    elif replicates is not None and replicates != len(seeds):
        problems.append(f"replicates {replicates} contradicts the {len(seeds)} seeds {seeds}")
    if len(set(seeds)) != len(seeds):
        problems.append("seeds must be distinct")
    for e in emit:
        if e not in EMIT_CHOICES:
            problems.append(f"unknown emit flag {e!r}")
    if problems:
        raise ConfigError(problems)

    return ExperimentSpec(
        config=cfg,
        protocols=tuple(protocols),
        seeds=tuple(seeds),
        out_dir=out_dir,
        emit=tuple(emit),
        workers=workers,
    )


def _run_one(job: tuple[SimConfig, str, int, tuple[str, bool], bool]):
    """Worker entry: run one replicate; return its metrics and, when asked
    for, its trust dump text.

    The job is ``(config, protocol, seed, (file stem, trust wanted), routes
    wanted)``. With routes, the lines each cycle logs are written to
    ``<stem>_routes.txt.part`` as the cycle ends, so the replicate holds
    one cycle's lines at a time; ``run_experiment`` renames the file.
    """
    cfg, protocol, seed, (stem, want_trust), want_routes = job
    sim = Simulation(cfg, protocol=protocol, seed=seed, log_routes=want_routes)
    if want_routes:
        with open(f"{stem}{_ROUTES_PART}", "w", encoding="utf-8", newline="") as fh:
            def write_routes(sim: Simulation) -> None:
                fh.write(route_dump_text(sim))

            metrics = sim.run(after_cycle=write_routes)
            write_routes(sim)
    else:
        metrics = sim.run()
    return metrics, trust_dump_text(sim) if want_trust else None


def _attempt(run):
    """Call ``run``; return (its result, None), or (None, the exception it raised)."""
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - reported per job by the caller
        return None, exc


def _run_jobs(jobs: list, workers: int, take) -> None:
    """Run each job and call ``take(job, *outcome)`` with its ``_attempt``
    outcome, in job order, as soon as it is known.

    Nothing here holds an outcome once ``take`` has returned, so memory
    holds one job's artifacts at a time (in a pool, also those of jobs that
    finish ahead of their turn). If ``take`` raises, no later job starts.
    """
    if workers == 1:
        for job in jobs:
            take(job, *_attempt(partial(_run_one, job)))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            futures = [pool.submit(_run_one, job) for job in jobs]
            for k, job in enumerate(jobs):
                future, futures[k] = futures[k], None
                take(job, *_attempt(future.result))
        finally:
            pool.shutdown(cancel_futures=True)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_experiment(spec: ExperimentSpec) -> int:
    """Run every protocol x replicate, write outputs, return an exit code.

    Each replicate's files are written as soon as it ends, and only its
    summary record is kept, so memory holds one replicate's output at a
    time; summary.json is written last. Route lines are the exception: a
    job writes them to ``<stem>_routes.txt.part`` as each cycle ends, and
    that file is renamed to ``<stem>_routes.txt`` in job order, when the
    job's outcome is taken. No ``.part`` file outlives the experiment: a
    failed or cancelled job's is removed. A failed replicate is named on
    stderr and the others still write their files; summary.json is then
    left out and the exit code is 2. A write that fails, in a job or here,
    ends the experiment at once with exit code 3: no later replicate starts,
    the files already written stay, and summary.json is not written.
    """
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
        probe = os.path.join(spec.out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory unusable: {exc}", file=sys.stderr)
        return 3

    want_trust = "trust" in spec.emit
    want_routes = "routes" in spec.emit
    jobs = [
        (spec.config, protocol, seed,
         (os.path.join(spec.out_dir, f"{protocol}_rep{k}"), want_trust), want_routes)
        for protocol in spec.protocols
        for k, seed in enumerate(spec.seeds)
    ]
    failed = False
    records: dict[str, list[dict]] = {p: [] for p in spec.protocols}

    def take(job, artifacts, exc) -> None:
        nonlocal failed
        _, protocol, seed, (stem, _), _ = job
        if isinstance(exc, OSError):
            # the engine does no I/O: the job's route file failed
            raise exc
        if exc is not None:
            failed = True
            print(f"error: run failed ({protocol}, seed {seed}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return
        metrics, trust_text = artifacts
        records[protocol].append(replicate_record(metrics))
        if "per-cycle" in spec.emit:
            _write_text(f"{stem}.csv", per_cycle_csv_text(metrics))
        if trust_text is not None:
            _write_text(f"{stem}_trust.csv", trust_text)
        if want_routes:
            os.replace(f"{stem}{_ROUTES_PART}", f"{stem}{_ROUTES}")

    try:
        try:
            _run_jobs(jobs, spec.workers, take)
        finally:
            if want_routes:
                # every job has ended; what was not renamed is left from a
                # failed or cancelled job
                for _, _, _, (stem, _), _ in jobs:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(f"{stem}{_ROUTES_PART}")
        if failed:
            # a summary over the surviving replicates would pass for the full grid
            return 2
        if "summary" in spec.emit:
            _write_text(os.path.join(spec.out_dir, "summary.json"),
                        summary_json_text(records, spec.config.node_count))
    except OSError as exc:
        print(f"error: writing outputs failed: {exc}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcaco",
        description="Trust and congestion aware ant-routing lifetime simulator.",
    )
    parser.add_argument("--config", metavar="PATH", help="experiment JSON file")
    parser.add_argument("--protocol", metavar="NAME[,NAME...]",
                        help=f"protocols to run (choices: {', '.join(PROTOCOLS)})")
    parser.add_argument("--replicates", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="N", help="base seed")
    parser.add_argument("--max-cycles", type=int, metavar="N", dest="max_cycles")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default: $TCACO_OUT or ./tcaco_out)")
    parser.add_argument("--emit", metavar="LIST",
                        help=f"comma list from: {', '.join(EMIT_CHOICES)}")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="parallel replicate workers (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_experiment(args.config, args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_experiment(spec)
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
