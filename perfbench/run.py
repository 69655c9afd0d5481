"""tcaco benchmark: run one workload through the user path, check it, print metrics.

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tcaco is imported from ``src/``.
Each run of the workload goes through ``tcaco.cli.load_experiment`` plus
``run_experiment`` (one worker) in a fresh child process, writing its
outputs to a temporary directory under ``.perfbench/``.

On the shared 2-vCPU host this benchmark was sized on, the same pure-Python
work swings between speeds up to 1.75x apart for seconds to minutes at a
time, on one vCPU or both. Untraced runs therefore time a fixed reference
kernel between cycles and report every time scaled to the kernel's
reference speed (``speed.py``).

Runs come in pairs started together, each pinned to its own CPU when the
process may use two. Both runs of a pair do identical, deterministic work:
timings take the faster of the two for each aligned part (each cycle, the
rest of each job, the final writes). Pairs go on while the next one still
fits in ``--seconds``; there is always at least one, and results are
medians over pairs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs an
untraced run with a traced one and reports the per-layer metrics; the spans
of the last traced run are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

A human-readable table goes to stdout, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every job passed its checks, 1 when one failed, and 2 when the
benchmark itself could not run (then no JSON is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
DEADLINE_S = 170.0   # the whole run must end within 180 s
MIN_SETUP_SAMPLES = 11   # Simulation constructions per run, at least

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cycles_per_s": "cycles/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

TIMED = ("cli.run_experiment", "topology.build_topology", "engine.run_cycle") \
    + tracing.CYCLE_PHASES + tuple(f"output.{name}" for name in tracing.OUTPUTS)
COUNTED = ("trust.record_send", "trust.record_ack", "trust.record_latency",
           "energy.debit", "energy.tx_cost")
RATIOS = {
    "engine.transmit.ack_ratio": "engine.transmit",
    "routing.select_next_hop.none_frac": "routing.select_next_hop",
    "congestion.enqueue.reject_frac": "congestion.enqueue",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        if name == "engine.run_cycle":
            units[f"{name}.self_s"] = "s"
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units["topology.links"] = "count"
    units["model.packets_generated"] = "count"
    units["cli.write_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


_clock = time.perf_counter


# ------------------------------------------------------------------- child

def child(spec_path: str) -> int:
    """Run the workload once in this fresh process and write what it saw."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, SRC)
    from tcaco import cli, engine

    jobs: list[list] = []          # [protocol, seed, problems] per job
    job_spans: list[tuple] = []    # (start, end, seconds of its cycles and kernel passes)
    job_passes_s = 0.0             # seconds of the kernel passes inside jobs
    finished: list = []            # (problems, SimMetrics) of jobs that returned
    cycles: list[tuple] = []       # (seconds, end) of each cycle
    setups: list[tuple] = []       # (seconds, end) of each Simulation construction
    setup_block_s = 0.0            # wall time of the constructions, passes included
    run_one = cli._run_one
    # untraced runs time everything against the host's speed at that moment
    host = None if spec["trace"] else speed.Speed()

    def capture_job(job):
        nonlocal setup_block_s, job_passes_s
        cfg, protocol, seed, _, log_routes = job
        # setup samples spread over the whole run, so they see the host the
        # cycles see; each construction is dropped before the job makes its own
        block = _clock()
        for _ in range(spec["setup_per_job"]):
            host.sample()
            t0 = _clock()
            engine.Simulation(cfg, protocol=protocol, seed=seed, log_routes=log_routes)
            t1 = _clock()
            setups.append((t1 - t0, t1))
        if spec["setup_per_job"]:
            host.sample()
        setup_block_s += _clock() - block
        problems: list[str] = []
        jobs.append([protocol, seed, problems])
        first = len(cycles)
        spent = host.spent if host else 0.0
        t0 = _clock()
        try:
            outcome = run_one(job)
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
            raise
        finally:
            passes = host.spent - spent if host else 0.0
            job_passes_s += passes
            job_spans.append((t0, _clock(), sum(s for s, _ in cycles[first:]) + passes))
        finished.append((problems, outcome[0]))
        return outcome

    cli._run_one = capture_job

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    else:
        run_cycle = engine.Simulation.run_cycle

        def timed_cycle(self):
            t0 = _clock()
            row = run_cycle(self)
            t1 = _clock()
            cycles.append((t1 - t0, t1))
            host.tick()
            return row

        engine.Simulation.run_cycle = timed_cycle

    experiment = cli.load_experiment(spec["config"])
    if host:
        host.sample()
    t0 = _clock()
    rc = cli.run_experiment(experiment)
    t1 = _clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s = t1 - t0 - setup_block_s - sum(end - start for start, end, _ in job_spans)

    for problems, metrics in finished:
        problems.extend(checks.invariant_failures(metrics))
    result = {
        "rc": rc,
        "run_s": t1 - t0 - setup_block_s - job_passes_s,   # host seconds, as measured
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
        "generated": sum(row.generated for _, m in finished for row in m.cycles),
    }
    if host:
        host.sample()
        # every timed part at reference host speed; see speed.py
        result["cycle_s"] = [host.scaled(s, end - s / 2) for s, end in cycles]
        result["setup_s"] = [host.scaled(s, end - s / 2) for s, end in setups]
        result["rest_s"] = [host.scaled(end - start - inner, (start + end) / 2)
                            for start, end, inner in job_spans]
        result["tail_s"] = host.scaled(tail_s, t1 - tail_s / 2)   # mostly the writes
        result["slowdown"] = statistics.median(t / speed.REFERENCE_S for t in host.took)
    if tracer is not None:
        tracer.restore()
        result["stats"] = {name: [s.calls, s.total, s.self_time, s.hits]
                           for name, s in tracer.stats.items()}
        result["dropped_spans"] = tracer.dropped_spans
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


# ------------------------------------------------------------------ parent

class Rep:
    """One run of the whole workload, by one child process."""

    def __init__(self, result: dict, digests: dict[str, str]):
        self.result = result
        self.digests = digests
        self.failures: dict[tuple[str, int], list[str]] = {
            (protocol, seed): list(problems)
            for protocol, seed, problems in result["jobs"]
        }
        if result["rc"] != 0 and not any(self.failures.values()):
            for problems in self.failures.values():
                problems.append(f"run_experiment returned {result['rc']}")

    def segments(self) -> list[float]:
        """run_s split into aligned parts: each cycle, each job's rest, the writes.

        Every part is at reference host speed; the setup constructions made
        between jobs and the kernel passes are left out.
        """
        r = self.result
        return r["cycle_s"] + r["rest_s"] + [r["tail_s"]]

    def fail_files(self, names, stems: dict[str, tuple[str, int]], why: str) -> None:
        """Charge each differing output file to the job that wrote it."""
        for name in names:
            owners = [job for stem, job in stems.items()
                      if name.startswith(stem + ".") or name.startswith(stem + "_")]
            for job in owners or list(self.failures):
                self.failures.setdefault(job, []).append(f"{why}: {name}")

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.failures.values() if problems)


def fastest(series: list[list[float]]) -> list[float]:
    """Element-wise minimum of equally long series from identical runs."""
    if any(len(s) != len(series[0]) for s in series):
        raise BenchError("identical runs timed different numbers of parts")
    return [min(values) for values in zip(*series)]


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, tmp: str, start: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.start = start
        self.count = 0
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = cpus[:2] if len(cpus) >= 2 else [None]

    def _spec(self, trace: bool, cpu, setup_per_job: int, spans_path) -> dict:
        k = self.count
        self.count += 1
        out_dir = os.path.join(self.tmp, f"out{k}")
        config = os.path.join(self.tmp, f"experiment{k}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(self.workload.experiment(self.seed, out_dir), fh, indent=2)
        spec = {
            "config": config,
            "out_dir": out_dir,
            "trace": trace,
            "cpu": cpu,
            "setup_per_job": setup_per_job,
            "result": os.path.join(self.tmp, f"result{k}.json"),
            "spans": spans_path or os.path.join(self.tmp, f"spans{k}.jsonl"),
            "path": os.path.join(self.tmp, f"child{k}.json"),
        }
        with open(spec["path"], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return spec

    def run_pair(self, traces: tuple[bool, bool], setup_per_job: int = 0,
                 spans_path: str | None = None) -> list[Rep]:
        """Run the workload twice, at once on two CPUs when there are two.

        The runs are identical and deterministic, so whatever one of them
        lost to other load on the host shows as a difference between them.
        """
        specs = [self._spec(trace, self.cpus[k % len(self.cpus)], setup_per_job, spans_path)
                 for k, trace in enumerate(traces)]
        concurrent = len(self.cpus) == 2
        procs: list[subprocess.Popen] = []
        try:
            for spec in specs:
                procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--child", spec["path"]],
                    stdout=sys.stderr.fileno()))
                if not concurrent:
                    self._wait(procs[-1])
            for proc in procs:
                self._wait(proc)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        reps = []
        for spec in specs:
            with open(spec["result"], "r", encoding="utf-8") as fh:
                result = json.load(fh)
            out_dir = spec["out_dir"]
            digests = checks.file_digests(out_dir) if os.path.isdir(out_dir) else {}
            shutil.rmtree(out_dir, ignore_errors=True)
            reps.append(Rep(result, digests))
        return reps

    def _wait(self, proc: subprocess.Popen) -> None:
        timeout = self.start + DEADLINE_S - _clock()
        try:
            code = proc.wait(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"a run went past the {DEADLINE_S:.0f} s deadline")
        if code != 0:
            raise BenchError(f"a run exited with code {code}")

    def elapsed(self) -> float:
        return _clock() - self.start

    def pairs(self, traces: tuple[bool, bool], seconds: float, **kwargs) -> list[list[Rep]]:
        """Run pairs while the next one still fits in ``seconds``; at least one."""
        done: list[list[Rep]] = []
        wall_s = 0.0
        while not done or self.elapsed() + wall_s <= seconds:
            t0 = _clock()
            done.append(self.run_pair(traces, **kwargs))
            wall_s = _clock() - t0
        return done


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def check_digests(bench: Bench, reps: list[Rep], reference_key: str,
                  digests_path: str) -> str:
    """Compare outputs across repetitions and with the reference; say what ran."""
    w = bench.workload
    seeds = w.experiment(bench.seed, "")["seeds"]
    stems = checks.output_jobs(w.protocols, seeds)
    first = reps[0]
    for rep in reps[1:]:
        rep.fail_files(checks.digest_mismatches(rep.digests, first.digests), stems,
                       "output differs from the first repetition")
    reference = checks.load_reference(digests_path, reference_key)
    if reference is None or reference[0] != bench.seed:
        return "invariants only"
    for rep in reps:
        actual = checks.reference_files(rep.digests, stems)
        rep.fail_files(checks.digest_mismatches(actual, reference[1]), stems,
                       "digest differs from the reference")
    return "invariants + reference digests"


def end_to_end(bench: Bench, seconds: float) -> tuple[list[Rep], dict, dict]:
    jobs = len(bench.workload.protocols) * bench.workload.replicates
    pairs = bench.pairs((False, False), seconds,
                        setup_per_job=-(-MIN_SETUP_SAMPLES // jobs))
    cycles = [s for pair in pairs
              for s in fastest([rep.result["cycle_s"] for rep in pair])]
    setup = [s for pair in pairs
             for s in fastest([rep.result["setup_s"] for rep in pair])]
    if not cycles:
        raise BenchError("no cycle completed")
    reps = [rep for pair in pairs for rep in pair]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(fastest([rep.segments() for rep in pair]))
                                   for pair in pairs),
        "cycles_per_s": len(cycles) / sum(cycles),
        "cycle_ms_p50": 1000.0 * statistics.median(cycles),
        "cycle_ms_p99": 1000.0 * percentile(cycles, 99),
        "peak_rss_mb": statistics.median(rep.result["peak_rss_mb"] for rep in reps),
    }
    beyond = sum(1 for s in cycles if 1000.0 * s > values["cycle_ms_p99"])
    notes = {
        "setup_s": f"{len(setup)} constructions",
        "run_s": f"median of {len(pairs)} pairs; host seconds of single runs: "
                 + ", ".join(f"{rep.result['run_s']:.4g}" for rep in reps)
                 + "; host slowdowns: "
                 + ", ".join(f"{rep.result['slowdown']:.3g}" for rep in reps),
        "cycles_per_s": f"{len(cycles)} cycles",
        "cycle_ms_p50": f"{len(cycles)} samples",
        "cycle_ms_p99": f"{len(cycles)} samples, {beyond} beyond",
        "peak_rss_mb": f"median of {len(reps)} fresh processes",
    }
    return reps, values, notes


def layer_values(rep: Rep, base: Rep) -> dict[str, float]:
    stats = rep.result["stats"]
    values: dict[str, float] = {}
    for name in TIMED:
        calls, total, self_s, _ = stats[name]
        values[f"{name}.s"] = total
        values[f"{name}.calls"] = calls
        if name == "engine.run_cycle":
            values[f"{name}.self_s"] = self_s
    for name, base_name in RATIOS.items():
        calls, _, _, hits = stats[base_name]
        values[name] = hits / calls if calls else 0.0
    for name in COUNTED:
        values[f"{name}.calls"] = stats[name][0]
    values["topology.links"] = stats["topology.build_topology"][3]
    values["model.packets_generated"] = stats["model.packets_generated"][0]
    values["cli.write_s"] = stats["cli.run_experiment"][1] - stats["cli.job"][1]
    values["trace.overhead_frac"] = rep.result["run_s"] / base.result["run_s"] - 1.0
    return values


def check_instrumentation(workload: workloads.Workload, rep: Rep) -> None:
    """Fail loudly when a wrapper stopped firing or the self times do not add up."""
    stats = rep.result["stats"]
    silent = sorted(name for name, (calls, _, _, _) in stats.items()
                    if calls == 0 and name not in workload.silent)
    if silent:
        raise BenchError(f"wrapped calls never fired on {workload.name}: {silent}")
    _, cycle_total, cycle_self, _ = stats["engine.run_cycle"]
    accounted = cycle_self + sum(stats[name][2] for name in tracing.CYCLE_PHASES)
    if abs(accounted - cycle_total) > 1e-6 * max(cycle_total, 1.0):
        raise BenchError(f"phase self times add to {accounted}, run_cycle took {cycle_total}")
    if not rep.failed and rep.result["generated"] != stats["model.packets_generated"][0]:
        raise BenchError("Packet constructions differ from the packets the rows count")


def traced(bench: Bench, seconds: float, spans_path: str) -> tuple[list[Rep], dict, dict]:
    pairs = bench.pairs((False, True), seconds, spans_path=spans_path)
    per_pair = []
    for base, rep in pairs:
        check_instrumentation(bench.workload, rep)
        per_pair.append(layer_values(rep, base))
    reps = [rep for pair in pairs for rep in pair]
    values = {}
    for name, unit in per_layer_units().items():
        samples = [v[name] for v in per_pair]
        if unit == "s" or name == "trace.overhead_frac":
            values[name] = statistics.median(samples)
        else:
            values[name] = samples[0]
            if any(s != samples[0] for s in samples):
                for problems in reps[1].failures.values():
                    problems.append(f"{name} differs across traced runs")
    dropped = sum(rep.result["dropped_spans"] for _, rep in pairs)
    notes = {name: (f"median of {len(pairs)} traced runs" if unit == "s"
                    else f"same in {len(pairs)} traced runs")
             for name, unit in per_layer_units().items()}
    notes["trace.overhead_frac"] = (f"median of {len(pairs)} traced runs, "
                                    f"each beside an untraced one; {dropped} spans dropped")
    return reps, values, notes


def report(workload: str, seed: int, reps: list[Rep], values: dict, units: dict,
           notes: dict, how: str) -> dict:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for k, rep in enumerate(reps):
        for (protocol, job_seed), problems in rep.failures.items():
            for problem in problems:
                print(f"FAILED {workload} repetition {k}, {protocol} seed {job_seed}: "
                      f"{problem}", file=sys.stderr)
    print(f"# {workload} seed {seed}: {len(reps)} repetitions, {attempted} jobs, "
          f"correctness: {how}")
    rows = [(name, values[name], units[name], notes.get(name, "")) for name in units]
    rows.append(("failed_frac", failed / attempted if attempted else 1.0, "ratio",
                 f"{failed} of {attempted} jobs"))
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:>16.6g} {unit:9s} {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--digests", default=DIGESTS,
                        help="reference digest file (default: perfbench/digests.json)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the reference for --seed")
    parser.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child(args.child)
    start = _clock()
    if not os.path.isfile(os.path.join(SRC, "tcaco", "__init__.py")):
        print(f"error: no tcaco sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.get(args.workload, tiny=args.tiny)
    reference_key = workload.name + ("@tiny" if args.tiny else "")
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        bench = Bench(workload, args.seed, tmp, start)
        if args.trace:
            spans = os.path.join(WORK_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
            reps, values, notes = traced(bench, args.seconds, spans)
            units = per_layer_units()
        else:
            reps, values, notes = end_to_end(bench, args.seconds)
            units = END_TO_END
        if args.record_digests:
            stems = checks.output_jobs(workload.protocols,
                                       workload.experiment(args.seed, "")["seeds"])
            checks.save_reference(args.digests, reference_key, args.seed,
                                  checks.reference_files(reps[0].digests, stems))
        how = check_digests(bench, reps, reference_key, args.digests)
        result = report(workload.name, args.seed, reps, values, units, notes, how)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
