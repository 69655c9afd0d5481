"""Per-layer instrumentation for the traced benchmark run.

Every tcaco layer is measured from outside: the tracer replaces the public
functions and methods each layer exposes with wrappers, at every name a
caller looks them up under (``tcaco.engine`` imports routing and congestion
functions by value, ``tcaco.cli`` imports the output functions by value).

Two kinds of wrapper exist so the traced run stays bounded:

* ``timed`` keeps aggregated calls, total seconds and self seconds (total
  minus the time of timed calls nested inside). Calls at phase level or
  above (experiment, job, cycle, topology build, output rendering) also
  record one span each, carrying its parent span and its job id.
* ``counted`` keeps a call count only, for the hottest per-packet calls.

Spans stay in memory (at most ``max_spans``) and are written out by the
caller when the run ends.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter


class WrapError(RuntimeError):
    """A wrapped attribute is missing, or two of its lookup names disagree."""


class Stat:
    __slots__ = ("calls", "total", "child", "hits")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.hits = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._next_span = 0
        self.jobs: list[tuple[str, int]] = []
        self._child_time = [0.0]   # one accumulator per open timed call
        self._open_spans = [None]  # ids of the open spans, innermost last
        self._job = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _resolve(self, name: str, targets):
        """Return the one original object behind every lookup name."""
        originals = []
        for owner, attr in targets:
            if not hasattr(owner, attr):
                raise WrapError(f"{name}: {getattr(owner, '__name__', owner)}.{attr} is missing")
            originals.append(owner.__dict__[attr] if isinstance(owner, type)
                             else getattr(owner, attr))
        if any(o is not originals[0] for o in originals):
            raise WrapError(f"{name}: lookup names {targets} hold different objects")
        return originals[0]

    def _install(self, targets, wrapper) -> None:
        for owner, attr in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def timed(self, name: str, targets, span: bool = False, tally=None,
              job=None) -> None:
        """Wrap ``targets`` with an aggregating timer.

        ``tally(result)`` adds to the stat's hits (a bool counts one call as
        a hit, for ratios); ``job(args)`` names the (protocol, seed) whose
        spans follow.
        """
        fn = self._resolve(name, targets)
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time
        tracer = self

        def wrapper(*args, **kwargs):
            if job is not None:
                tracer._job = len(tracer.jobs)
                tracer.jobs.append(job(args))
            if span:
                span_id = tracer._open_span()
            child_time.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                dt = t1 - t0
                stat.calls += 1
                stat.total += dt
                stat.child += child_time.pop()
                child_time[-1] += dt
                if span:
                    tracer._close_span(span_id, name, t0, t1)
                if job is not None:
                    tracer._job = None
            if tally is not None:
                stat.hits += tally(result)
            return result

        self._install(targets, wrapper)

    def counted(self, name: str, targets) -> None:
        """Wrap ``targets`` with a bare call counter."""
        fn = self._resolve(name, targets)
        stat = self.stats.setdefault(name, Stat())

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        self._install(targets, wrapper)

    # --------------------------------------------------------------- spans

    def _open_span(self):
        if self._next_span >= self.max_spans:
            self.dropped_spans += 1
            span_id = None
        else:
            span_id = self._next_span
            self._next_span += 1
        self._open_spans.append(span_id)
        return span_id

    def _close_span(self, span_id, name, t0, t1) -> None:
        self._open_spans.pop()
        if span_id is not None:
            self.spans.append((span_id, self._open_spans[-1], self._job, name, t0, t1))

    def write_spans(self, path: str) -> None:
        """Write one JSON object per span, ordered by span id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, job, name, t0, t1 in sorted(self.spans):
                protocol, seed = self.jobs[job] if job is not None else (None, None)
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "job": job,
                    "protocol": protocol, "seed": seed, "name": name,
                    "start_s": t0, "end_s": t1,
                }) + "\n")


# Calls timed inside ``Simulation.run_cycle``: with run_cycle's own self time
# their self times add up to run_cycle's total.
CYCLE_PHASES = (
    "engine.pick_source", "engine.ensure_levels", "engine.forward_from",
    "engine.scored_candidates", "engine.transmit", "engine.age_queues",
    "engine.recompute_trust", "routing.assign_levels",
    "routing.transition_probabilities", "routing.rank_by_probability",
    "routing.select_next_hop", "routing.pheromone_update",
    "congestion.tick_wait_and_drop", "congestion.enqueue",
    "congestion.record_cycle", "congestion.congestion_index",
)

OUTPUTS = ("per_cycle_csv_text", "summary_json_text", "trust_dump_text",
           "route_dump_text")


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls into every tcaco layer, plus the engine phases."""
    from tcaco import cli, congestion, energy, engine, output, routing, topology, trust

    sim = engine.Simulation
    tracer.timed("cli.run_experiment", [(cli, "run_experiment")], span=True)
    tracer.timed("cli.job", [(cli, "_run_one")], span=True,
                 job=lambda args: (args[0][1], args[0][2]))
    tracer.timed("topology.build_topology",
                 [(engine, "build_topology"), (topology, "build_topology")], span=True,
                 tally=lambda topo: sum(len(nbrs) for nbrs in topo.adjacency[:-1]))
    tracer.timed("engine.run_cycle", [(sim, "run_cycle")], span=True)
    for name in ("pick_source", "ensure_levels", "forward_from", "scored_candidates",
                 "age_queues", "recompute_trust"):
        tracer.timed(f"engine.{name}", [(sim, f"_{name}")])
    tracer.timed("engine.transmit", [(sim, "_transmit")], tally=bool)
    for name in ("assign_levels", "transition_probabilities", "rank_by_probability"):
        tracer.timed(f"routing.{name}", [(engine, name), (routing, name)])
    tracer.timed("routing.select_next_hop",
                 [(engine, "select_next_hop"), (routing, "select_next_hop")],
                 tally=lambda hop: hop is None)
    tracer.timed("routing.pheromone_update", [(routing.PheromoneTable, "update_cycle")])
    tracer.timed("congestion.tick_wait_and_drop",
                 [(engine, "tick_wait_and_drop"), (congestion, "tick_wait_and_drop")])
    tracer.timed("congestion.enqueue", [(engine, "enqueue"), (congestion, "enqueue")],
                 tally=lambda accepted: not accepted)
    for name in ("record_cycle", "congestion_index"):
        tracer.timed(f"congestion.{name}", [(congestion.FlowHistory, name)])
    for name in OUTPUTS:
        tracer.timed(f"output.{name}", [(cli, name), (output, name)], span=True)
    for name in ("record_send", "record_ack", "record_latency"):
        tracer.counted(f"trust.{name}", [(trust.TrustStats, name)])
    for name in ("debit", "tx_cost"):
        tracer.counted(f"energy.{name}", [(energy, name)])
    tracer.counted("model.packets_generated", [(engine, "Packet")])
