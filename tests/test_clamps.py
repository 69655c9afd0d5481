"""Clamps on the per-transfer, per-candidate and per-cycle paths are written
as comparisons, and each returns what the builtin ``min``/``max`` clamp it
replaces returns, bit for bit.

``max(0.0, x)`` returns ``x`` only when ``x > 0.0`` and the literal ``0.0``
otherwise, so ``-0.0`` and NaN both give ``0.0``; ``min(1.0, x)`` returns
``x`` only when ``x < 1.0``, so NaN gives ``1.0``. Floats are compared by
``float.hex``, which tells ``0.0`` from ``-0.0`` and matches NaN with NaN.
"""

import ast
import bisect
import math
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaco.config import SimConfig
from tcaco.congestion import FlowHistory
from tcaco.energy import debit
from tcaco.routing import roulette_wheel, select_next_hop
from tcaco.trust import TrustReads, TrustStats

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tcaco"

# functions that run per transfer, per candidate or per cycle
HOT_PATHS = [("energy.py", "debit"),
             ("congestion.py", "FlowHistory.congestion_index"),
             ("trust.py", "TrustReads.latency_score"),
             ("routing.py", "select_next_hop"),
             ("engine.py", "Simulation.run_cycle")]

SUBNORMAL = 5e-324
EDGES = [0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, SUBNORMAL, -SUBNORMAL,
         2.2250738585072014e-308, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52]
# every float, with the edges above drawn often
any_float = st.one_of(st.sampled_from(EDGES), st.floats())


def same(a, b):
    return float(a).hex() == float(b).hex()


def function_node(path, qualname):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    body = tree.body
    for part in qualname.split("."):
        node = next(n for n in body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
        body = node.body
    return node


@pytest.mark.parametrize("path,qualname", HOT_PATHS)
def test_hot_paths_call_no_builtin_min_or_max(path, qualname):
    calls = [(n.func.id, n.lineno) for n in ast.walk(function_node(path, qualname))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id in ("min", "max")]
    assert not calls, (
        f"{qualname} ({path}) calls builtin {calls}: it runs per transfer, candidate "
        "or cycle, and under CPython 3.11 `max(0.0, x)` costs about 130 ns against "
        "18 ns for `x if x > 0.0 else 0.0`; write the clamp as that comparison")


def record_refs(node):
    """``(name, line)`` of every reference to a ``TrustStats.record_*``
    method under ``node``, called or not."""
    names = {name for name in vars(TrustStats) if name.startswith("record_")}
    return {(name, n.lineno) for n in ast.walk(node)
            if (name := getattr(n, "attr", getattr(n, "id", None))) in names}


def test_transmit_records_no_sends_acks_or_receive_costs():
    """A transfer costs one ledger increment in ``_forward_from``: the
    cycle's evidence reaches ``TrustStats`` only at step 8, when
    ``_recompute_trust`` records the cycle's ledger, the receive costs are
    worked out once per simulation and the transmit costs once per used
    link."""
    banned = {"rx_cost", "tx_cost"}
    calls = [(name, n.lineno) for n in ast.walk(function_node("engine.py",
                                                              "Simulation._transmit"))
             if isinstance(n, ast.Call)
             and (name := getattr(n.func, "attr", getattr(n.func, "id", None))) in banned]
    assert not calls, (
        f"Simulation._transmit calls {calls}: it runs per transfer; read the "
        "radio costs worked out in Simulation.__init__ and at a link's first use")
    engine = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    step_8 = record_refs(function_node("engine.py", "Simulation._recompute_trust"))
    assert step_8
    outside = sorted(record_refs(engine) - step_8)
    assert not outside, (
        f"engine.py records trust evidence outside Simulation._recompute_trust: "
        f"{outside}; add it to the cycle's ledger, which step 8 records")


@settings(max_examples=300, deadline=None)
@given(any_float, st.one_of(st.sampled_from([0.0, -0.0, SUBNORMAL, 1.0, math.inf]),
                            st.floats(min_value=0.0)))
@example(0.5, 2.0)            # the amount exceeds the battery
@example(0.5, 0.5)            # it empties the battery exactly
@example(-0.0, 0.0)
@example(math.inf, math.inf)  # inf - inf is NaN
def test_debit_clamps_like_max(balance, amount):
    energy = [balance]
    debit(energy, 0, amount)
    assert same(energy[0], max(0.0, balance - amount))


@settings(max_examples=300, deadline=None)
@given(any_float, any_float, any_float)
@example(1.0, 0.0, 0.0)            # ci exactly 0
@example(1.0, 1.0, 0.0)            # ci exactly 1
@example(1.0, 1.0, -1.0)           # ci above 1
@example(math.inf, 1.0, math.inf)  # ci NaN
@example(SUBNORMAL, 0.0, 0.0)      # a subnormal denominator
def test_congestion_index_clamps_like_min_max(in_sum, out_sum, free):
    h = FlowHistory(1, 0)
    h.cycles = 1
    h._in_sum[0], h._out_sum[0], h._free[0] = in_sum, out_sum, free
    denom = in_sum + free
    expected = 0.0 if denom <= 0 else min(1.0, max(0.0, (in_sum + free - out_sum) / denom))
    assert same(h.congestion_index(0), expected)


def builtin_latency_scores(polarity, means, reference):
    """The latency scores of one row whose timed neighbours, in ascending id
    order, all sit on one level, clamped with builtin ``min``/``max``."""
    total = 0.0
    for m in means:
        total += m
    scores = []
    for m_j in means:
        if polarity == "normalized" and m_j == math.inf:
            scores.append(0.0)
            continue
        cnt = len(means) - 1
        mean_others = (total - m_j) / cnt if cnt > 0 else reference
        if polarity == "literal":
            if m_j == math.inf or mean_others == 0.0:
                scores.append(1.0)
            else:
                scores.append(min(1.0, max(0.0, m_j / mean_others)))
        elif m_j == 0.0:
            scores.append(1.0)
        else:
            scores.append(min(1.0, mean_others / m_j))
    return scores


class Means:
    """Committed evidence of one row 0 -> 1..n whose mean latencies are
    ``means``, whatever they are: NaN included. Each link holds one sample,
    so its record's ``latency_sum / latency_count`` is its mean exactly."""

    def __init__(self, means):
        self.timed = {0: list(range(1, len(means) + 1))}
        self.links = {j: SimpleNamespace(latency_sum=m, latency_count=1)
                      for j, m in enumerate(means, 1)}

    def link(self, i, j):
        return self.links[j]


latency = st.one_of(st.sampled_from([0.0, SUBNORMAL, 1e-300, 1.0, 1e300, math.inf, math.nan]),
                    st.floats(min_value=0.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["normalized", "literal"]), st.lists(latency, min_size=1, max_size=5))
@example("normalized", [SUBNORMAL, 1e300, 1e300])  # m_j tiny against its peers
@example("normalized", [1e-300, 2.0])
@example("literal", [1.0, 2.0, math.inf])          # m_j == inf: its peers read 0
@example("literal", [1.0, math.inf, math.inf])     # inf - inf: its peers read NaN
@example("normalized", [1.0, math.inf, math.inf])
@example("literal", [2.0, 1.0])                    # ratio exactly at 1 and above
@example("literal", [0.0, 1.0])                    # ratio exactly 0
@example("literal", [1.0, math.nan])               # NaN means
@example("normalized", [1.0, math.nan])
def test_latency_scores_clamp_like_min_max(polarity, means):
    n = len(means)
    cfg = SimConfig(node_count=n + 1, latency_polarity=polarity)
    reads = TrustReads(cfg, [[] for _ in range(n + 2)])
    reads.take([0] * (n + 2), [cfg.initial_energy] * (n + 2))
    reads.stats = Means(means)
    got = [reads.latency_score(0, j, reads.stats.link(0, j)) for j in range(1, n + 1)]
    expected = builtin_latency_scores(polarity, means, reads.reference)
    assert [g.hex() for g in got] == [float(e).hex() for e in expected]


class Draw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=1.0, max_value=2.0))
@example([0.5, 0.5], 1.0, 1.5)  # the draw lands past the last running sum
@example([0.25], 0.999, 2.0)
def test_roulette_index_clamps_like_min(weights, draw, stretch):
    """A wheel whose total exceeds its last running sum (``stretch`` > 1)
    lets a draw land past the end; the pick is then the last candidate."""
    ranked = list(range(10, 10 + len(weights)))
    probabilities = dict(zip(ranked, weights))
    cum, total = roulette_wheel(ranked, probabilities)
    wheel = (cum, total * stretch)
    got = select_next_hop(ranked, lambda _: True, "stochastic_roulette",
                          probabilities, Draw(draw), wheel)
    if wheel[1] <= 0.0:
        idx = 0
    else:
        idx = min(bisect.bisect_left(cum, draw * wheel[1]), len(ranked) - 1)
    assert got == ranked[idx]
