"""Tests of the benchmark itself, on tiny sizes of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_listed_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    table = proc.stdout.splitlines()[:-1]
    for name, unit in listed.items():
        assert any(line.split()[0] == name and line.split()[2] == unit for line in table), name
    if not trace:
        assert any(line.startswith("failed_frac ") for line in table)


def test_corrupted_reference_digest_fails_the_job_it_belongs_to(tmp_path):
    digests = tmp_path / "digests.json"
    args = ["--workload", "lifetime", "--seed", "3", "--seconds", "1", "--tiny",
            "--digests", str(digests)]
    assert run_bench(*args, "--record-digests").returncode == 0
    data = json.loads(digests.read_text())
    data["lifetime@tiny"]["files"]["dist_aco_rep0.csv"] = "0" * 64
    digests.write_text(json.dumps(data))

    proc = run_bench(*args)
    assert proc.returncode == 1
    result = result_of(proc)
    # one pair of runs, four jobs each: the dist_aco job fails in both
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 8, 2)
    assert "dist_aco seed 3: digest differs from the reference" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_wrapped_attribute_fails_loudly():
    class Owner:
        def present(self):
            pass

    t = tracer.Tracer()
    with pytest.raises(tracer.WrapError, match="missing"):
        t.timed("owner.absent", [(Owner, "absent")])


def test_lookup_names_that_disagree_fail_loudly(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tcaco import engine

    monkeypatch.setattr(engine, "select_next_hop", lambda *args: None)
    t = tracer.Tracer()
    with pytest.raises(tracer.WrapError, match="different objects"):
        tracer.instrument(t)
    t.restore()


def test_every_wrapped_call_must_fire_on_some_workload():
    import workloads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t = tracer.Tracer()
    tracer.instrument(t)
    t.restore()
    for name in t.stats:
        assert any(name not in w.silent for w in workloads.WORKLOADS.values()), name


def test_fails_without_printing_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_times_are_scaled_by_the_passes_nearest_them():
    import speed

    host = speed.Speed()
    # the host ran at reference speed, then 2x slower from t=100 on
    host.at = [float(t) for t in range(200)]
    host.took = [speed.REFERENCE_S] * 100 + [2 * speed.REFERENCE_S] * 100
    assert host.scaled(1.0, 50.0) == pytest.approx(1.0)
    assert host.scaled(1.0, 150.0) == pytest.approx(0.5)
    # the window straddles the change: as many passes of each speed
    assert host.slowdown(100.0) == pytest.approx(1.5)
