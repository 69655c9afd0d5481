"""The example scripts run end to end at a tiny size."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_lifetime_experiment_prints_the_milestone_grid(tmp_path):
    done = run_script("run_lifetime_experiment.py", "--replicates", "1",
                      "--max-cycles", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = next(k for k, line in enumerate(lines) if line.startswith("protocol"))
    assert lines[header].split()[1:] == ["1%", "10%", "20%", "30%", "40%", "50%", "60%"]
    rows = [line.split()[0] for line in lines[header + 1:]]
    assert sorted(rows) == ["dist_aco", "naive_minhop", "tc_aco", "trust_greedy"]
    assert (tmp_path / "summary.json").is_file()


def test_isolation_demo_prints_its_table():
    done = run_script("run_isolation_demo.py", "--cycles", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["cycle", "tc_aco", "dist_aco"]
    assert [line.split()[0] for line in lines[2:7]] == ["1", "2", "3", "4", "5"]
    assert [line.split(":")[0] for line in lines[7:]] == ["tc_aco", "dist_aco"]
