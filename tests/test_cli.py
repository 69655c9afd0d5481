"""Experiment loading, output emission, exit codes, and format freezes."""

import json
import os
import tracemalloc
from dataclasses import replace

import pytest

from tcaco import cli
from tcaco.cli import build_parser, load_experiment, main, run_experiment
from tcaco.config import ConfigError, ParseError, SimConfig, read_json_object
from tcaco.engine import CycleStats, SimMetrics, Simulation
from tcaco.output import (CSV_HEADER, lower_median, per_cycle_csv_text,
                          replicate_record, summary_payload, trust_dump_text)

LIFETIME_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                               "lifetime_experiment.json")

SMALL = {
    "node_count": 12,
    "field_width": 80.0,
    "field_height": 80.0,
    "packets_per_round": 5,
    "max_cycles": 15,
    "base_seed": 3,
}

ALL_EMITS = ["per-cycle", "summary", "trust", "routes"]

# queue churn with every output
STORM = {
    "node_count": 40,
    "source_policy": "random_per_round",
    "forwarding_mode": "stochastic_roulette",
    "packets_per_round": 60,
    "max_cycles": 60,
    "protocols": ["dist_aco"],
    "base_seed": 1,
    "fault_spec": [{"behavior": "flood", "fraction": 0.05, "rate": 4},
                   {"behavior": "duplicate", "fraction": 0.05, "copies": 3}],
    "emit": ALL_EMITS,
}


def write_cfg(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_args(argv):
    return build_parser().parse_args(argv)


def experiment_peak(tmp_path, payload, name):
    """tracemalloc peak of a successful ``run_experiment`` of ``payload``,
    written to ``tmp_path / name``."""
    path = write_cfg(tmp_path, dict(payload, out_dir=str(tmp_path / name)), f"{name}.json")
    spec = load_experiment(path, parse_args([]))
    tracemalloc.start()
    try:
        assert run_experiment(spec) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadExperiment:
    def test_defaults_from_minimal_file(self, tmp_path):
        spec = load_experiment(write_cfg(tmp_path, {}), parse_args([]))
        assert spec.config.node_count == 50
        assert spec.protocols == ("tc_aco",)
        assert spec.seeds == (1,)

    def test_flags_override_file(self, tmp_path):
        path = write_cfg(tmp_path, {"base_seed": 3, "protocols": ["tc_aco"]})
        args = parse_args(["--seed", "7", "--protocol", "naive_minhop,dist_aco",
                           "--replicates", "2", "--max-cycles", "9"])
        spec = load_experiment(path, args)
        assert spec.seeds == (7, 8)
        assert spec.protocols == ("naive_minhop", "dist_aco")
        assert spec.config.max_cycles == 9

    def test_unknown_protocol_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="leach"):
            load_experiment(write_cfg(tmp_path, {"protocols": ["leach"]}),
                            parse_args([]))

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            load_experiment(write_cfg(tmp_path, {"seeds": [4, 4]}), parse_args([]))

    def test_empty_seed_list_rejected(self, tmp_path):
        path = write_cfg(tmp_path, dict(SMALL, seeds=[], out_dir=str(tmp_path / "o")))
        with pytest.raises(ConfigError, match="seed list is empty"):
            load_experiment(path, parse_args([]))
        assert main(["--config", path]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given", ["flag", "key"])
    def test_replicate_count_must_match_the_seed_list(self, tmp_path, given):
        def spec(count):
            payload = dict(SMALL, seeds=[5, 6, 7], out_dir=str(tmp_path / f"o{count}"))
            if given == "key":
                payload["replicates"] = count
            argv = ["--replicates", str(count)] if given == "flag" else []
            return load_experiment(write_cfg(tmp_path, payload), parse_args(argv))

        with pytest.raises(ConfigError, match=r"replicates 2 contradicts the 3 seeds \[5, 6, 7\]"):
            spec(2)
        matching = spec(3)
        assert matching.seeds == (5, 6, 7)
        assert run_experiment(matching) == 0
        assert len(list((tmp_path / "o3").glob("*.csv"))) == 3

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        path = write_cfg(tmp_path, dict(SMALL, out_dir=str(tmp_path / "o")))
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            load_experiment(path, parse_args(["--workers", workers]))
        assert main(["--config", path, "--workers", workers]) == 1
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="paket_size"):
            load_experiment(write_cfg(tmp_path, {"paket_size": 1}), parse_args([]))

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TCACO_OUT", str(tmp_path / "from_env"))
        spec = load_experiment(write_cfg(tmp_path, {}), parse_args([]))
        assert spec.out_dir == str(tmp_path / "from_env")


class TestRunExperiment:
    def test_file_count_for_protocol_grid(self, tmp_path):
        out = tmp_path / "out"
        payload = dict(SMALL, protocols=["tc_aco", "naive_minhop"], replicates=3,
                       out_dir=str(out))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        assert run_experiment(spec) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 6
        assert (out / "summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        payload = dict(SMALL, out_dir=str(out))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        assert run_experiment(spec) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_experiment(spec) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_worker_pool_matches_serial_output(self, tmp_path):
        serial_out = tmp_path / "serial"
        pool_out = tmp_path / "pool"
        base = dict(SMALL, protocols=["tc_aco", "naive_minhop"], replicates=2,
                    emit=ALL_EMITS)
        spec_serial = load_experiment(
            write_cfg(tmp_path, dict(base, out_dir=str(serial_out)), "a.json"),
            parse_args([]))
        spec_pool = load_experiment(
            write_cfg(tmp_path, dict(base, out_dir=str(pool_out)), "b.json"),
            parse_args(["--workers", "2"]))
        assert run_experiment(spec_serial) == 0
        assert run_experiment(spec_pool) == 0
        serial_files = {p.name: p.read_bytes() for p in serial_out.iterdir()}
        pool_files = {p.name: p.read_bytes() for p in pool_out.iterdir()}
        assert len(serial_files) == 4 * 3 + 1
        assert serial_files == pool_files
        assert not [name for name in pool_files if name.endswith(".part")]

    def test_trust_and_route_dumps_emitted(self, tmp_path):
        out = tmp_path / "out"
        payload = dict(SMALL, out_dir=str(out), emit=ALL_EMITS)
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        assert run_experiment(spec) == 0
        trust = (out / "tc_aco_rep0_trust.csv").read_text()
        assert trust.splitlines()[0] == "i,j,ne,ptr,pl,t_ij,classification"
        routes = (out / "tc_aco_rep0_routes.txt").read_text()
        assert routes  # terminal packets were logged
        first = routes.splitlines()[0].split("\t")
        assert len(first) == 4

    def test_failed_replicate_is_named_and_the_others_written(self, tmp_path,
                                                               monkeypatch, capsys):
        original_run = Simulation.run

        def run(sim):
            if (sim.protocol, sim.seed) == ("dist_aco", 4):
                raise RuntimeError("injected failure")
            return original_run(sim)

        monkeypatch.setattr(Simulation, "run", run)
        out = tmp_path / "out"
        payload = dict(SMALL, protocols=["tc_aco", "dist_aco"], replicates=3,
                       out_dir=str(out))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        assert run_experiment(spec) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "run failed" in line]
        assert len(errors) == 1
        assert "(dist_aco, seed 4)" in errors[0] and "injected failure" in errors[0]
        written = sorted(p.name for p in out.iterdir())
        assert written == ["dist_aco_rep0.csv", "dist_aco_rep2.csv", "tc_aco_rep0.csv",
                           "tc_aco_rep1.csv", "tc_aco_rep2.csv"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_write_error_stops_the_experiment(self, tmp_path, monkeypatch, capsys,
                                              workers):
        """A CSV write that fails at the second job ends the run with exit
        code 3 at once: the first job's files stay, no later job's file and
        no summary.json are written, serially no later job runs, and a pool
        cancels the jobs it has not started."""
        write_text = cli._write_text
        ran, shutdowns = [], []

        def failing_write(path, text):
            if path.endswith("tc_aco_rep1.csv"):
                raise OSError("disk full")
            write_text(path, text)

        class Pool(cli.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        run_one = cli._run_one
        monkeypatch.setattr(cli, "_write_text", failing_write)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        if workers == "1":      # a pool's jobs are pickled by name
            monkeypatch.setattr(cli, "_run_one",
                                lambda job: ran.append(job[2]) or run_one(job))
        out = tmp_path / "out"
        payload = dict(SMALL, protocols=["tc_aco", "naive_minhop"], replicates=3,
                       out_dir=str(out))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args(["--workers", workers]))
        assert run_experiment(spec) == 3
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["tc_aco_rep0.csv"]
        if workers == "1":
            assert ran == [3, 4] and shutdowns == []
        else:
            assert shutdowns[0] is True

    def test_failed_replicate_leaves_no_route_part_file(self, tmp_path, monkeypatch):
        """A replicate that raises after some of its route lines were
        written gives exit code 2 and leaves neither a route file nor a
        ``.part`` file; the other replicates' route files are written."""
        run_cycle = Simulation.run_cycle

        def failing_cycle(sim):
            if sim.seed == 2 and sim.cycle == 30:
                raise RuntimeError("injected failure")
            return run_cycle(sim)

        monkeypatch.setattr(Simulation, "run_cycle", failing_cycle)
        out = tmp_path / "out"
        spec = load_experiment(
            write_cfg(tmp_path, dict(STORM, replicates=3, out_dir=str(out))), parse_args([]))
        assert run_experiment(spec) == 2
        assert sorted(p.name for p in out.glob("*routes*")) == [
            "dist_aco_rep0_routes.txt", "dist_aco_rep2_routes.txt"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_route_write_error_stops_the_experiment(self, tmp_path, capsys, workers):
        """A route file write that fails in the second job (its disk is
        full) ends the run with exit code 3: the first job's files stay, no
        later job's file and no summary.json are written, and no ``.part``
        file is left, also of a job a pool ran beside the failed one."""
        out = tmp_path / "out"
        out.mkdir()
        os.symlink("/dev/full", out / "dist_aco_rep1_routes.txt.part")
        spec = load_experiment(
            write_cfg(tmp_path, dict(STORM, replicates=3, out_dir=str(out))),
            parse_args(["--workers", workers]))
        assert run_experiment(spec) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "dist_aco_rep0.csv", "dist_aco_rep0_routes.txt", "dist_aco_rep0_trust.csv"]

    def test_memory_does_not_grow_with_replicate_count(self, tmp_path):
        """Each replicate's files are written when it ends and only its
        summary record is kept, so four replicates peak within 3% of the
        largest of them run alone. In this long, quiet run a replicate's
        per-cycle rows, CSV text and trust text outweigh its simulation
        state: keeping all four replicates' results would peak 1.9x as high
        as the largest single replicate."""
        quiet = dict(STORM, max_cycles=300, packets_per_round=5, fault_spec=[])
        # one-time allocations of a first run would inflate the base
        experiment_peak(tmp_path, quiet, "warm")
        one = max(experiment_peak(tmp_path, dict(quiet, base_seed=seed), f"seed{seed}")
                  for seed in range(1, 5))
        four = experiment_peak(tmp_path, dict(quiet, replicates=4), "four")
        assert four <= 1.03 * one, f"{one // 1024} KiB at 1 replicate, {four // 1024} at 4"

    def test_route_memory_does_not_grow_with_replicate_length(self, tmp_path):
        """Route lines are written as each cycle ends, so what logging them
        adds to a replicate's peak is the same at 250 and 1,000 cycles."""
        shipped = read_json_object(LIFETIME_CONFIG)
        del shipped["replicates"]
        base = dict(shipped, protocols=["naive_minhop"], seeds=[1],
                    initial_energy=20 * SimConfig().initial_energy)
        no_routes, routes = ["per-cycle", "summary"], ["per-cycle", "summary", "routes"]

        def added(cycles):
            peaks = [experiment_peak(tmp_path, dict(base, max_cycles=cycles, emit=emit),
                                     f"{cycles}_{len(emit)}") for emit in (no_routes, routes)]
            summary = json.loads((tmp_path / f"{cycles}_3" / "summary.json").read_text())
            assert summary["protocols"]["naive_minhop"]["replicates"][0]["cycles_run"] == cycles
            return peaks[1] - peaks[0]

        # one-time allocations of a first run would inflate the base
        experiment_peak(tmp_path, dict(base, max_cycles=50, emit=routes), "warm")
        short, long = added(250), added(1000)
        assert long - short <= 64 * 1024, f"{short // 1024} KiB, then {long // 1024}"

    def test_unusable_out_dir_exits_3_without_summary(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        payload = dict(SMALL, out_dir=str(blocker / "sub"))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        assert run_experiment(spec) == 3
        assert not (blocker / "sub").exists()

    def test_summary_csv_conservation_echo(self, tmp_path):
        out = tmp_path / "out"
        payload = dict(SMALL, out_dir=str(out))
        spec = load_experiment(write_cfg(tmp_path, payload), parse_args([]))
        run_experiment(spec)
        lines = (out / "tc_aco_rep0.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + SMALL["max_cycles"]


class TestTrustDump:
    def test_dump_reports_the_trust_the_engine_routed_on(self):
        spec = load_experiment(LIFETIME_CONFIG, parse_args([]))
        sim = Simulation(replace(spec.config, max_cycles=200), protocol="tc_aco", seed=1)
        sim.run()
        rows = trust_dump_text(sim).splitlines()[1:]
        n = sim.cfg.node_count
        assert len(rows) == sum(len(sim.topology.adjacency[i]) for i in range(n))
        for line in rows:
            i, j, _, _, _, t_ij, _ = line.split(",")
            assert float(t_ij) == sim.trust.link(int(i), int(j)), line


class TestMainExitCodes:
    def test_success(self, tmp_path):
        payload = dict(SMALL, out_dir=str(tmp_path / "o"))
        assert main(["--config", write_cfg(tmp_path, payload)]) == 0

    def test_config_error_is_1(self, tmp_path):
        assert main(["--config", write_cfg(tmp_path, {"rho": 2.0})]) == 1

    def test_parse_error_is_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["--config", str(path)]) == 1

    def test_non_finite_number_is_1(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"tau_init": NaN, "protocols": ["dist_aco"], "max_cycles": 2, '
                        f'"out_dir": {json.dumps(str(tmp_path / "o"))}}}')
        assert main(["--config", str(path)]) == 1

    def test_missing_file_is_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("payload,key", [
        ({"node_count": "50"}, "node_count"),
        ({"replicates": "2"}, "replicates"),
        ({"bs_position": [1]}, "bs_position"),
        ({"fault_spec": [{"behavior": "drop", "fraction": "0.2"}]}, "fault_spec[0].fraction"),
    ], ids=["node_count", "replicates", "bs_position", "fault_fraction"])
    def test_value_of_the_wrong_type_is_1(self, tmp_path, capsys, payload, key):
        payload = dict(payload, out_dir=str(tmp_path / "o"))
        assert main(["--config", write_cfg(tmp_path, payload)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} "), lines

    def test_runtime_error_is_2(self, tmp_path):
        # nodes scattered over a huge field cannot reach the sink
        payload = {"node_count": 2, "field_width": 20000.0, "field_height": 20000.0,
                   "max_cycles": 5, "out_dir": str(tmp_path / "o")}
        assert main(["--config", write_cfg(tmp_path, payload)]) == 2

    def test_io_error_is_3(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_text("x")
        payload = dict(SMALL, out_dir=str(blocker / "sub"))
        assert main(["--config", write_cfg(tmp_path, payload)]) == 3


class TestLowerMedian:
    def test_odd_count_exact_middle(self):
        assert lower_median([5, 1, 9]) == 5

    def test_even_count_lower_middle(self):
        assert lower_median([4, 1, 9, 5]) == 4

    def test_none_sorts_last(self):
        assert lower_median([None, 3, 4]) == 4
        assert lower_median([None, None, 3, 4]) == 4

    def test_none_majority_gives_none(self):
        assert lower_median([None, 3, None]) is None
        assert lower_median([None, None, None, 3]) is None

    def test_empty(self):
        assert lower_median([]) is None


def fake_metrics(protocol, seed, milestones):
    m = SimMetrics(protocol=protocol, seed=seed, node_count=50)
    m.cycles = [CycleStats(1, 20, 20, 0, 0, 0, 0, 50.0, 0, 0)]
    m.milestones = {p: milestones.get(p) for p in (1, 10, 20, 30, 40, 50, 60)}
    return m


class TestSummaryShape:
    def test_grid_and_medians(self):
        records = {
            "tc_aco": [replicate_record(fake_metrics("tc_aco", 1, {1: 10, 10: 20, 30: 50})),
                       replicate_record(fake_metrics("tc_aco", 2, {1: 14, 10: 24, 30: 60})),
                       replicate_record(fake_metrics("tc_aco", 3, {1: 12, 10: 22, 30: 55}))],
        }
        payload = summary_payload(records, 50)
        assert payload["node_count"] == 50
        block = payload["protocols"]["tc_aco"]
        assert len(block["replicates"]) == 3
        assert block["median_milestones"]["p1"] == 12
        assert block["median_milestones"]["p30"] == 55
        assert block["median_milestones"]["p60"] is None
        assert payload["milestone_percentages"] == [1, 10, 20, 30, 40, 50, 60]

    def test_csv_counters_are_cumulative(self):
        m = SimMetrics(protocol="tc_aco", seed=1, node_count=5)
        m.cycles = [
            CycleStats(1, 10, 6, 1, 1, 0, 0, 5.0, 2, 0),
            CycleStats(2, 10, 8, 0, 2, 0, 1, 4.5, 2, 0),
        ]
        text = per_cycle_csv_text(m)
        rows = text.splitlines()
        assert rows[1].startswith("1,10,6,1,1,0,0,")
        assert rows[2].startswith("2,20,14,1,3,0,1,")
        # per-row conservation echo: generated - delivered - drops = in flight
        for line, expect_in_flight in ((rows[1], 2), (rows[2], 2)):
            parts = line.split(",")
            gen, dele, dov, dti, dma = map(int, parts[1:6])
            assert gen - dele - dov - dti - dma == expect_in_flight
