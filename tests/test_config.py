"""Configuration schema, validation, and JSON loading."""

import json

import pytest

from tcaco.config import (ConfigError, FaultSpec, ParseError, SimConfig,
                          collect_violations, config_from_dict, load_config,
                          validate_config)


def test_defaults_are_valid():
    cfg = SimConfig()
    assert validate_config(cfg) is cfg
    assert collect_violations(cfg) == []


def test_accepts_reasonable_config():
    cfg = SimConfig(alpha=0.5, rho=0.1, node_count=10, queue_capacity=4)
    assert validate_config(cfg) is cfg


def test_rho_out_of_range():
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(rho=1.5))
    assert any("rho" in v for v in exc.value.violations)


def test_tau_init_must_be_positive():
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(tau_init=0.0))
    assert any("tau_init" in v for v in exc.value.violations)


def test_all_violations_reported_not_just_first():
    cfg = SimConfig(rho=1.5, tau_init=0.0, node_count=1, wc_max=0,
                    queue_capacity=0, energy_threshold=2.0)
    violations = collect_violations(cfg)
    for needle in ("rho", "tau_init", "node_count", "wc_max",
                   "queue_capacity", "energy_threshold"):
        assert any(needle in v for v in violations), needle
    assert len(violations) >= 6


def test_unit_interval_fields_checked():
    for field in ("a1", "a2", "a3", "alpha", "beta1", "beta2", "beta3"):
        violations = collect_violations(SimConfig(**{field: 1.2}))
        assert any(field in v for v in violations)


def test_zero_trust_weights_rejected():
    violations = collect_violations(SimConfig(a1=0.0, a2=0.0, a3=0.0))
    assert any("a1+a2+a3" in v for v in violations)


def test_fault_spec_validation():
    bad = SimConfig(fault_spec=(FaultSpec(behavior="jam", fraction=0.2),))
    assert any("unknown behavior" in v for v in collect_violations(bad))
    bad = SimConfig(fault_spec=(FaultSpec(behavior="drop", fraction=1.5),))
    assert any("fraction" in v for v in collect_violations(bad))
    bad = SimConfig(fault_spec=(FaultSpec(behavior="drop"),))
    assert any("nodes/fraction" in v for v in collect_violations(bad))
    bad = SimConfig(fault_spec=(FaultSpec(behavior="drop", nodes=(99,)),))
    assert any("out of range" in v for v in collect_violations(bad))


@pytest.mark.parametrize("value", [-0.1, 1.5, 2.0])
def test_trust_threshold_outside_the_unit_interval_rejected(value):
    # trust is a weighted mean of values in [0,1]: no link reads above 1.0
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(trust_threshold=value))
    assert any("trust_threshold" in v for v in exc.value.violations)


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_trust_threshold_at_the_unit_interval_ends_accepted(value):
    assert collect_violations(SimConfig(trust_threshold=value)) == []


def test_negative_deposit_scale_rejected():
    # a negative scale would turn each deposit into a removal
    with pytest.raises(ConfigError) as exc:
        validate_config(SimConfig(pheromone_deposit_scale=-5.0))
    assert any("pheromone_deposit_scale" in v for v in exc.value.violations)
    assert collect_violations(SimConfig(pheromone_deposit_scale=0.0)) == []


def test_node_listed_in_two_fault_entries_rejected():
    cfg = config_from_dict({"fault_spec": [
        {"behavior": "drop", "nodes": [3, 3, 5]},
        {"behavior": "delay", "nodes": [3, 4]},
        {"behavior": "flood", "nodes": [5, 6]},
    ]})
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.violations == ["fault_spec: node ids [3, 5] listed more than once"]


def test_node_listed_twice_in_one_fault_entry_rejected():
    cfg = SimConfig(fault_spec=(FaultSpec(behavior="drop", nodes=(3, 3)),))
    assert any("[3]" in v for v in collect_violations(cfg))


def test_minimal_file_gives_standard_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(str(path))
    assert cfg.node_count == 50
    assert cfg.field_width == 200.0 and cfg.field_height == 200.0
    assert cfg.initial_energy == 1.0
    assert cfg.trust_threshold == 0.5


def test_override_beats_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rng_seed": 3, "node_count": 10}))
    cfg = load_config(str(path), rng_seed=7)
    assert cfg.rng_seed == 7
    assert cfg.node_count == 10


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"node_cout": 10}))
    with pytest.raises(ParseError, match="node_cout"):
        load_config(str(path))


@pytest.mark.parametrize("text, key", [
    ('{"tau_init": NaN}', "tau_init"),
    ('{"initial_energy": Infinity}', "initial_energy"),
    ('{"rho": -Infinity}', "rho"),
    ('{"e_elec": NaN}', "e_elec"),
    ('{"field_width": NaN}', "field_width"),
    ('{"tau_floor": NaN}', "tau_floor"),
    ('{"pheromone_deposit_scale": NaN}', "pheromone_deposit_scale"),
    ('{"latency_penalty_cycles": NaN}', "latency_penalty_cycles"),
    ('{"bs_position": [NaN, 10]}', "bs_position"),
    ('{"fault_spec": [{"behavior": "drop", "fraction": 0.2, "p": NaN}]}',
     r"fault_spec\[0\]\.p"),
])
def test_non_finite_number_named_in_error(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=key):
        load_config(str(path))


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"node_count": 10,}')
    with pytest.raises(ParseError, match="line"):
        load_config(str(path))


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="absent.json"):
        load_config(str(tmp_path / "absent.json"))


def test_fault_entries_parse_from_dict():
    cfg = config_from_dict({
        "fault_spec": [
            {"behavior": "drop", "fraction": 0.2, "p": 0.8},
            {"behavior": "flood", "nodes": [4, 7], "rate": 3},
        ]
    })
    assert cfg.fault_spec[0].p == 0.8
    assert cfg.fault_spec[1].nodes == (4, 7)


def test_fault_entry_unknown_key_rejected():
    with pytest.raises(ParseError, match="probability"):
        config_from_dict({"fault_spec": [{"behavior": "drop", "probability": 1.0}]})


def test_effective_defaults():
    cfg = SimConfig()
    assert cfg.effective_bs_position() == (100.0, 200.0)
    assert cfg.effective_latency_penalty() == 5.0 * (cfg.wc_max + 1)
    cfg2 = SimConfig(bs_position=(5.0, 5.0), latency_penalty_cycles=9.0)
    assert cfg2.effective_bs_position() == (5.0, 5.0)
    assert cfg2.effective_latency_penalty() == 9.0
