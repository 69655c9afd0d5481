"""Simulation configuration: schema, defaults, validation, JSON loading.

Every knob of the simulator lives here so experiments can sweep any of them
from a config file without touching code. ``validate_config`` reports every
violated constraint at once rather than stopping at the first.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Raised when a configuration violates one or more constraints.

    ``violations`` holds one message per violated constraint.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(ValueError):
    """Raised when a config file cannot be parsed or names unknown keys."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault assignment: which nodes misbehave and how.

    ``behavior`` is one of honest, drop, duplicate, flood, delay.
    Targets are either an explicit ``nodes`` id list or a ``fraction`` of
    the population sampled deterministically from the replicate stream.
    """

    behavior: str = "honest"
    nodes: Optional[tuple[int, ...]] = None
    fraction: Optional[float] = None
    p: float = 1.0          # drop probability
    copies: int = 2         # duplicate: total copies forwarded per packet
    rate: int = 1           # flood: fake packets injected per cycle
    extra: int = 1          # delay: cycles a packet is held before forwarding


BEHAVIOR_KINDS = ("honest", "drop", "duplicate", "flood", "delay")
CONGESTION_POLARITIES = ("inverted", "literal")
LATENCY_POLARITIES = ("normalized", "literal")
FORWARDING_MODES = ("deterministic_rank", "stochastic_roulette")
SOURCE_POLICIES = ("fixed", "random_per_round")


@dataclass(frozen=True)
class SimConfig:
    # Field and deployment
    field_width: float = 200.0
    field_height: float = 200.0
    node_count: int = 50
    radio_range: float = 60.0
    bs_position: Optional[tuple[float, float]] = None  # None: field-edge midpoint (w/2, h)

    # Energy
    initial_energy: float = 1.0
    energy_threshold: float = 0.01
    e_elec: float = 50e-9     # J/bit, radio electronics
    eps_fs: float = 100e-12   # J/bit/m^2, free-space amplifier
    packet_size_bits: int = 2000
    ack_size_fraction: float = 0.1

    # Trust
    trust_threshold: float = 0.5
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0
    latency_polarity: str = "normalized"
    latency_penalty_cycles: Optional[float] = None  # None: 5 * (wc_max + 1)

    # Congestion
    queue_capacity: int = 10
    wc_max: int = 3
    congestion_window: Optional[int] = None  # None: average over all history

    # Link layer: a packet is abandoned after this many unacknowledged
    # transfers (classic MAC short-retry limit)
    max_transfer_attempts: int = 7

    # Routing
    alpha: float = 0.5
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 1.0
    rho: float = 0.1
    tau_init: float = 1.0
    tau_floor: float = 1e-6
    pheromone_deposit_scale: float = 1.0
    congestion_polarity: str = "inverted"
    forwarding_mode: str = "deterministic_rank"

    # Traffic and lifecycle
    packets_per_round: int = 20
    source_policy: str = "fixed"
    source_node: Optional[int] = None  # None with "fixed": node nearest corner (0, 0)
    per_cycle_forward_limit: Optional[int] = None
    fault_spec: tuple[FaultSpec, ...] = ()
    max_cycles: int = 5000
    rng_seed: int = 1

    def effective_bs_position(self) -> tuple[float, float]:
        if self.bs_position is not None:
            return self.bs_position
        return (self.field_width / 2.0, self.field_height)

    def effective_latency_penalty(self) -> float:
        """Latency charged to a failed transfer: several timeout horizons."""
        if self.latency_penalty_cycles is not None:
            return self.latency_penalty_cycles
        return 5.0 * (self.wc_max + 1)


def _check_unit(name: str, value: float, violations: list[str]) -> None:
    if not (0.0 <= value <= 1.0):
        violations.append(f"{name} out of [0,1]")


def collect_violations(cfg: SimConfig) -> list[str]:
    """Return every constraint violated by ``cfg`` (empty list when valid)."""
    v: list[str] = []
    for name in ("a1", "a2", "a3", "alpha", "beta1", "beta2", "beta3", "rho",
                 "ack_size_fraction", "trust_threshold"):
        _check_unit(name, getattr(cfg, name), v)
    if cfg.a1 + cfg.a2 + cfg.a3 <= 0:
        v.append("trust weights a1+a2+a3 must be positive")
    if cfg.tau_init <= 0:
        v.append("tau_init must be positive")
    if cfg.tau_floor <= 0:
        v.append("tau_floor must be positive")
    if cfg.pheromone_deposit_scale < 0:
        v.append("pheromone_deposit_scale must be >= 0")
    if cfg.node_count < 2:
        v.append("node_count must be >= 2")
    if cfg.queue_capacity < 1:
        v.append("queue_capacity must be >= 1")
    if cfg.wc_max < 1:
        v.append("wc_max must be >= 1")
    if cfg.packets_per_round < 1:
        v.append("packets_per_round must be >= 1")
    if not cfg.energy_threshold < cfg.initial_energy:
        v.append("energy_threshold must be below initial_energy")
    if cfg.energy_threshold < 0:
        v.append("energy_threshold must be >= 0")
    if cfg.initial_energy <= 0:
        v.append("initial_energy must be positive")
    if cfg.field_width <= 0 or cfg.field_height <= 0:
        v.append("field dimensions must be positive")
    if cfg.radio_range <= 0:
        v.append("radio_range must be positive")
    if cfg.e_elec <= 0:
        v.append("e_elec must be positive")
    if cfg.eps_fs <= 0:
        v.append("eps_fs must be positive")
    if cfg.packet_size_bits < 1:
        v.append("packet_size_bits must be >= 1")
    if cfg.max_cycles < 0:
        v.append("max_cycles must be >= 0")
    if cfg.congestion_polarity not in CONGESTION_POLARITIES:
        v.append(f"congestion_polarity must be one of {CONGESTION_POLARITIES}")
    if cfg.latency_polarity not in LATENCY_POLARITIES:
        v.append(f"latency_polarity must be one of {LATENCY_POLARITIES}")
    if cfg.forwarding_mode not in FORWARDING_MODES:
        v.append(f"forwarding_mode must be one of {FORWARDING_MODES}")
    if cfg.source_policy not in SOURCE_POLICIES:
        v.append(f"source_policy must be one of {SOURCE_POLICIES}")
    if cfg.source_node is not None and not (0 <= cfg.source_node < cfg.node_count):
        v.append("source_node out of range")
    if cfg.congestion_window is not None and cfg.congestion_window < 1:
        v.append("congestion_window must be >= 1 when set")
    if cfg.max_transfer_attempts < 1:
        v.append("max_transfer_attempts must be >= 1")
    if cfg.per_cycle_forward_limit is not None and cfg.per_cycle_forward_limit < 1:
        v.append("per_cycle_forward_limit must be >= 1 when set")
    if cfg.latency_penalty_cycles is not None and cfg.latency_penalty_cycles <= 0:
        v.append("latency_penalty_cycles must be positive when set")
    for idx, f in enumerate(cfg.fault_spec):
        tag = f"fault_spec[{idx}]"
        if f.behavior not in BEHAVIOR_KINDS:
            v.append(f"{tag}: unknown behavior {f.behavior!r}")
        if (f.nodes is None) == (f.fraction is None):
            v.append(f"{tag}: exactly one of nodes/fraction required")
        if f.fraction is not None and not (0.0 <= f.fraction <= 1.0):
            v.append(f"{tag}: fraction out of [0,1]")
        if f.nodes is not None and any(
                not (0 <= n < cfg.node_count) for n in f.nodes):
            v.append(f"{tag}: node id out of range")
        if not (0.0 <= f.p <= 1.0):
            v.append(f"{tag}: p out of [0,1]")
        if f.copies < 1:
            v.append(f"{tag}: copies must be >= 1")
        if f.rate < 0:
            v.append(f"{tag}: rate must be >= 0")
        if f.extra < 0:
            v.append(f"{tag}: extra must be >= 0")
    # a node takes one behaviour: an id listed twice would silently take
    # the last entry's
    listed = Counter(k for f in cfg.fault_spec if f.nodes is not None for k in f.nodes)
    repeated = sorted(k for k, count in listed.items() if count > 1)
    if repeated:
        v.append(f"fault_spec: node ids {repeated} listed more than once")
    return v


def validate_config(cfg: SimConfig) -> SimConfig:
    """Return ``cfg`` unchanged if valid, else raise ConfigError listing all violations."""
    violations = collect_violations(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


_SIM_TYPES = get_type_hints(SimConfig)
_FAULT_TYPES = get_type_hints(FaultSpec)
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def check_json_type(key: str, value, hint) -> None:
    """Raise ParseError naming ``key`` unless the JSON ``value`` fits the
    type ``hint``: int, float (an int fits too, NaN and the infinities do
    not), str, a list or tuple of one of them (a JSON list either way), or
    Optional of any of these."""
    if get_origin(hint) is Union:
        if value is None:
            return
        hint = get_args(hint)[0]
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ParseError(f"{key} must be a list, not {json.dumps(value)}")
        if origin is tuple and args[-1] is not Ellipsis and len(value) != len(args):
            raise ParseError(f"{key} must list {len(args)} values, not {json.dumps(value)}")
        for item in value:
            check_json_type(key, item, args[0])
        return
    fits = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, fits):
        raise ParseError(f"{key} must be {_TYPE_NAMES[hint]}, not {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{key} must be a finite number, not {json.dumps(value)}")


def _parse_fault_entry(raw: dict, idx: int) -> FaultSpec:
    if not isinstance(raw, dict):
        raise ParseError(f"fault_spec[{idx}] must be an object")
    for key, value in raw.items():
        if key not in _FAULT_TYPES:
            raise ParseError(f"fault_spec[{idx}]: unknown key {key!r}")
        check_json_type(f"fault_spec[{idx}].{key}", value, _FAULT_TYPES[key])
    nodes = raw.get("nodes")
    return FaultSpec(**{**raw, "nodes": tuple(nodes) if nodes is not None else None})


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from a plain dict, rejecting unknown keys."""
    kwargs = {}
    for key, value in data.items():
        if key not in _SIM_TYPES:
            raise ParseError(f"unknown config key {key!r}")
        if key == "fault_spec":
            if not isinstance(value, list):
                raise ParseError("fault_spec must be a list")
            value = tuple(_parse_fault_entry(e, i) for i, e in enumerate(value))
        else:
            check_json_type(key, value, _SIM_TYPES[key])
            if key == "bs_position" and value is not None:
                value = (float(value[0]), float(value[1]))
        kwargs[key] = value
    return SimConfig(**kwargs)


def read_json_object(path: str) -> dict:
    """The JSON object in the file at ``path``; any failure is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def load_config(path: str, **overrides) -> SimConfig:
    """Load a SimConfig from a JSON file; keyword overrides win over file values."""
    cfg = config_from_dict(read_json_object(path))
    if overrides:
        cfg = replace(cfg, **overrides)
    return validate_config(cfg)
