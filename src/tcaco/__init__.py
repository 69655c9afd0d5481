"""Trust-based, congestion-aware ant-routing simulator for sensor networks."""

from .config import (ConfigError, FaultSpec, ParseError, SimConfig,
                     load_config, validate_config)
from .engine import (PROTOCOLS, CycleStats, SimMetrics, Simulation,
                     extract_milestones, run_simulation)
from .topology import DisconnectedNetwork, Topology, build_topology, euclidean_distance

__all__ = [
    "ConfigError",
    "CycleStats",
    "DisconnectedNetwork",
    "FaultSpec",
    "ParseError",
    "PROTOCOLS",
    "SimConfig",
    "SimMetrics",
    "Simulation",
    "Topology",
    "build_topology",
    "euclidean_distance",
    "extract_milestones",
    "load_config",
    "run_simulation",
    "validate_config",
]

__version__ = "0.1.0"
