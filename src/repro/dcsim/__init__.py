"""DCSim: an event-based datacenter traffic + thermal simulator.

Reimplementation of the simulator the paper uses for its scale-out study
(Section 4.2): "an event-based simulator that models job arrival, load
balancing, and work completion for the input job distribution traces at
the server, rack, and cluster levels, then extrapolates the cluster model
out for the whole datacenter. We use a round robin load balancing scheme,
and extend DCSim to model thermal time shifting with PCM using wax melting
characteristics derived from extensive Icepak simulations of each server."

Two fidelity modes share one thermal core:

* **event** — discrete job arrivals, round-robin dispatch across the
  cluster, slot occupancy, completions (with exact DVFS time dilation via
  a global work clock);
* **fluid** — per-tick utilization taken directly from the load trace,
  for fast parameter sweeps.
"""

from repro.dcsim.geo import GeoPair, GeoResult, GeoSite
from repro.dcsim.mixed import MixedFleet, rollout_curve
from repro.dcsim.loadbalancer import LeastLoaded, LoadBalancer, RoundRobin
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.rack_thermals import RackInletProfile
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import (
    NoThermalLimit,
    ThermalLimitPolicy,
    ThrottleDecision,
)
from repro.dcsim.simulator import (
    DatacenterSimulator,
    SimulationConfig,
    SimulationResult,
)

__all__ = [
    "LoadBalancer",
    "RoundRobin",
    "LeastLoaded",
    "ClusterTopology",
    "ClusterThermalState",
    "RackInletProfile",
    "RoomModel",
    "GeoPair",
    "GeoSite",
    "GeoResult",
    "MixedFleet",
    "rollout_curve",
    "NoThermalLimit",
    "ThermalLimitPolicy",
    "ThrottleDecision",
    "DatacenterSimulator",
    "SimulationConfig",
    "SimulationResult",
]
