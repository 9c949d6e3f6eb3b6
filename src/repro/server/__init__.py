"""Server platform models.

Builds chassis-level thermal networks for the three platforms of the
paper's scale-out study (Section 4.1):

* the validated 1U low-power commodity server (Lenovo RD330 class);
* the 2U high-throughput commodity server (Sun X4470 class, 4 sockets);
* the Microsoft Open Compute blade (high density).

Each platform couples a :class:`~repro.server.power.ServerPowerModel`
(utilization- and frequency-dependent electrical power) with a chassis
geometry that places components and wax containers into airflow zones, and
can be *characterized* into the lumped per-server wax melting model the
datacenter simulator consumes.
"""

from repro.server.components import Component, component_node_names
from repro.server.power import ServerPowerModel
from repro.server.wax_box import WaxBox, WaxLoadout
from repro.server.chassis import ServerChassis, UtilizationSchedule
from repro.server.configs import (
    PlatformSpec,
    open_compute_blade,
    one_u_commodity,
    two_u_commodity,
    PLATFORM_BUILDERS,
    platform_by_name,
)
from repro.server.characterization import (
    LumpedServerModel,
    characterize_platform,
)

__all__ = [
    "Component",
    "component_node_names",
    "ServerPowerModel",
    "WaxBox",
    "WaxLoadout",
    "ServerChassis",
    "UtilizationSchedule",
    "PlatformSpec",
    "one_u_commodity",
    "two_u_commodity",
    "open_compute_blade",
    "PLATFORM_BUILDERS",
    "platform_by_name",
    "LumpedServerModel",
    "characterize_platform",
]
