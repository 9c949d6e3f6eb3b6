"""Server component thermal descriptions.

A :class:`Component` is the unit of placement inside a chassis: it knows
its thermal mass, its idle/peak heat dissipation at nominal frequency, how
strongly it couples to the airstream, and which airflow zone it sits in.
The paper's Icepak models use the same granularity: "From front to rear, we
model the hard drive, DVD drive and front panel as a pair of block heat
sources... Each DRAM module is modeled independently... The PSU is modeled
in the rear... all other heat sources are lumped together with the CPU
sockets."

Component power under load is ``idle_w + (peak_w - idle_w) * u * dvfs``,
mirroring the server-level affine model; CPU-class components additionally
scale their dynamic power with the DVFS factor while drives and PSU loss do
not (``scales_with_frequency``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Component:
    """One placeable heat source in a chassis.

    Parameters
    ----------
    name:
        Base name; instances are suffixed ``[i]`` when ``count > 1``.
    zone:
        Airflow zone (stream segment) the component sits in.
    count:
        Number of identical instances (e.g. 10 DIMMs).
    heat_capacity_j_per_k:
        Thermal mass per instance, including attached heat sink mass.
    idle_power_w / peak_power_w:
        Per-instance dissipation at zero and full utilization.
    reference_conductance_w_per_k:
        Convective coupling (h*A, plus any series sink/spreading resistance
        folded in) per instance at the chassis reference flow.
    scales_with_frequency:
        Whether the dynamic term scales with the DVFS factor (true for
        CPUs and the board electronics lumped with them; false for drives).
    """

    name: str
    zone: str
    count: int = 1
    heat_capacity_j_per_k: float = 200.0
    idle_power_w: float = 0.0
    peak_power_w: float = 0.0
    reference_conductance_w_per_k: float = 1.0
    scales_with_frequency: bool = False

    def __post_init__(self) -> None:
        """Every test is an in-range comparison that NaN fails."""
        if self.count <= 0:
            raise ConfigurationError(
                f"component {self.name!r}: count must be positive, got {self.count}"
            )
        if not 0 < self.heat_capacity_j_per_k < math.inf:
            raise ConfigurationError(
                f"component {self.name!r}: heat capacity must be positive and "
                f"finite, got {self.heat_capacity_j_per_k}"
            )
        if not 0 <= self.idle_power_w < math.inf:
            raise ConfigurationError(
                f"component {self.name!r}: idle power must be non-negative and "
                f"finite, got {self.idle_power_w}"
            )
        if not self.idle_power_w <= self.peak_power_w < math.inf:
            raise ConfigurationError(
                f"component {self.name!r}: peak power ({self.peak_power_w}) "
                f"must be finite and at least the idle power "
                f"({self.idle_power_w})"
            )
        if not 0 < self.reference_conductance_w_per_k < math.inf:
            raise ConfigurationError(
                f"component {self.name!r}: conductance must be positive and "
                f"finite, got {self.reference_conductance_w_per_k}"
            )

    @property
    def dynamic_range_w(self) -> float:
        """Per-instance utilization-proportional power span."""
        return self.peak_power_w - self.idle_power_w

    def power_w(self, utilization: float, dvfs_factor: float = 1.0) -> float:
        """Per-instance dissipation at a utilization and DVFS factor."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        if dvfs_factor <= 0:
            raise ConfigurationError(
                f"DVFS factor must be positive, got {dvfs_factor}"
            )
        factor = dvfs_factor if self.scales_with_frequency else 1.0
        return self.idle_power_w + self.dynamic_range_w * utilization * factor

    def total_idle_power_w(self) -> float:
        """Idle dissipation across all instances."""
        return self.count * self.idle_power_w

    def total_peak_power_w(self) -> float:
        """Peak dissipation across all instances."""
        return self.count * self.peak_power_w

    def with_zone(self, zone: str) -> "Component":
        """Copy of the component placed in a different zone (used by the
        Open Compute reconfiguration that swaps CPUs and SSDs)."""
        return replace(self, zone=zone)


def component_node_names(component: Component) -> list[str]:
    """Thermal-network node names generated for a component's instances."""
    if component.count == 1:
        return [component.name]
    return [f"{component.name}[{index}]" for index in range(component.count)]


def total_idle_power_w(components: list[Component]) -> float:
    """Aggregate idle dissipation of a component list."""
    return sum(component.total_idle_power_w() for component in components)


def total_peak_power_w(components: list[Component]) -> float:
    """Aggregate peak dissipation of a component list."""
    return sum(component.total_peak_power_w() for component in components)
