"""Mixed fleets: PCM-equipped and legacy servers sharing one plant.

The paper's retrofit scenario (Section 5.1) replaces a datacenter's
servers at their 4-year end of life while the cooling plant soldiers on.
Real migrations are rolling, not atomic: for months the room holds a mix
of wax-equipped new servers and wax-less old ones, all breathing the same
cold aisle and drawing on the same plant.

A :class:`MixedFleet` runs two server groups over the same trace — each
an ordinary fluid-mode :class:`~repro.dcsim.simulator.DatacenterSimulator`
run, one with wax and one without — and reports the blended cooling
load, so operators can ask the planning question the paper's endpoints
bracket: *how much of the fleet must carry wax before the peak drops
enough to matter?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.simulator import (
    DatacenterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel
from repro.workload.trace import LoadTrace


@dataclass(frozen=True)
class MixedFleetResult:
    """Per-tick traces of a mixed-fleet run."""

    times_s: np.ndarray
    cooling_load_w: np.ndarray
    equipped_cooling_load_w: np.ndarray
    legacy_cooling_load_w: np.ndarray
    power_w: np.ndarray
    melt_fraction: np.ndarray

    @property
    def peak_cooling_load_w(self) -> float:
        """Peak blended cooling load."""
        return float(np.max(self.cooling_load_w))


class MixedFleet:
    """Two co-located server groups, with and without wax.

    Both groups run the platform's characterization and power model; only
    the wax differs. Utilization is applied uniformly (round-robin over a
    homogeneous service pool spreads work evenly regardless of which
    chassis carries wax — the dispatcher cannot see the wax).
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial,
        trace: LoadTrace,
        total_servers: int,
        equipped_fraction: float,
        tick_interval_s: float = 60.0,
        inlet_temperature_c: float = 25.0,
    ) -> None:
        if total_servers <= 0:
            raise ConfigurationError("total servers must be positive")
        if not 0.0 <= equipped_fraction <= 1.0:
            raise ConfigurationError(
                f"equipped fraction must be in [0, 1], got {equipped_fraction}"
            )
        if not 0.0 < tick_interval_s < math.inf:
            raise ConfigurationError(
                f"tick interval must be positive and finite, got "
                f"{tick_interval_s}"
            )
        self.characterization = characterization
        self.power_model = power_model
        self.material = material
        self.trace = trace
        self.total_servers = total_servers
        self.equipped_count = int(round(equipped_fraction * total_servers))
        self.legacy_count = total_servers - self.equipped_count
        self.tick_interval_s = tick_interval_s
        self.inlet_temperature_c = inlet_temperature_c

    def _run_group(self, count: int, wax: bool) -> SimulationResult | None:
        if count == 0:
            return None
        return DatacenterSimulator(
            self.characterization,
            self.power_model,
            self.material,
            self.trace,
            topology=ClusterTopology(server_count=count),
            config=SimulationConfig(
                tick_interval_s=self.tick_interval_s,
                inlet_temperature_c=self.inlet_temperature_c,
                wax_enabled=wax,
            ),
        ).run()

    def run(self) -> MixedFleetResult:
        """Run both groups over the trace and blend their cooling loads."""
        equipped = self._run_group(self.equipped_count, wax=True)
        legacy = self._run_group(self.legacy_count, wax=False)
        times = (equipped or legacy).times_s

        def series(group: SimulationResult | None, name: str) -> np.ndarray:
            if group is None:
                return np.zeros(len(times))
            return getattr(group, name)

        equipped_load = series(equipped, "cooling_load_w")
        legacy_load = series(legacy, "cooling_load_w")
        return MixedFleetResult(
            times_s=times,
            cooling_load_w=equipped_load + legacy_load,
            equipped_cooling_load_w=equipped_load,
            legacy_cooling_load_w=legacy_load,
            power_w=series(equipped, "power_w") + series(legacy, "power_w"),
            melt_fraction=series(equipped, "melt_fraction"),
        )


def rollout_curve(
    characterization: PlatformCharacterization,
    power_model: ServerPowerModel,
    material: PCMMaterial,
    trace: LoadTrace,
    total_servers: int = 1008,
    fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> dict[float, float]:
    """Peak-cooling reduction as the wax rollout progresses.

    Returns equipped fraction -> fractional peak reduction relative to the
    all-legacy fleet.
    """
    if not fractions:
        raise ConfigurationError("need at least one rollout fraction")
    baseline = MixedFleet(
        characterization, power_model, material, trace,
        total_servers=total_servers, equipped_fraction=0.0,
    ).run().peak_cooling_load_w
    curve: dict[float, float] = {}
    for fraction in fractions:
        peak = MixedFleet(
            characterization, power_model, material, trace,
            total_servers=total_servers, equipped_fraction=fraction,
        ).run().peak_cooling_load_w
        curve[float(fraction)] = 1.0 - peak / baseline
    return curve
