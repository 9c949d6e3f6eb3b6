"""The paper's two evaluation scenarios (Sections 5.1 and 5.2).

Both studies own the full pipeline for one platform: characterize the
chassis (once), run the baseline and PCM cluster simulations over the
workload trace, and reduce the traces to the numbers the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cooling.load import CoolingLoadSeries, PeakComparison, compare_peaks
from repro.cooling.provisioning import (
    ProvisioningGain,
    added_servers_under_same_plant,
)
from repro.core.melting_point import MeltingPointSearch, optimize_melting_point
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.simulator import (
    DatacenterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.dcsim.room import RoomModel
from repro.dcsim.throttling import RoomTemperaturePolicy
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMMaterial
from repro.runner.pool import sweep
from repro.server.characterization import (
    PlatformCharacterization,
    characterize_platform,
)
from repro.server.configs import PlatformSpec
from repro.workload.trace import LoadTrace


def _simulate_arm(task: tuple) -> SimulationResult:
    """One cluster simulation (sweep worker for study arms).

    ``task`` is ``(characterization, power_model, material, trace,
    topology, config)`` — everything a worker process needs, all plain
    picklable dataclasses.
    """
    characterization, power_model, material, trace, topology, config = task
    return DatacenterSimulator(
        characterization,
        power_model,
        material,
        trace,
        topology=topology,
        config=config,
    ).run()


#: Characterizations are pure functions of the platform geometry; cache
#: them so sweeps across materials and scenarios pay the detailed-model
#: cost once per platform. The key covers the wax geometry as well as the
#: name — layout variants of the same platform (e.g. the insert-swap vs
#: reconfigured Open Compute blades) characterize differently.
_CHARACTERIZATION_CACHE: dict[tuple, PlatformCharacterization] = {}


def _characterization_key(spec: PlatformSpec) -> tuple:
    loadout = spec.wax_loadout
    if loadout is None:
        return (spec.name, None)
    return (
        spec.name,
        len(loadout.boxes),
        round(loadout.total_volume_m3, 9),
        round(loadout.total_conductance_w_per_k(), 9),
        round(loadout.blockage_fraction, 9),
    )


def cached_characterization(spec: PlatformSpec) -> PlatformCharacterization:
    """Characterize a platform, memoized by name and wax geometry."""
    key = _characterization_key(spec)
    if key not in _CHARACTERIZATION_CACHE:
        _CHARACTERIZATION_CACHE[key] = characterize_platform(spec)
    return _CHARACTERIZATION_CACHE[key]


def clear_characterization_cache() -> None:
    """Drop memoized characterizations (tests use this for isolation)."""
    _CHARACTERIZATION_CACHE.clear()


# ---------------------------------------------------------------------------
# Section 5.1: PCM to reduce cooling load
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoolingLoadOutcome:
    """Everything Figure 11 and the Section 5.1 text report for one
    platform."""

    platform_name: str
    baseline: SimulationResult
    with_pcm: SimulationResult
    comparison: PeakComparison
    provisioning: ProvisioningGain
    melting_point_search: MeltingPointSearch | None
    material: PCMMaterial

    @property
    def peak_reduction_fraction(self) -> float:
        """Fractional peak cooling-load reduction."""
        return self.comparison.peak_reduction_fraction

    def baseline_series(self) -> CoolingLoadSeries:
        """Baseline cluster cooling load series."""
        return CoolingLoadSeries.from_simulation(self.baseline, "Cooling Load")

    def pcm_series(self) -> CoolingLoadSeries:
        """PCM cluster cooling load series."""
        return CoolingLoadSeries.from_simulation(self.with_pcm, "Load with PCM")


class CoolingLoadStudy:
    """Fully subscribed datacenter: how much does PCM clip the peak?

    Parameters
    ----------
    spec:
        The platform to study.
    trace:
        Cluster load trace (the paper's two-day Google trace).
    topology:
        Cluster shape; defaults to the paper's 1008 servers.
    optimize_melting:
        Search the commercial melting-point window for the load-minimizing
        blend (the paper's procedure). When false, uses the spec's
        configured material as-is.
    config:
        Simulation configuration (fluid mode by default).
    jobs:
        Worker processes for the study's independent simulations (the
        melting-point grid and the baseline/PCM pair); ``1`` runs
        everything serially in-process.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        trace: LoadTrace,
        topology: ClusterTopology | None = None,
        optimize_melting: bool = True,
        melting_window_c: tuple[float, float] = (36.0, 60.0),
        melting_step_c: float = 0.5,
        config: SimulationConfig | None = None,
        jobs: int = 1,
    ) -> None:
        if spec.wax_loadout is None:
            raise ConfigurationError(
                f"{spec.name}: cooling-load study needs a wax loadout"
            )
        self.spec = spec
        self.trace = trace
        self.topology = topology or ClusterTopology(
            server_count=1008, servers_per_rack=spec.servers_per_rack
        )
        self.optimize_melting = optimize_melting
        self.melting_window_c = melting_window_c
        self.melting_step_c = melting_step_c
        self.config = config or SimulationConfig(mode="fluid")
        self.jobs = jobs

    def _config(self, wax_enabled: bool) -> SimulationConfig:
        return replace(self.config, wax_enabled=wax_enabled)

    def run(self) -> CoolingLoadOutcome:
        """Run baseline + optimized-PCM simulations and reduce the traces."""
        characterization = cached_characterization(self.spec)
        power_model = self.spec.power_model

        search: MeltingPointSearch | None = None
        if self.optimize_melting:
            search = optimize_melting_point(
                characterization,
                power_model,
                self.trace,
                topology=self.topology,
                window_c=self.melting_window_c,
                step_c=self.melting_step_c,
                config=self._config(wax_enabled=True),
                jobs=self.jobs,
            )
            material = commercial_paraffin_with_melting_point(
                search.best_melting_point_c
            )
        else:
            material = self.spec.wax_loadout.material

        baseline, with_pcm = sweep(
            _simulate_arm,
            [
                (
                    characterization,
                    power_model,
                    material,
                    self.trace,
                    self.topology,
                    self._config(wax_enabled),
                )
                for wax_enabled in (False, True)
            ],
            jobs=self.jobs,
            label="runner.cooling_load_arms",
        )
        comparison = compare_peaks(
            CoolingLoadSeries.from_simulation(baseline),
            CoolingLoadSeries.from_simulation(with_pcm),
        )
        provisioning = added_servers_under_same_plant(
            comparison, self.topology.server_count
        )
        return CoolingLoadOutcome(
            platform_name=self.spec.name,
            baseline=baseline,
            with_pcm=with_pcm,
            comparison=comparison,
            provisioning=provisioning,
            melting_point_search=search,
            material=material,
        )


# ---------------------------------------------------------------------------
# Section 5.2: PCM to increase throughput
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThroughputArm:
    """One curve of Figure 12 (ideal / no wax / with wax)."""

    label: str
    result: SimulationResult
    #: Throughput normalized to the no-wax (throttled) peak.
    normalized_throughput: np.ndarray

    @property
    def peak_normalized_throughput(self) -> float:
        """Peak of the normalized curve."""
        return float(np.max(self.normalized_throughput))

    def first_throttle_time_s(self) -> float | None:
        """First tick at which the arm ran below nominal frequency."""
        mask = self.result.throttled_mask()
        if not np.any(mask):
            return None
        return float(self.result.times_s[int(np.argmax(mask))])


@dataclass(frozen=True)
class ThroughputOutcome:
    """Everything Figure 12 reports for one platform."""

    platform_name: str
    ideal: ThroughputArm
    no_wax: ThroughputArm
    with_wax: ThroughputArm
    cooling_capacity_w: float

    @property
    def peak_throughput_gain(self) -> float:
        """Fractional peak-throughput increase from PCM (the paper's
        33% / 69% / 34%)."""
        return (
            self.with_wax.peak_normalized_throughput
            / self.no_wax.peak_normalized_throughput
            - 1.0
        )

    @property
    def elevated_hours(self) -> float:
        """Hours the PCM cluster ran above the no-wax ceiling (the paper's
        "33% over 5.1 hours" duration)."""
        result = self.with_wax.result
        dt = np.diff(result.times_s, prepend=0.0)
        elevated = self.with_wax.normalized_throughput > 1.0 + 1e-3
        return float(np.sum(dt[elevated])) / 3600.0

    @property
    def thermal_limit_delay_hours(self) -> float:
        """Hours by which PCM postpones the first downclock."""
        base = self.no_wax.first_throttle_time_s()
        pcm = self.with_wax.first_throttle_time_s()
        if base is None:
            return 0.0
        if pcm is None:
            # The wax carried the whole horizon without throttling.
            return (self.no_wax.result.times_s[-1] - base) / 3600.0
        return (pcm - base) / 3600.0


class ThroughputStudy:
    """Oversubscribed datacenter: how long can PCM hold full clocks?

    Parameters
    ----------
    oversubscription:
        Cooling capacity as a fraction of the baseline (no-wax, nominal
        frequency) peak cooling load. Below 1.0 the plant cannot cover
        peak demand and the thermal-limit policy must intervene.
    material:
        Wax blend; defaults to the platform's configured material.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        trace: LoadTrace,
        oversubscription: float = 0.9,
        topology: ClusterTopology | None = None,
        material: PCMMaterial | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        if spec.wax_loadout is None:
            raise ConfigurationError(
                f"{spec.name}: throughput study needs a wax loadout"
            )
        if not 0.0 < oversubscription <= 1.0:
            raise ConfigurationError(
                f"oversubscription must be in (0, 1], got {oversubscription}"
            )
        self.spec = spec
        self.trace = trace
        self.oversubscription = oversubscription
        self.topology = topology or ClusterTopology(
            server_count=1008, servers_per_rack=spec.servers_per_rack
        )
        self.material = material or spec.wax_loadout.material
        self.config = config or SimulationConfig(mode="fluid")

    def _config(self, wax_enabled: bool) -> SimulationConfig:
        return replace(self.config, wax_enabled=wax_enabled)

    def run(self) -> ThroughputOutcome:
        """Run the three arms of Figure 12 and normalize them.

        Constrained arms run against a capacity-limited room: the cold
        aisle warms when release exceeds the plant capacity, and the
        cluster downclocks when the room reaches its operating limit.
        """
        characterization = cached_characterization(self.spec)
        power_model = self.spec.power_model

        ideal_result = _simulate_arm(
            (
                characterization,
                power_model,
                self.material,
                self.trace,
                self.topology,
                self._config(wax_enabled=False),
            )
        )
        capacity = self.oversubscription * ideal_result.peak_cooling_load_w

        def constrained_arm(wax_enabled: bool) -> SimulationResult:
            # Each arm gets a fresh room sized for the plant capacity.
            room = RoomModel.sized_for_cluster(
                capacity, self.topology.server_count
            )
            return DatacenterSimulator(
                characterization,
                power_model,
                self.material,
                self.trace,
                topology=self.topology,
                policy=RoomTemperaturePolicy(room),
                room=room,
                config=self._config(wax_enabled),
            ).run()

        no_wax_result = constrained_arm(wax_enabled=False)
        with_wax_result = constrained_arm(wax_enabled=True)

        # Normalize to the no-wax arm's peak, matching the paper's Figure
        # 12 where the No Wax curve tops out at exactly 1.0 (its peak is
        # the throughput reached just as the thermal limit engages).
        norm = no_wax_result.peak_throughput
        if norm <= 0:
            raise ConfigurationError(
                "baseline arm produced zero throughput; trace or policy broken"
            )

        def arm(label: str, result: SimulationResult) -> ThroughputArm:
            return ThroughputArm(
                label=label,
                result=result,
                normalized_throughput=result.throughput / norm,
            )

        return ThroughputOutcome(
            platform_name=self.spec.name,
            ideal=arm("Ideal", ideal_result),
            no_wax=arm("No Wax", no_wax_result),
            with_wax=arm("With Wax", with_wax_result),
            cooling_capacity_w=capacity,
        )
