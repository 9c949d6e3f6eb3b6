"""Melting-temperature selection (paper Section 5.1).

"The range of melting temperature available in commercial grade paraffin
allows us to select one with an optimal melting threshold to reduce the
peak cooling load of each cluster, and the best melting temperature is
determined on the shape and length of the load trace: for the Google
trace, we find that the best wax typically begins to melt when a server
exceeds 75% load."

The search runs the (fast, fluid-mode) cluster simulation across a grid of
candidate melting points and picks the one minimizing the two-day peak
cooling load. The two-day horizon makes the daily-cycle constraint
self-enforcing: wax that cannot refreeze overnight has no capacity left
for day two, so its day-two peak is unclipped and the candidate scores
poorly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.dcsim.thermal_coupling import (
    BatchedClusterThermalState,
    uniform_totals,
)
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMMaterial
from repro.obs import get_registry
from repro.runner.pool import sweep
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel
from repro.workload.trace import LoadTrace


def _candidate_peak(task: tuple) -> float:
    """Peak cooling load of one candidate melting point (sweep worker).

    ``task`` carries everything a worker process needs:
    ``(characterization, power_model, trace, topology, config,
    melting_point_c)``. The baseline arm ships the wax-disabled config
    with the window-low material, exactly as the serial search did.
    """
    characterization, power_model, trace, topology, config, melt_c = task
    return (
        DatacenterSimulator(
            characterization,
            power_model,
            commercial_paraffin_with_melting_point(float(melt_c)),
            trace,
            topology=topology,
            config=config,
        )
        .run()
        .peak_cooling_load_w
    )


def batched_fluid_peaks(
    characterization: PlatformCharacterization,
    power_model: ServerPowerModel,
    materials: list[PCMMaterial],
    wax_enabled: np.ndarray,
    trace: LoadTrace,
    topology: ClusterTopology,
    config: SimulationConfig,
) -> np.ndarray:
    """Peak cooling load per candidate from one batched fluid-mode run.

    Replays the unconstrained fluid tick loop of
    :mod:`repro.dcsim.fluid_engine` (no policy, no room) with all
    candidates stacked into one :class:`BatchedClusterThermalState`, so
    the whole melting-point grid advances in a single array loop. Every
    server of a member sees one utilization, no inlet offset and no
    fault, so each member is stepped as one server column. Each member's
    trajectory — and therefore its peak — is bit-identical to a serial
    simulation of that candidate:

    * the demand is looked up for every tick at once: ``np.interp`` and
      ``np.clip`` are elementwise, so the series equals the per-tick
      lookups of the fluid engine;
    * the peak is taken before the sum: :func:`uniform_totals` totals
      n equal doubles, which is monotone in the value, so the
      largest cluster total over the ticks is the total of each member's
      largest per-server release, summed once per search.
    """
    n_candidates = len(materials)
    n_servers = topology.server_count
    dt = config.tick_interval_s
    n_ticks = int(np.floor(trace.duration_s / dt))
    ticks = (np.arange(n_ticks) + 1) * dt
    state = BatchedClusterThermalState(
        characterization=characterization,
        power_model=power_model,
        material=materials,
        cluster_count=n_candidates,
        server_count=1,
        inlet_temperature_c=config.inlet_temperature_c,
        initial_utilization=float(np.clip(trace.value_at(0.0), 0.0, 1.0)),
        wax_enabled=wax_enabled,
    )
    nominal = power_model.nominal_frequency_ghz
    demand = np.clip(trace.value_at(ticks - 0.5 * dt), 0.0, 1.0)
    busy = np.minimum(demand / power_model.throughput_factor(nominal), 1.0)
    largest = np.full((n_candidates, 1), -np.inf)
    utilization = np.empty((n_candidates, 1))
    for fraction in busy.tolist():
        utilization.fill(fraction)
        _power, release, _wax = state.step(dt, utilization, nominal)
        np.maximum(largest, release, out=largest)
    peaks = uniform_totals(largest, n_servers)
    obs = get_registry()
    if obs.enabled:
        obs.count("dcsim.batched_runs")
        obs.count("dcsim.batched_members", n_candidates)
        obs.count("dcsim.ticks", n_ticks)
        obs.count("dcsim.server_ticks", n_ticks * n_candidates * n_servers)
    return peaks


@dataclass(frozen=True)
class MeltingPointSearch:
    """Result of a melting-point grid search."""

    candidates_c: np.ndarray
    peak_cooling_w: np.ndarray
    baseline_peak_w: float
    best_melting_point_c: float

    @property
    def best_peak_w(self) -> float:
        """Peak cooling load at the winning melting point."""
        return float(np.min(self.peak_cooling_w))

    @property
    def best_reduction_fraction(self) -> float:
        """Fractional peak reduction at the winning melting point."""
        return 1.0 - self.best_peak_w / self.baseline_peak_w


def optimize_melting_point(
    characterization: PlatformCharacterization,
    power_model: ServerPowerModel,
    trace: LoadTrace,
    topology: ClusterTopology | None = None,
    window_c: tuple[float, float] = (36.0, 60.0),
    step_c: float = 0.5,
    config: SimulationConfig | None = None,
    jobs: int = 1,
) -> MeltingPointSearch:
    """Grid-search the wax melting point minimizing peak cooling load.

    Parameters
    ----------
    window_c:
        Candidate melting points (the commercial-paraffin market offers
        roughly 40-60 degC; 36-40 covers measured off-spec blends like the
        paper's 39 degC purchase).
    step_c:
        Grid resolution.
    config:
        Simulation configuration; defaults to fluid mode (the search runs
        dozens of two-day simulations).
    jobs:
        Worker processes for the candidate grid in event mode. Fluid
        mode ignores it: the whole grid (and the wax-disabled baseline)
        advances as one :func:`batched_fluid_peaks` run, bit-identical
        to a serial search.
    """
    low, high = window_c
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigurationError(f"melting window must be finite: [{low}, {high}]")
    if not low < high:
        raise ConfigurationError(f"melting window is inverted: [{low}, {high}]")
    # In-range test: NaN fails every comparison, so it fails it too.
    if not 0.0 < step_c < math.inf:
        raise ConfigurationError(f"grid step must be positive and finite, got {step_c}")
    topology = topology or ClusterTopology()
    config = config or SimulationConfig(mode="fluid")
    if not config.wax_enabled:
        raise ConfigurationError("melting-point search needs wax enabled")

    baseline_config = replace(config, wax_enabled=False)
    candidates = np.arange(low, high + 0.5 * step_c, step_c)
    if config.mode == "fluid":
        # The unconstrained fluid loop vectorizes: one batched run covers
        # the wax-disabled baseline (member 0) plus every candidate.
        materials = [commercial_paraffin_with_melting_point(float(low))]
        materials.extend(
            commercial_paraffin_with_melting_point(float(melt_c))
            for melt_c in candidates
        )
        wax_enabled = np.ones(len(materials), dtype=bool)
        wax_enabled[0] = False
        all_peaks = batched_fluid_peaks(
            characterization,
            power_model,
            materials,
            wax_enabled,
            trace,
            topology,
            config,
        )
    else:
        tasks = [
            (characterization, power_model, trace, topology, baseline_config, low)
        ]
        tasks.extend(
            (characterization, power_model, trace, topology, config, float(melt_c))
            for melt_c in candidates
        )
        all_peaks = sweep(
            _candidate_peak, tasks, jobs=jobs, label="runner.melting_point"
        )
    baseline_peak = float(all_peaks[0])
    peaks = np.asarray(all_peaks[1:], dtype=float)

    best_index = int(np.argmin(peaks))
    return MeltingPointSearch(
        candidates_c=candidates,
        peak_cooling_w=peaks,
        baseline_peak_w=baseline_peak,
        best_melting_point_c=float(candidates[best_index]),
    )
