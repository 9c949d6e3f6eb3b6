"""Lumped per-server wax melting characteristics for the cluster simulator.

The paper extends DCSim "to model thermal time shifting with PCM using wax
melting characteristics derived from extensive Icepak simulations of each
server" (Section 4.2). This module is that derivation: it runs the detailed
chassis thermal model (our Icepak stand-in) across utilization operating
points and condenses the result into a :class:`PlatformCharacterization` —
a small table-driven model cheap enough to tick for a thousand servers over
two simulated days:

* the steady wax-zone air temperature rise above inlet as a function of
  *effective utilization* (the power-equivalent utilization, which also
  folds in DVFS downclocking);
* the air-to-wax aggregate conductance UA as a function of utilization
  (fan speeds, and therefore flow and film coefficients, track load);
* an effective first-order time constant for the wax-zone air responding
  to load changes.

A :class:`LumpedServerModel` combines a characterization with a concrete
wax blend to step one server's thermal state; the datacenter simulator
vectorizes the same equations across a cluster
(:mod:`repro.dcsim.thermal_coupling`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial, PCMSample
from repro.server.chassis import ServerChassis, constant_utilization
from repro.server.configs import PlatformSpec
from repro.thermal.convection import flow_scaled_conductance
from repro.thermal.solver import simulate_transient
from repro.thermal.steady_state import solve_steady_state_batch
from repro.units import hours

#: Utilization grid at which the detailed model is sampled.
DEFAULT_UTILIZATION_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Inlet temperature used during characterization; the lumped model applies
#: its deltas to whatever inlet the datacenter scenario specifies.
CHARACTERIZATION_INLET_C = 25.0


@dataclass(frozen=True)
class PlatformCharacterization:
    """Condensed thermal behaviour of one platform's wax installation.

    Attributes
    ----------
    platform_name:
        Name of the characterized platform.
    utilization_grid:
        Effective-utilization sample points, ascending in [0, 1].
    zone_temp_delta_c:
        Steady wax-zone air temperature minus inlet at each grid point
        (boxes installed, i.e. including their blockage effect).
    wax_ua_w_per_k:
        Aggregate air-to-wax conductance at each grid point.
    zone_time_constant_s:
        Effective first-order response time of the wax-zone air to a load
        step.
    wax_mass_kg / wax_volume_m3:
        Total deployed wax quantity.
    reference_flow_m3_s:
        Flow datum of the conductance table.
    """

    platform_name: str
    utilization_grid: tuple[float, ...]
    zone_temp_delta_c: tuple[float, ...]
    wax_ua_w_per_k: tuple[float, ...]
    zone_time_constant_s: float
    wax_mass_kg: float
    wax_volume_m3: float
    reference_flow_m3_s: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.utilization_grid)
        if grid.ndim != 1 or len(grid) < 2:
            raise ConfigurationError("utilization grid needs >= 2 points")
        if not np.all(np.diff(grid) > 0):
            raise ConfigurationError("utilization grid must be ascending")
        if grid[0] < 0 or grid[-1] > 1:
            raise ConfigurationError("utilization grid must lie in [0, 1]")
        for label, values in (
            ("zone temperature deltas", self.zone_temp_delta_c),
            ("wax UA values", self.wax_ua_w_per_k),
        ):
            if len(values) != len(grid):
                raise ConfigurationError(f"{label} do not match the grid")
        if any(value <= 0 for value in self.wax_ua_w_per_k):
            raise ConfigurationError("wax UA must be positive everywhere")
        if self.zone_time_constant_s <= 0:
            raise ConfigurationError("zone time constant must be positive")
        if self.wax_mass_kg <= 0 or self.wax_volume_m3 <= 0:
            raise ConfigurationError("wax quantity must be positive")

    def zone_delta_at(self, effective_utilization: float | np.ndarray) -> np.ndarray:
        """Wax-zone air rise above inlet at an effective utilization."""
        return np.interp(
            effective_utilization, self.utilization_grid, self.zone_temp_delta_c
        )

    def ua_at(self, effective_utilization: float | np.ndarray) -> np.ndarray:
        """Air-to-wax conductance at an effective utilization."""
        return np.interp(
            effective_utilization, self.utilization_grid, self.wax_ua_w_per_k
        )


def interp_float(x: float, xp: tuple[float, ...], fp: tuple[float, ...]) -> float:
    """``np.interp(x, xp, fp)`` for one float, on Python floats.

    The same formula as NumPy's: NaN passes through, ``x`` clamps to the
    end values outside ``xp``, a knot returns its own value, and a point
    between knots ``j`` and ``j + 1`` is ``slope * (x - xp[j]) + fp[j]``,
    retried from the right knot if that is NaN. It skips ``np.interp``'s
    conversion of the tables to arrays, most of its cost on one float;
    array lookups keep ``np.interp``.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    value = slope * (x - xp[j]) + fp[j]
    if value != value:
        value = slope * (x - xp[j + 1]) + fp[j + 1]
        if value != value and fp[j] == fp[j + 1]:
            value = fp[j]
    return value


def _effective_zone_time_constant(
    chassis: ServerChassis, zone: str, horizon_s: float
) -> float:
    """Effective first-order time constant of a zone's air temperature.

    Simulates a cold start at full load and reports the time at which the
    zone air covers 1 - 1/e of its total rise. The multi-capacitance
    network is not a pure first-order system; this effective constant is
    what the lumped lag reproduces.
    """
    network = chassis.build_network(
        utilization=constant_utilization(1.0),
        inlet_temperature_c=CHARACTERIZATION_INLET_C,
        placebo=chassis.wax_loadout is not None,
    )
    result = simulate_transient(network, horizon_s, output_interval_s=60.0)
    trace = result.air_temperatures_c[zone]
    initial, final = trace[0], trace[-1]
    if final - initial < 1e-6:
        raise ConfigurationError(
            f"{chassis.name}: zone {zone!r} shows no thermal response"
        )
    threshold = initial + (1.0 - np.exp(-1.0)) * (final - initial)
    crossing = np.argmax(trace >= threshold)
    if crossing == 0:
        raise ConfigurationError(
            f"{chassis.name}: zone {zone!r} responds faster than the "
            f"sampling interval; shorten the output interval"
        )
    return float(result.times_s[crossing])


def characterize_platform(
    spec: PlatformSpec,
    utilization_grid: tuple[float, ...] = DEFAULT_UTILIZATION_GRID,
    transient_horizon_s: float = hours(6.0),
) -> PlatformCharacterization:
    """Derive a platform's lumped wax melting characteristics.

    Runs the detailed chassis model (steady states across the utilization
    grid with the boxes installed, plus one cold-start transient) and
    condenses the results. The characterization is geometry/airflow data
    only — independent of the wax blend — so one characterization serves
    every melting-point sweep.
    """
    chassis = spec.chassis
    loadout = chassis.wax_loadout
    if loadout is None:
        raise ConfigurationError(
            f"{spec.name}: cannot characterize a platform without a wax loadout"
        )

    reference_flow = chassis.reference_flow_m3_s()
    g_reference = loadout.total_conductance_w_per_k()

    # One batched steady solve covers the whole utilization grid; each
    # member's result is bit-identical to a serial solve at that level.
    networks = [
        chassis.build_network(
            utilization=constant_utilization(level),
            inlet_temperature_c=CHARACTERIZATION_INLET_C,
            placebo=True,
        )
        for level in utilization_grid
    ]
    zone_deltas: list[float] = []
    ua_values: list[float] = []
    for steady in solve_steady_state_batch(networks):
        zone_deltas.append(
            steady.air_temperatures_c[loadout.zone] - CHARACTERIZATION_INLET_C
        )
        ua_values.append(
            flow_scaled_conductance(
                g_reference, steady.flow_m3_s, reference_flow
            )
        )

    time_constant = _effective_zone_time_constant(
        chassis, loadout.zone, transient_horizon_s
    )

    return PlatformCharacterization(
        platform_name=spec.name,
        utilization_grid=tuple(utilization_grid),
        zone_temp_delta_c=tuple(zone_deltas),
        wax_ua_w_per_k=tuple(ua_values),
        zone_time_constant_s=time_constant,
        wax_mass_kg=loadout.total_mass_kg,
        wax_volume_m3=loadout.total_volume_m3,
        reference_flow_m3_s=reference_flow,
    )


@dataclass
class ServerStepResult:
    """Per-tick outputs of the lumped server model."""

    power_w: float
    heat_release_w: float
    wax_heat_w: float
    wax_temperature_c: float
    melt_fraction: float


class LumpedServerModel:
    """One server's fast thermal model: power, zone air lag, wax enthalpy.

    Per tick of length ``dt``:

    1. wall power from the utilization/frequency operating point;
    2. the wax-zone air temperature relaxes toward its characterized
       steady value for the *effective* utilization (power-equivalent,
       so downclocked operation correctly produces less heat);
    3. the wax exchanges ``UA * (T_zone - T_wax)`` with the air, updating
       its enthalpy (melting when hot, refreezing when cool);
    4. the heat the building's cooling system must remove is the wall
       power minus the heat currently being banked into the wax (or plus
       the heat the wax is giving back).
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model,
        material: PCMMaterial,
        inlet_temperature_c: float = 25.0,
        initial_utilization: float = 0.0,
    ) -> None:
        self.characterization = characterization
        self.power_model = power_model
        self.material = material
        self.inlet_temperature_c = inlet_temperature_c
        initial_delta = float(characterization.zone_delta_at(initial_utilization))
        self.zone_temperature_c = inlet_temperature_c + initial_delta
        # The wax starts equilibrated with its surroundings: the zone air.
        self.sample = PCMSample.from_volume(
            material,
            characterization.wax_volume_m3,
            initial_temperature_c=self.zone_temperature_c,
        )

    def effective_utilization(
        self, utilization: float, frequency_ghz: float | None = None
    ) -> float:
        """Power-equivalent utilization of an operating point."""
        power = self.power_model.wall_power_w(utilization, frequency_ghz)
        span = self.power_model.dynamic_range_w
        return (power - self.power_model.idle_power_w) / span

    def step(
        self,
        dt_s: float,
        utilization: float,
        frequency_ghz: float | None = None,
    ) -> ServerStepResult:
        """Advance one tick and return the tick's thermal accounting."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(
                f"tick must be positive and finite, got {dt_s}"
            )
        power = self.power_model.wall_power_w(utilization, frequency_ghz)
        u_eff = self.effective_utilization(utilization, frequency_ghz)

        target = self.inlet_temperature_c + float(
            self.characterization.zone_delta_at(u_eff)
        )
        blend = 1.0 - np.exp(-dt_s / self.characterization.zone_time_constant_s)
        self.zone_temperature_c += blend * (target - self.zone_temperature_c)

        ua = float(self.characterization.ua_at(u_eff))
        wax_heat = ua * (self.zone_temperature_c - self.sample.temperature_c)
        self.sample.add_heat(wax_heat * dt_s)

        return ServerStepResult(
            power_w=power,
            heat_release_w=power - wax_heat,
            wax_heat_w=wax_heat,
            wax_temperature_c=self.sample.temperature_c,
            melt_fraction=self.sample.melt_fraction,
        )
