"""Vectorized per-server thermal + wax state for a whole cluster.

This is the cluster-scale form of
:class:`repro.server.characterization.LumpedServerModel`: the same
equations, evaluated with NumPy across every server at once, so a
1008-server cluster ticking every simulated minute over two days costs a
few thousand small array operations.

Per tick and per server:

1. wall power from the (utilization, frequency) operating point;
2. the wax-zone air temperature relaxes toward the characterized steady
   value at the effective utilization;
3. the wax exchanges ``UA * (T_zone - T_wax)`` with the zone air, its
   enthalpy integrating the flow (melting/refreezing by the enthalpy
   method);
4. heat release to the room = power - wax absorption rate.

Servers without wax use the same object with ``wax_enabled=False`` (the
exchange term is forced to zero), so with/without-PCM comparisons share
every other code path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.server.characterization import PlatformCharacterization, interp_float
from repro.server.power import ServerPowerModel


#: Rows :func:`uniform_totals` fills at a time, bounding its buffer at
#: ``_FILL_ROWS * server_count`` floats however many rows it totals.
_FILL_ROWS = 256


def uniform_totals(per_server: float | np.ndarray, server_count: int) -> np.ndarray:
    """Row totals over ``server_count`` servers that all carry one value.

    ``per_server`` holds one value per row (a scalar is one row). Each
    row is filled into a ``(rows, server_count)`` buffer and summed along
    axis 1: the pairwise reduction ``np.sum`` applies to a full
    per-server row, so a uniform cluster computed as one server totals
    bit-identically to its full state. A mean is the total divided by
    ``server_count``, as ``np.mean`` divides.
    """
    values = np.asarray(per_server, dtype=float).reshape(-1)
    totals = np.empty(len(values))
    buf = np.empty((min(len(values), _FILL_ROWS), server_count))
    for r0 in range(0, len(values), _FILL_ROWS):
        chunk = values[r0 : r0 + _FILL_ROWS]
        rows = buf[: len(chunk)]
        rows[:] = chunk[:, None]
        totals[r0 : r0 + len(chunk)] = rows.sum(axis=1)
    return totals


class BatchedClusterThermalState:
    """Stacked ``(clusters, servers)`` thermal state for many clusters.

    All clusters share one characterization and power model — the stacked
    form of the fig10/11/12 sweeps, where the same platform runs under
    many scenarios at once. Per-cluster knobs (inlet temperature, wax
    material, wax enablement, initial utilization, DVFS frequency) vary
    along the leading axis; passing a list of materials batches a
    melting-point sweep. Every update is elementwise across that axis in
    the exact operation order of a lone cluster, so each member's
    trajectory is bit-identical to stepping it alone.
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial | list[PCMMaterial],
        cluster_count: int,
        server_count: int,
        inlet_temperature_c: float | np.ndarray = 25.0,
        initial_utilization: float | np.ndarray = 0.0,
        wax_enabled: bool | np.ndarray = True,
        inlet_offset_c: np.ndarray | None = None,
    ) -> None:
        if cluster_count <= 0:
            raise ConfigurationError(
                f"cluster count must be positive, got {cluster_count}"
            )
        if server_count <= 0:
            raise ConfigurationError(
                f"server count must be positive, got {server_count}"
            )
        self.characterization = characterization
        self.power_model = power_model
        if isinstance(material, PCMMaterial):
            materials = [material] * cluster_count
        else:
            materials = list(material)
            if len(materials) != cluster_count:
                raise ConfigurationError(
                    f"expected {cluster_count} materials, got {len(materials)}"
                )
        self.materials = materials
        self.material = materials[0]
        # Material parameters as (clusters, 1) columns so the enthalpy
        # maps broadcast per cluster across the server axis.
        self._solidus = np.array([[m.solidus_c] for m in materials])
        self._liquidus = np.array([[m.liquidus_c] for m in materials])
        self._fusion = np.array([[m.heat_of_fusion_j_per_kg] for m in materials])
        self._c_solid = np.array(
            [[m.specific_heat_solid_j_per_kg_k] for m in materials]
        )
        self._c_liquid = np.array(
            [[m.specific_heat_liquid_j_per_kg_k] for m in materials]
        )
        self._melt_range = np.array([[m.melting_range_c] for m in materials])
        self.cluster_count = cluster_count
        self.server_count = server_count
        self.wax_mass_kg = characterization.wax_mass_kg
        # The frozen characterization's lookup tables as arrays, converted
        # once here instead of by every ``np.interp`` call.
        self._grid = np.asarray(characterization.utilization_grid, dtype=float)
        self._zone_deltas = np.asarray(characterization.zone_temp_delta_c, dtype=float)
        self._uas = np.asarray(characterization.wax_ua_w_per_k, dtype=float)
        self.inlet_temperature_c = self._per_cluster(
            "inlet_temperature_c", inlet_temperature_c, float
        ).copy()
        self.wax_enabled = self._per_cluster(
            "wax_enabled", wax_enabled, bool
        ).copy()

        if inlet_offset_c is None:
            self.inlet_offset_c = np.zeros((cluster_count, server_count))
        else:
            offsets = np.asarray(inlet_offset_c, dtype=float)
            if offsets.shape == (server_count,):
                offsets = np.broadcast_to(
                    offsets, (cluster_count, server_count)
                ).copy()
            if offsets.shape != (cluster_count, server_count):
                raise ConfigurationError(
                    f"expected inlet offsets shape "
                    f"({cluster_count}, {server_count}), got {offsets.shape}"
                )
            self.inlet_offset_c = offsets

        initial_delta = characterization.zone_delta_at(
            self._per_cluster("initial_utilization", initial_utilization, float)
        )
        self.zone_temperature_c = (
            self.inlet_temperature_c[:, None]
            + self.inlet_offset_c
            + initial_delta[:, None]
        )
        self.specific_enthalpy_j_per_kg = self._enthalpy_at_temperature(
            self.zone_temperature_c
        )
        # Fault-injection scales (see repro.faults). Exactly 1.0 means the
        # scaled quantity is not multiplied at all, keeping faultless runs
        # bit-identical to the un-instrumented dynamics.
        self._ua_scale = 1.0
        self._zone_delta_scale = 1.0
        self._wax_capacity_factor = 1.0

    def set_fault_scales(
        self,
        ua_scale: float = 1.0,
        zone_delta_scale: float = 1.0,
        wax_capacity_factor: float = 1.0,
    ) -> None:
        """Set the fault-injection modifiers for subsequent steps.

        ``ua_scale`` scales the air-to-wax conductance (a derated fan
        moves less air over the boxes), ``zone_delta_scale`` scales the
        steady zone temperature rise (less flow removes less heat per
        degree), and ``wax_capacity_factor`` scales the effective wax
        mass (cycling degradation shrinks the latent store). All three
        persist until changed; the injector resets them to 1.0 when the
        fault clears.
        """
        for label, value in (
            ("ua scale", ua_scale),
            ("zone delta scale", zone_delta_scale),
            ("wax capacity factor", wax_capacity_factor),
        ):
            if not value > 0.0:
                raise ConfigurationError(
                    f"{label} must be positive, got {value}"
                )
        if wax_capacity_factor > 1.0:
            raise ConfigurationError(
                f"wax capacity factor cannot exceed 1.0, got "
                f"{wax_capacity_factor}"
            )
        self._ua_scale = float(ua_scale)
        self._zone_delta_scale = float(zone_delta_scale)
        self._wax_capacity_factor = float(wax_capacity_factor)

    @property
    def fault_scales(self) -> tuple[float, float, float]:
        """The (ua, zone delta, wax capacity) scales; 1.0 unless faulted."""
        return (self._ua_scale, self._zone_delta_scale, self._wax_capacity_factor)

    def _per_cluster(self, field: str, value, dtype) -> np.ndarray:
        """``value`` broadcast to one entry per cluster (read-only view)."""
        try:
            return np.broadcast_to(
                np.asarray(value, dtype=dtype), (self.cluster_count,)
            )
        except ValueError:
            raise ConfigurationError(
                f"{field} needs one value or {self.cluster_count} (one per "
                f"cluster), got shape {np.shape(value)}"
            ) from None

    # -- per-cluster enthalpy maps (same branches as ``PCMMaterial``) -------

    def _temperature_at_enthalpy(self, h: np.ndarray) -> np.ndarray:
        solid = self._solidus + h / self._c_solid
        mushy = self._solidus + (h / self._fusion) * self._melt_range
        liquid = self._liquidus + (h - self._fusion) / self._c_liquid
        return np.where(h <= 0, solid, np.where(h >= self._fusion, liquid, mushy))

    def _enthalpy_at_temperature(self, t: np.ndarray) -> np.ndarray:
        solid = (t - self._solidus) * self._c_solid
        mushy = (t - self._solidus) / self._melt_range * self._fusion
        liquid = self._fusion + (t - self._liquidus) * self._c_liquid
        return np.where(
            t <= self._solidus,
            solid,
            np.where(t >= self._liquidus, liquid, mushy),
        )

    # -- queries -----------------------------------------------------------

    @property
    def wax_temperature_c(self) -> np.ndarray:
        """Per-server wax temperature, shape ``(clusters, servers)``."""
        return self._temperature_at_enthalpy(self.specific_enthalpy_j_per_kg)

    @property
    def melt_fraction(self) -> np.ndarray:
        """Per-server wax melt fraction, shape ``(clusters, servers)``."""
        return np.clip(self.specific_enthalpy_j_per_kg / self._fusion, 0.0, 1.0)

    @property
    def effective_wax_mass_kg(self) -> float:
        """Wax mass after any active capacity-degradation fault."""
        if self._wax_capacity_factor != 1.0:
            return self.wax_mass_kg * self._wax_capacity_factor
        return self.wax_mass_kg

    @property
    def stored_latent_heat_j(self) -> np.ndarray:
        """Per-cluster total latent heat currently banked in the wax."""
        return (
            np.sum(self.melt_fraction, axis=1)
            * self.effective_wax_mass_kg
            * self._fusion[:, 0]
        )

    def _frequency_factors(
        self, frequency_ghz: float | np.ndarray
    ) -> float | np.ndarray:
        """DVFS power factors via the scalar power model: one float for a
        scalar frequency, else a ``(clusters, 1)`` column, one per cluster."""
        if np.isscalar(frequency_ghz):
            return self.power_model.frequency_factor(float(frequency_ghz))
        frequencies = self._per_cluster("frequency_ghz", frequency_ghz, float)
        return np.array(
            [[self.power_model.frequency_factor(float(f))] for f in frequencies]
        )

    def effective_utilization(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Power-equivalent ``(clusters, servers)`` utilization (folds in
        DVFS): each server's busy fraction times its cluster's factor."""
        factors = self._frequency_factors(frequency_ghz)
        return np.asarray(utilization, dtype=float) * factors

    def power_w(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Per-server wall power at an operating point."""
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        return self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

    def wax_exchange_w(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Instantaneous air-to-wax heat flow at the *current* state,
        without advancing it (used by throttling policies to preview what
        the wax could absorb this tick)."""
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        ua = np.interp(u_eff, self._grid, self._uas)
        if self._ua_scale != 1.0:
            ua = ua * self._ua_scale
        exchange = ua * (self.zone_temperature_c - self.wax_temperature_c)
        return np.where(self.wax_enabled[:, None], exchange, 0.0)

    # -- dynamics ------------------------------------------------------------

    def step(
        self,
        dt_s: float,
        utilization: np.ndarray,
        frequency_ghz: float | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one tick; returns (power_w, heat_release_w, wax_heat_w).

        ``utilization`` is per-server busy fraction in [0, 1] with shape
        ``(clusters, servers)``; ``frequency_ghz`` is each cluster's DVFS
        state this tick (scalar broadcasts to every cluster).
        """
        # In-range test: NaN fails every comparison, so it fails it too.
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"tick must be positive and finite, got {dt_s}")
        utilization = np.asarray(utilization, dtype=float)
        if utilization.shape != (self.cluster_count, self.server_count):
            raise ConfigurationError(
                f"expected utilization shape "
                f"({self.cluster_count}, {self.server_count}), got "
                f"{utilization.shape}"
            )
        # In-range test on the extremes: a NaN makes both NaN, and NaN
        # fails every comparison.
        if not (utilization.min() >= -1e-9 and utilization.max() <= 1.0 + 1e-9):
            raise ConfigurationError("utilization must be finite and lie in [0, 1]")

        u_eff = self.effective_utilization(utilization, frequency_ghz)
        power = self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

        zone_delta = np.interp(u_eff, self._grid, self._zone_deltas)
        if self._zone_delta_scale != 1.0:
            zone_delta = zone_delta * self._zone_delta_scale
        target = (
            self.inlet_temperature_c[:, None] + self.inlet_offset_c + zone_delta
        )
        blend = 1.0 - np.exp(-dt_s / self.characterization.zone_time_constant_s)

        ua = np.interp(u_eff, self._grid, self._uas)
        if self._ua_scale != 1.0:
            ua = ua * self._ua_scale

        self.zone_temperature_c += blend * (target - self.zone_temperature_c)
        exchange = ua * (self.zone_temperature_c - self.wax_temperature_c)
        wax_heat = np.where(self.wax_enabled[:, None], exchange, 0.0)
        self.specific_enthalpy_j_per_kg += np.where(
            self.wax_enabled[:, None],
            wax_heat * dt_s / self.effective_wax_mass_kg,
            0.0,
        )

        return power, power - wax_heat, wax_heat

    # -- one server column ---------------------------------------------------

    def is_uniform(self, utilization: np.ndarray | None = None) -> bool:
        """Whether each cluster's servers share one zone temperature, one
        wax enthalpy and, if given, one ``(clusters, servers)``
        utilization, compared exactly.

        Elementwise IEEE arithmetic on equal inputs gives equal outputs,
        so every server of a uniform cluster can be computed as one.
        """
        fields = [self.zone_temperature_c, self.specific_enthalpy_j_per_kg]
        if utilization is not None:
            if np.shape(utilization) != self.zone_temperature_c.shape:
                return False
            fields.append(utilization)
        return all(bool((f == f[:, :1]).all()) for f in fields)


class UniformStretchAdvancer:
    """A uniform single-cluster thermal state computed as one server.

    The caller vouches that every server shares one zone temperature and
    one wax enthalpy and that no server has an inlet offset. The column
    steps the state with every fault scale at 1.0, as
    :meth:`BatchedClusterThermalState.step` does when it multiplies by
    none of them: :class:`repro.dcsim.simulator._Plant` takes the column
    only while the scales are 1.0, and an MPC rollout
    (:class:`repro.control.MPCPolicy`) rolls forward a clone with unit
    scales. The plant keeps one advancer per run, for fluid stretches
    and for single ticks alike. Each :meth:`tick` performs, on plain
    Python floats, exactly the per-element arithmetic (and branch
    structure) that the array step performs on every server: elementwise
    IEEE operations on identical inputs yield identical outputs, so the
    trajectory is bit-identical to stepping the arrays. :meth:`load`
    reads the column off the array state and :meth:`commit` broadcasts
    it back.

    The zone/enthalpy recursion is inherently sequential in time, so the
    win is not vectorization across ticks but replacing ~15 small-array
    NumPy operations per tick with a handful of float operations.
    """

    def __init__(self, state: "ClusterThermalState", dt_s: float) -> None:
        # In-range test: NaN fails every comparison, so it fails it too.
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"tick must be positive and finite, got {dt_s}")
        self._state = state
        characterization = state.characterization
        self._characterization = characterization
        self._dt_s = float(dt_s)
        power_model = state.power_model
        self._power_model = power_model
        self._idle_w = float(power_model.idle_power_w)
        self._dynamic_range_w = float(power_model.dynamic_range_w)
        # Same expression step() evaluates each tick (dt and the time
        # constant never change mid-run, so neither does the result).
        self._blend = float(
            1.0 - np.exp(-dt_s / characterization.zone_time_constant_s)
        )
        self._material = state.material
        self._fusion = float(state.material.heat_of_fusion_j_per_kg)
        # The undegraded mass: with a unit capacity factor it is the
        # effective mass the array step divides by.
        self._wax_mass = float(state.wax_mass_kg)
        self._enabled = bool(state.wax_enabled)
        self.load()

    def load(self) -> None:
        """Read the one zone temperature and wax enthalpy off the state."""
        self._zone = float(self._state.zone_temperature_c[0])
        self._enthalpy = float(self._state.specific_enthalpy_j_per_kg[0])

    def interp_series(
        self, effective_utilization: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tick (zone delta, UA) series for a stretch.

        ``np.interp`` evaluates elementwise, so looking a whole stretch
        up at once is bit-identical to the per-tick scalar lookups
        inside :meth:`BatchedClusterThermalState.step` (which, with unit
        fault scales, applies no further arithmetic to either).
        """
        characterization = self._characterization
        return (
            characterization.zone_delta_at(effective_utilization),
            characterization.ua_at(effective_utilization),
        )

    def tick(
        self, inlet_c: float, u_eff: float, zone_delta: float, ua: float
    ) -> tuple[float, float, float, float]:
        """Advance one tick; returns (power, release, wax heat, melt).

        All four returns are *per-server* scalars; every server of the
        uniform state carries the same value this tick.
        """
        power = self._idle_w + (self._dynamic_range_w * u_eff)
        # target = inlet[:, None] + inlet_offset + zone_delta, with the
        # offsets all exactly 0.0 by the caller's contract.
        target = inlet_c + 0.0 + zone_delta
        zone = self._zone
        zone = zone + self._blend * (target - zone)
        enthalpy = self._enthalpy
        # The material's map takes the branch np.where picks per server.
        wax_t = self._material.temperature_at_enthalpy(enthalpy)
        if self._enabled:
            heat = ua * (zone - wax_t)
            enthalpy = enthalpy + heat * self._dt_s / self._wax_mass
        else:
            heat = 0.0
            enthalpy = enthalpy + 0.0
        self._zone = zone
        self._enthalpy = enthalpy
        melt = enthalpy / self._fusion
        if melt < 0.0:
            melt = 0.0
        elif melt > 1.0:
            melt = 1.0
        return power, power - heat, heat, melt

    def step(
        self, inlet_c: float, busy: float, frequency_ghz: float
    ) -> tuple[float, float, float, float]:
        """:meth:`tick` at one busy fraction every server runs.

        Checks ``busy`` as the array step does, folds in the DVFS factor,
        and looks the zone delta and UA up with
        :func:`~repro.server.characterization.interp_float`, which equals
        the array step's ``np.interp`` on one float.
        """
        # In-range test: NaN fails every comparison, so it fails it too.
        if not -1e-9 <= busy <= 1.0 + 1e-9:
            raise ConfigurationError("utilization must be finite and lie in [0, 1]")
        u_eff = busy * self._power_model.frequency_factor(frequency_ghz)
        characterization = self._characterization
        grid = characterization.utilization_grid
        return self.tick(
            inlet_c,
            u_eff,
            interp_float(u_eff, grid, characterization.zone_temp_delta_c),
            interp_float(u_eff, grid, characterization.wax_ua_w_per_k),
        )

    def commit(self) -> None:
        """Broadcast the column back over the array state."""
        self._state.zone_temperature_c[:] = self._zone
        self._state.specific_enthalpy_j_per_kg[:] = self._enthalpy


class ClusterThermalState:
    """Mutable thermal state of every server in one cluster.

    A single-cluster view over :class:`BatchedClusterThermalState`: the
    arrays exposed here are row views into the batched ``(1, servers)``
    state, so the dynamics live in exactly one place.
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial,
        server_count: int,
        inlet_temperature_c: float = 25.0,
        initial_utilization: float = 0.0,
        wax_enabled: bool = True,
        inlet_offset_c: np.ndarray | None = None,
    ) -> None:
        if inlet_offset_c is not None:
            offsets = np.asarray(inlet_offset_c, dtype=float)
            if offsets.shape != (server_count,):
                raise ConfigurationError(
                    f"expected inlet offsets shape ({server_count},), got "
                    f"{offsets.shape}"
                )
        self._batched = BatchedClusterThermalState(
            characterization=characterization,
            power_model=power_model,
            material=material,
            cluster_count=1,
            server_count=server_count,
            inlet_temperature_c=inlet_temperature_c,
            initial_utilization=initial_utilization,
            wax_enabled=wax_enabled,
            inlet_offset_c=inlet_offset_c,
        )
        self.characterization = characterization
        self.power_model = power_model
        self.material = material
        self.server_count = server_count
        self.wax_enabled = wax_enabled
        self.wax_mass_kg = characterization.wax_mass_kg
        self.inlet_offset_c = self._batched.inlet_offset_c[0]

    # -- single-cluster views over the batched state -----------------------

    @property
    def inlet_temperature_c(self) -> float:
        """Cold-aisle inlet temperature shared by this cluster's servers."""
        return float(self._batched.inlet_temperature_c[0])

    @inlet_temperature_c.setter
    def inlet_temperature_c(self, value: float) -> None:
        self._batched.inlet_temperature_c[0] = value

    @property
    def zone_temperature_c(self) -> np.ndarray:
        """Per-server wax-zone air temperature (view, shape ``(servers,)``)."""
        return self._batched.zone_temperature_c[0]

    @property
    def specific_enthalpy_j_per_kg(self) -> np.ndarray:
        """Per-server wax specific enthalpy (view, shape ``(servers,)``)."""
        return self._batched.specific_enthalpy_j_per_kg[0]

    # -- queries -----------------------------------------------------------

    @property
    def wax_temperature_c(self) -> np.ndarray:
        """Per-server wax temperature."""
        return self._batched.wax_temperature_c[0]

    @property
    def melt_fraction(self) -> np.ndarray:
        """Per-server wax melt fraction."""
        return self._batched.melt_fraction[0]

    @property
    def stored_latent_heat_j(self) -> float:
        """Cluster-total latent heat currently banked in the wax."""
        return float(self._batched.stored_latent_heat_j[0])

    def set_fault_scales(
        self,
        ua_scale: float = 1.0,
        zone_delta_scale: float = 1.0,
        wax_capacity_factor: float = 1.0,
    ) -> None:
        """Set fault-injection modifiers (see the batched form)."""
        self._batched.set_fault_scales(
            ua_scale=ua_scale,
            zone_delta_scale=zone_delta_scale,
            wax_capacity_factor=wax_capacity_factor,
        )

    @property
    def effective_wax_mass_kg(self) -> float:
        """Per-server wax mass after any fault-injected capacity fade."""
        return self._batched.effective_wax_mass_kg

    @property
    def fault_scales(self) -> tuple[float, float, float]:
        """The (ua, zone delta, wax capacity) fault scales."""
        return self._batched.fault_scales

    def is_uniform(self, utilization: np.ndarray | None = None) -> bool:
        """Uniformity test of the batched form, with a per-server
        ``utilization`` of shape ``(servers,)``."""
        if utilization is not None:
            utilization = np.asarray(utilization, dtype=float).reshape(1, -1)
        return self._batched.is_uniform(utilization)

    def effective_utilization(
        self, utilization: np.ndarray, frequency_ghz: float
    ) -> np.ndarray:
        """Power-equivalent utilization (folds in DVFS)."""
        factor = self.power_model.frequency_factor(frequency_ghz)
        return np.asarray(utilization) * factor

    def power_w(self, utilization: np.ndarray, frequency_ghz: float) -> np.ndarray:
        """Per-server wall power at an operating point."""
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        return self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

    def wax_exchange_w(
        self, utilization: np.ndarray, frequency_ghz: float
    ) -> np.ndarray:
        """Instantaneous air-to-wax heat flow at the *current* state,
        without advancing it (used by throttling policies to preview what
        the wax could absorb this tick)."""
        if not self.wax_enabled:
            return np.zeros(self.server_count)
        return self._batched.wax_exchange_w(
            np.asarray(utilization, dtype=float)[None, :], frequency_ghz
        )[0]

    # -- dynamics ------------------------------------------------------------

    def step(
        self,
        dt_s: float,
        utilization: np.ndarray,
        frequency_ghz: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one tick; returns (power_w, heat_release_w, wax_heat_w).

        ``utilization`` is per-server busy fraction in [0, 1];
        ``frequency_ghz`` is the cluster-wide DVFS state this tick.
        """
        utilization = np.asarray(utilization, dtype=float)
        if utilization.shape != (self.server_count,):
            raise ConfigurationError(
                f"expected utilization shape ({self.server_count},), got "
                f"{utilization.shape}"
            )
        power, release, wax_heat = self._batched.step(
            dt_s, utilization[None, :], frequency_ghz
        )
        return power[0], release[0], wax_heat[0]
