"""Chassis assembly: components + airflow zones -> thermal network.

A :class:`ServerChassis` is the bridge between platform *configuration*
(component placements, fan bank, duct geometry, wax loadout) and the
*simulatable* :class:`~repro.thermal.network.ThermalNetwork`. It mirrors
what the paper builds in Icepak for each platform: block heat sources per
component, a fan bank stepping between idle and loaded speeds, grilles or
wax boxes restricting the airflow, and wax containers downwind of the CPU
sockets.

Build variants reproduce the paper's experimental arms:

* ``with_wax=True``  — wax boxes installed (blockage + PCM nodes);
* ``placebo=True``   — the same boxes empty of wax (blockage + a small
  aluminum thermal mass, the paper's control for separating airflow
  effects from phase-change effects);
* neither            — the unmodified production server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.server.components import Component, component_node_names
from repro.server.power import ServerPowerModel
from repro.server.wax_box import WaxLoadout
from repro.thermal.airflow import AirPath, AirSegment, FanBank, SystemImpedance
from repro.thermal.convection import ConvectiveCoupling
from repro.thermal.network import ThermalNetwork, affine_power_vector
from repro.units import ALUMINUM_CONDUCTIVITY, ALUMINUM_SPECIFIC_HEAT

UtilizationSchedule = Callable[[float], float]
FrequencySchedule = Callable[[float], float]


def constant_utilization(level: float) -> UtilizationSchedule:
    """Schedule holding a fixed utilization."""
    if not 0.0 <= level <= 1.0:
        raise ConfigurationError(f"utilization must be in [0, 1], got {level}")
    return lambda _t: level

def step_utilization(
    idle_level: float, loaded_level: float, start_s: float, end_s: float
) -> UtilizationSchedule:
    """The paper's validation profile: idle, then loaded, then idle again.

    (Section 3: "60 minutes of idle time, followed by 12 hours under heavy
    load ... and then 12 hours at idle again".)
    """
    for label, level in (("idle", idle_level), ("loaded", loaded_level)):
        if not 0.0 <= level <= 1.0:
            raise ConfigurationError(
                f"{label} utilization must be in [0, 1], got {level}"
            )
    if start_s >= end_s:
        raise ConfigurationError(
            f"load window is inverted: [{start_s}, {end_s}]"
        )

    def schedule(time_s: float) -> float:
        return loaded_level if start_s <= time_s < end_s else idle_level

    return schedule


#: Mass of aluminum per liter of box volume used for the placebo (empty
#: box) thermal mass; a thin-walled 1 L box is a few hundred grams.
_PLACEBO_ALUMINUM_KG_PER_M3 = 300.0


@dataclass
class ServerChassis:
    """Static description of a server platform's thermal construction.

    Parameters
    ----------
    name:
        Platform name.
    power_model:
        Wall-power model; the chassis validates that component dissipation
        plus PSU loss reconciles with it and assigns any residual to a
        synthetic board node lumped with the CPUs (the paper lumps "all
        other heat sources ... together with the CPU sockets").
    components:
        Explicit heat sources. Zones must appear in ``zone_order``.
    zone_order:
        Airflow zones front to rear.
    fans / base_impedance / duct_area_m2:
        Airflow system (see :mod:`repro.thermal.airflow`).
    psu_zone / board_zone:
        Zones receiving the synthetic PSU-loss and residual board nodes.
    idle_fan_fraction:
        Fan speed fraction at zero utilization; speed interpolates linearly
        to 1.0 at full utilization (the paper steps fans between idle and
        loaded speeds; a linear ramp is the continuous generalization and
        reduces to the step for step-shaped utilization).
    wax_loadout:
        The platform's wax installation, if any.
    """

    name: str
    power_model: ServerPowerModel
    components: list[Component]
    zone_order: list[str]
    fans: FanBank
    base_impedance: SystemImpedance
    duct_area_m2: float
    psu_zone: str = "rear"
    board_zone: str = "cpu"
    psu_heat_capacity_j_per_k: float = 800.0
    board_heat_capacity_j_per_k: float = 600.0
    psu_reference_conductance_w_per_k: float = 4.0
    board_reference_conductance_w_per_k: float = 4.0
    idle_fan_fraction: float = 0.55
    wax_loadout: WaxLoadout | None = None
    grille_blockage_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.zone_order:
            raise ConfigurationError(f"{self.name}: zone order is empty")
        if len(set(self.zone_order)) != len(self.zone_order):
            raise ConfigurationError(
                f"{self.name}: duplicate zones in {self.zone_order}"
            )
        for component in self.components:
            if component.zone not in self.zone_order:
                raise ConfigurationError(
                    f"{self.name}: component {component.name!r} placed in "
                    f"unknown zone {component.zone!r}"
                )
        for label, zone in (("psu", self.psu_zone), ("board", self.board_zone)):
            if zone not in self.zone_order:
                raise ConfigurationError(
                    f"{self.name}: {label} zone {zone!r} not in zone order"
                )
        if not 0.0 < self.idle_fan_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: idle fan fraction must be in (0, 1], got "
                f"{self.idle_fan_fraction}"
            )
        if not 0.0 <= self.grille_blockage_fraction < 1.0:
            raise ConfigurationError(
                f"{self.name}: grille blockage must be in [0, 1)"
            )
        if self.wax_loadout is not None and (
            self.wax_loadout.zone not in self.zone_order
        ):
            raise ConfigurationError(
                f"{self.name}: wax zone {self.wax_loadout.zone!r} not in "
                f"zone order"
            )
        self._validate_power_reconciliation()

    # -- power reconciliation ------------------------------------------------

    def _component_totals(self) -> tuple[float, float]:
        idle = sum(c.total_idle_power_w() for c in self.components)
        peak = sum(c.total_peak_power_w() for c in self.components)
        return idle, peak

    def residual_board_power_w(self) -> tuple[float, float]:
        """(idle, peak) dissipation assigned to the synthetic board node."""
        comp_idle, comp_peak = self._component_totals()
        dc_idle = self.power_model.dc_power_w(0.0)
        dc_peak = self.power_model.dc_power_w(1.0)
        return dc_idle - comp_idle, dc_peak - comp_peak

    def _validate_power_reconciliation(self) -> None:
        residual_idle, residual_peak = self.residual_board_power_w()
        if residual_idle < -1e-9 or residual_peak < -1e-9:
            raise ConfigurationError(
                f"{self.name}: component power exceeds the server power "
                f"model (residuals idle={residual_idle:.1f} W, "
                f"peak={residual_peak:.1f} W); components or power model are "
                f"inconsistent"
            )
        if residual_peak < residual_idle - 1e-9:
            raise ConfigurationError(
                f"{self.name}: residual board power decreases with load "
                f"(idle={residual_idle:.1f} W > peak={residual_peak:.1f} W)"
            )

    # -- configuration variants -----------------------------------------------

    def with_grille_blockage(self, fraction: float) -> "ServerChassis":
        """Copy with a uniform grille blocking a fraction of the airflow
        (the paper's Figure 7 sweep)."""
        return replace(self, grille_blockage_fraction=fraction)

    def with_wax_loadout(self, loadout: WaxLoadout | None) -> "ServerChassis":
        """Copy with a different (or no) wax installation."""
        return replace(self, wax_loadout=loadout)

    # -- airflow -----------------------------------------------------------------

    def total_blockage_fraction(self, with_boxes: bool) -> float:
        """Combined added blockage from the grille and (optionally) boxes.

        Series restrictions combine on free area: the open fraction is the
        product of the individual open fractions.
        """
        open_fraction = 1.0 - self.grille_blockage_fraction
        if with_boxes and self.wax_loadout is not None:
            open_fraction *= 1.0 - self.wax_loadout.blockage_fraction
        return 1.0 - open_fraction

    def fan_speed_schedule(
        self, utilization: UtilizationSchedule
    ) -> Callable[[float], float]:
        """Fan speed fraction over time, driven by the utilization schedule."""

        def schedule(time_s: float) -> float:
            level = utilization(time_s)
            return self.idle_fan_fraction + (1.0 - self.idle_fan_fraction) * level

        return schedule

    def reference_flow_m3_s(self) -> float:
        """Full-speed unblocked operating flow; the datum for convective
        conductance scaling."""
        from repro.thermal.airflow import operating_flow

        return operating_flow(self.fans, self.base_impedance)

    # -- network construction -----------------------------------------------------

    def build_network(
        self,
        utilization: UtilizationSchedule,
        inlet_temperature_c: float = 25.0,
        frequency_schedule: FrequencySchedule | None = None,
        with_wax: bool = False,
        placebo: bool = False,
        initial_temperature_c: float | None = None,
        wax_initial_temperature_c: float | None = None,
    ) -> ThermalNetwork:
        """Assemble the simulatable thermal network for one experimental arm.

        Parameters
        ----------
        utilization:
            Server utilization over time, in [0, 1].
        inlet_temperature_c:
            Cold-aisle inlet air temperature (constant).
        frequency_schedule:
            DVFS frequency over time (GHz); defaults to nominal.
        with_wax:
            Install the wax loadout (requires one to be configured).
        placebo:
            Install the same boxes *empty*: blockage and a small aluminum
            mass, but no PCM. Mutually exclusive with ``with_wax``.
        initial_temperature_c:
            Starting temperature of all solid nodes (defaults to inlet).
        wax_initial_temperature_c:
            Starting wax temperature (defaults to ``initial_temperature_c``).
        """
        if with_wax and placebo:
            raise ConfigurationError("with_wax and placebo are mutually exclusive")
        if (with_wax or placebo) and self.wax_loadout is None:
            raise ConfigurationError(
                f"{self.name}: no wax loadout configured"
            )
        if initial_temperature_c is None:
            initial_temperature_c = inlet_temperature_c
        if wax_initial_temperature_c is None:
            wax_initial_temperature_c = initial_temperature_c

        nominal = self.power_model.nominal_frequency_ghz
        if frequency_schedule is None:

            def frequency_schedule(_t: float) -> float:
                return nominal

        def dvfs_factor(time_s: float) -> float:
            return self.power_model.frequency_factor(frequency_schedule(time_s))

        network = ThermalNetwork(name=self.name)
        network.add_boundary_node("inlet", inlet_temperature_c)

        segments = {zone: AirSegment(zone) for zone in self.zone_order}
        reference_flow = self.reference_flow_m3_s()

        # Per-node power decomposition for the vectorized solver path:
        # ``idle + (span * u(t)) * f(t)`` per node, with a handful of
        # non-affine nodes (the PSU loss curve) evaluated by closure.
        affine: dict[str, tuple[float, float, bool]] = {}
        custom: dict[str, Callable[[float], float]] = {}

        def add_source(
            node_name: str,
            zone: str,
            heat_capacity: float,
            conductance: float,
            power: Callable[[float], float],
        ) -> None:
            network.add_capacitive_node(
                node_name, heat_capacity, initial_temperature_c, power
            )
            segments[zone].couple(
                ConvectiveCoupling(
                    node_name=node_name,
                    reference_conductance_w_per_k=conductance,
                    reference_flow_m3_s=reference_flow,
                )
            )

        for component in self.components:
            for node_name in component_node_names(component):
                add_source(
                    node_name,
                    component.zone,
                    component.heat_capacity_j_per_k,
                    component.reference_conductance_w_per_k,
                    self._component_power(component, utilization, dvfs_factor),
                )
                affine[node_name] = (
                    component.idle_power_w,
                    component.dynamic_range_w,
                    component.scales_with_frequency,
                )

        def psu_power(t: float) -> float:
            return self.power_model.psu_loss_w(utilization(t), frequency_schedule(t))

        add_source(
            "psu",
            self.psu_zone,
            self.psu_heat_capacity_j_per_k,
            self.psu_reference_conductance_w_per_k,
            psu_power,
        )
        custom["psu"] = psu_power

        residual_idle, residual_peak = self.residual_board_power_w()
        residual_span = residual_peak - residual_idle
        add_source(
            "board",
            self.board_zone,
            self.board_heat_capacity_j_per_k,
            self.board_reference_conductance_w_per_k,
            lambda t: residual_idle + residual_span * utilization(t) * dvfs_factor(t),
        )
        affine["board"] = (residual_idle, residual_span, True)

        if with_wax:
            self._add_wax_nodes(
                network, segments, reference_flow, wax_initial_temperature_c
            )
        elif placebo:
            self._add_placebo_nodes(
                network, segments, reference_flow, initial_temperature_c
            )

        impedance = self.base_impedance
        blockage = self.total_blockage_fraction(with_boxes=with_wax or placebo)
        air_path = AirPath(
            fans=self.fans,
            base_impedance=impedance,
            segments=[segments[zone] for zone in self.zone_order],
            duct_area_m2=self.duct_area_m2,
            added_blockage_fraction=blockage,
            fan_speed_schedule=self.fan_speed_schedule(utilization),
        )
        network.set_air_path(air_path)
        network.validate()
        # The PSU loss is a function of (u, f): the frequency factor is
        # strictly monotonic in the frequency.
        network.power_vector_fn = affine_power_vector(
            network, affine, custom, utilization, dvfs_factor
        )
        return network

    def _component_power(
        self,
        component: Component,
        utilization: UtilizationSchedule,
        dvfs_factor: Callable[[float], float],
    ) -> Callable[[float], float]:
        def power(time_s: float) -> float:
            return component.power_w(utilization(time_s), dvfs_factor(time_s))

        return power

    def _add_wax_nodes(
        self,
        network: ThermalNetwork,
        segments: dict[str, AirSegment],
        reference_flow: float,
        wax_initial_temperature_c: float,
    ) -> None:
        loadout = self.wax_loadout
        assert loadout is not None
        samples = loadout.make_samples(wax_initial_temperature_c)
        for index, (box, sample) in enumerate(zip(loadout.boxes, samples)):
            node_name = f"wax[{index}]"
            network.add_pcm_node(node_name, sample)
            segments[loadout.zone].couple(
                ConvectiveCoupling(
                    node_name=node_name,
                    reference_conductance_w_per_k=box.conductance_w_per_k(
                        loadout.material.thermal_conductivity_w_per_m_k
                    ),
                    reference_flow_m3_s=reference_flow,
                )
            )

    def _add_placebo_nodes(
        self,
        network: ThermalNetwork,
        segments: dict[str, AirSegment],
        reference_flow: float,
        initial_temperature_c: float,
    ) -> None:
        loadout = self.wax_loadout
        assert loadout is not None
        for index, box in enumerate(loadout.boxes):
            node_name = f"empty_box[{index}]"
            aluminum_mass = _PLACEBO_ALUMINUM_KG_PER_M3 * box.wax_volume_m3
            network.add_capacitive_node(
                node_name,
                max(aluminum_mass * ALUMINUM_SPECIFIC_HEAT, 1.0),
                initial_temperature_c,
            )
            segments[loadout.zone].couple(
                ConvectiveCoupling(
                    node_name=node_name,
                    # Empty boxes conduct through their aluminum shell, so
                    # the coupling is film-limited.
                    reference_conductance_w_per_k=box.conductance_w_per_k(
                        ALUMINUM_CONDUCTIVITY
                    ),
                    reference_flow_m3_s=reference_flow,
                )
            )
