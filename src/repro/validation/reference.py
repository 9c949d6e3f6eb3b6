"""A fine-grained reference RD330 standing in for the physical test server.

The paper's ground truth is a real Lenovo RD330 instrumented with USB
temperature sensors and loaded with 70 g of paraffin in a sealed aluminum
box "in the rear of the server, downwind of CPU 1". Without the physical
machine, the validation needs an *independent* higher-fidelity model to
play its role:

* every DIMM is a separate node (as in the paper's Icepak model);
* each CPU is split into a die and a heat-sink node joined by a package
  conductance, and the two sockets occupy distinct air segments;
* the airflow path is segmented twice as finely as the coarse model;
* the three TEMPer1 sensors are modeled explicitly: each reads its local
  air temperature plus a fixed per-sensor calibration offset and Gaussian
  sampling noise (seeded, deterministic).

The coarse chassis model of :mod:`repro.server.configs` is then validated
against this reference by the harness, exactly as the paper validates
Icepak against the physical server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMSample
from repro.server.chassis import UtilizationSchedule
from repro.server.configs import one_u_commodity
from repro.server.wax_box import WaxBox, WaxLoadout
from repro.thermal.airflow import AirPath, AirSegment
from repro.thermal.convection import ConvectiveCoupling
from repro.thermal.network import ThermalNetwork, affine_power_vector
from repro.thermal.solver import TransientResult
from repro.units import ALUMINUM_SPECIFIC_HEAT, grams

#: The validation wax: 70 g (~90 ml) of the 39 degC commercial paraffin
#: the paper purchased and measured.
VALIDATION_WAX_MASS_KG = grams(70.0)


def validation_wax_box() -> WaxBox:
    """The sealed aluminum container of the validation experiment:
    90 ml of wax plus ~10 ml of expansion headspace."""
    return WaxBox.rectangular(
        wax_volume_m3=VALIDATION_WAX_MASS_KG / 800.0,  # solid density 0.8 kg/L
        length_m=0.10,
        width_m=0.06,
        height_m=0.018,
        air_film_coefficient_w_per_m2_k=45.0,
    )


def validation_loadout() -> WaxLoadout:
    """The single-box validation loadout (negligible blockage)."""
    return WaxLoadout(
        boxes=(validation_wax_box(),),
        material=commercial_paraffin_with_melting_point(39.0),
        zone="wax",
        blockage_fraction=0.02,
    )


@dataclass(frozen=True)
class SensorSpec:
    """One TEMPer1 USB sensor: where it reads and how it errs.

    ``box_weight`` models probe placement against the aluminum box: the
    reading mixes the local bulk air with the box surface temperature.
    This is what makes the wax's melt plateau visible in Figure 4 — a
    probe touching a 39 degC melting box in 44 degC air reads several
    degrees low, although the 70 g of wax barely moves the bulk stream.
    """

    name: str
    segment: str
    offset_c: float
    noise_sigma_c: float = 0.15
    box_weight: float = 0.0


#: The paper's three sensors: "three TEMPer1 sensors were inserted to
#: record temperatures near the box and server outlet". Offsets model
#: per-unit calibration error of the inexpensive USB sensors.
DEFAULT_SENSORS = (
    SensorSpec(name="near_box_upstream", segment="cpu_b", offset_c=+0.18),
    SensorSpec(name="near_box", segment="wax", offset_c=-0.22, box_weight=0.5),
    SensorSpec(name="outlet", segment="rear", offset_c=+0.09),
)

#: Node names a box-adjacent sensor can couple to, by experimental arm.
BOX_NODE_NAMES = ("wax[0]", "empty_box[0]")


def sensor_trace(
    sensor: SensorSpec, result: "TransientResult"
) -> np.ndarray:
    """Noise-free reading of one sensor over a transient result."""
    trace = np.array(result.air_temperatures_c[sensor.segment], dtype=float)
    if sensor.box_weight > 0.0:
        for node in BOX_NODE_NAMES:
            if node in result.temperatures_c:
                trace = (
                    (1.0 - sensor.box_weight) * trace
                    + sensor.box_weight * result.temperatures_c[node]
                )
                break
    return trace


@dataclass
class ReferenceServer:
    """The fine-grained reference model plus its sensor suite."""

    sensors: tuple[SensorSpec, ...]
    noise_seed: int
    build: Callable[[UtilizationSchedule, bool, bool, float], ThermalNetwork]

    def build_network(
        self,
        utilization: UtilizationSchedule,
        with_wax: bool = False,
        placebo: bool = False,
        inlet_temperature_c: float = 25.0,
    ) -> ThermalNetwork:
        """Assemble the reference network for one experimental arm."""
        return self.build(utilization, with_wax, placebo, inlet_temperature_c)

    def read_sensors(self, result: TransientResult) -> dict[str, np.ndarray]:
        """Sample every sensor over a transient result (noisy, seeded)."""
        rng = np.random.default_rng(self.noise_seed)
        readings: dict[str, np.ndarray] = {}
        for sensor in self.sensors:
            clean = sensor_trace(sensor, result)
            noise = rng.normal(0.0, sensor.noise_sigma_c, len(clean))
            readings[sensor.name] = clean + sensor.offset_c + noise
        return readings


def build_reference_server(
    sensors: tuple[SensorSpec, ...] = DEFAULT_SENSORS,
    noise_seed: int = 20141117,
) -> ReferenceServer:
    """Construct the fine-grained RD330 reference model.

    The airflow system (fans, impedance, duct) is shared with the coarse
    platform — it is the same physical machine — but the solid-node
    discretization and segmentation are built independently here.
    """
    coarse = one_u_commodity(with_wax_loadout=False)
    chassis = coarse.chassis
    power_model = chassis.power_model

    def build(
        utilization: UtilizationSchedule,
        with_wax: bool,
        placebo: bool,
        inlet_temperature_c: float,
    ) -> ThermalNetwork:
        if with_wax and placebo:
            raise ConfigurationError("with_wax and placebo are mutually exclusive")
        network = ThermalNetwork(name="RD330 reference")
        network.add_boundary_node("inlet", inlet_temperature_c)
        segments = {
            name: AirSegment(name)
            for name in (
                "front_disk",
                "front_panel",
                "cpu_a",
                "cpu_b",
                "wax",
                "rear",
            )
        }
        reference_flow = chassis.reference_flow_m3_s()
        start = inlet_temperature_c

        def add(
            node: str,
            zone: str,
            capacity: float,
            conductance: float,
            power: Callable[[float], float] | float,
        ) -> None:
            network.add_capacitive_node(node, capacity, start, power)
            segments[zone].couple(
                ConvectiveCoupling(
                    node_name=node,
                    reference_conductance_w_per_k=conductance,
                    reference_flow_m3_s=reference_flow,
                )
            )

        # Each loaded node's ``(idle, span, False)`` for the solver's
        # power vector; its closure stays on the node as the reference.
        affine: dict[str, tuple[float, float, bool]] = {}

        def load_power(
            node: str, idle_w: float, peak_w: float
        ) -> Callable[[float], float]:
            span = peak_w - idle_w
            affine[node] = (idle_w, span, False)
            return lambda t: idle_w + span * utilization(t)

        # Front of chassis: drive, optical bay, panel electronics.
        add("hdd", "front_disk", 160.0, 1.5, load_power("hdd", 4.0, 6.0))
        add("dvd", "front_panel", 90.0, 0.9, load_power("dvd", 0.8, 1.2))
        add("panel", "front_panel", 60.0, 0.6, load_power("panel", 1.2, 1.8))

        # Sockets: die + heat sink pairs in distinct stream segments.
        for index, zone in ((0, "cpu_a"), (1, "cpu_b")):
            die = f"cpu_die[{index}]"
            sink = f"cpu_sink[{index}]"
            network.add_capacitive_node(
                die, 60.0, start, load_power(die, 6.0, 46.0)
            )
            add(sink, zone, 380.0, 2.1, 0.0)
            network.add_conductance(die, sink, 5.0)

        # Ten DIMMs, five per socket bank, modeled independently with
        # power distributed uniformly (the paper's approximation).
        for index in range(10):
            zone = "cpu_a" if index < 5 else "cpu_b"
            dimm = f"dimm[{index}]"
            add(dimm, zone, 40.0, 0.5, load_power(dimm, 1.2, 2.0))

        # Board electronics and VRMs split across the two socket zones;
        # together they carry the residual between component power and the
        # measured wall power (as in the coarse model's board node).
        residual_idle = power_model.dc_power_w(0.0) - (
            4.0 + 0.8 + 1.2 + 2 * 6.0 + 10 * 1.2
        )
        residual_peak = power_model.dc_power_w(1.0) - (
            6.0 + 1.2 + 1.8 + 2 * 46.0 + 10 * 2.0
        )
        for index, zone in ((0, "cpu_a"), (1, "cpu_b")):
            board = f"board[{index}]"
            add(
                board,
                zone,
                300.0,
                2.0,
                load_power(board, 0.5 * residual_idle, 0.5 * residual_peak),
            )

        def psu_power(t: float) -> float:
            return power_model.psu_loss_w(utilization(t))

        add(
            "psu",
            "rear",
            chassis.psu_heat_capacity_j_per_k,
            chassis.psu_reference_conductance_w_per_k,
            psu_power,
        )

        loadout = validation_loadout()
        box = loadout.boxes[0]
        if with_wax:
            sample = PCMSample.from_volume(
                loadout.material, box.wax_volume_m3, start
            )
            network.add_pcm_node("wax[0]", sample)
            segments["wax"].couple(
                ConvectiveCoupling(
                    node_name="wax[0]",
                    reference_conductance_w_per_k=box.conductance_w_per_k(
                        loadout.material.thermal_conductivity_w_per_m_k
                    ),
                    reference_flow_m3_s=reference_flow,
                )
            )
        elif placebo:
            aluminum_mass = 0.09  # kg: the empty sealed box
            network.add_capacitive_node(
                "empty_box[0]",
                aluminum_mass * ALUMINUM_SPECIFIC_HEAT,
                start,
            )
            segments["wax"].couple(
                ConvectiveCoupling(
                    node_name="empty_box[0]",
                    reference_conductance_w_per_k=box.conductance_w_per_k(205.0),
                    reference_flow_m3_s=reference_flow,
                )
            )

        air_path = AirPath(
            fans=chassis.fans,
            base_impedance=chassis.base_impedance,
            segments=[
                segments[name]
                for name in (
                    "front_disk",
                    "front_panel",
                    "cpu_a",
                    "cpu_b",
                    "wax",
                    "rear",
                )
            ],
            duct_area_m2=chassis.duct_area_m2,
            added_blockage_fraction=(
                loadout.blockage_fraction if (with_wax or placebo) else 0.0
            ),
            fan_speed_schedule=chassis.fan_speed_schedule(utilization),
        )
        network.set_air_path(air_path)
        network.validate()
        # No DVFS here: every node runs at a frequency factor of 1.0.
        network.power_vector_fn = affine_power_vector(
            network, affine, {"psu": psu_power}, utilization, lambda _t: 1.0
        )
        return network

    return ReferenceServer(sensors=sensors, noise_seed=noise_seed, build=build)
