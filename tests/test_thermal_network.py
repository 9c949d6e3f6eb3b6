"""Tests for thermal network construction and physics."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.materials.library import COMMERCIAL_PARAFFIN
from repro.materials.pcm import PCMSample
from repro.thermal.airflow import AirPath, AirSegment, FanBank, FanCurve, SystemImpedance
from repro.thermal.convection import ConvectiveCoupling
from repro.thermal.network import Conductance, ThermalNetwork


def simple_network() -> ThermalNetwork:
    network = ThermalNetwork("simple")
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("chip", 100.0, 25.0, power_w=10.0)
    network.add_conductance("chip", "ambient", 0.5)
    return network


def network_with_air() -> ThermalNetwork:
    network = ThermalNetwork("air")
    network.add_boundary_node("inlet", 25.0)
    network.add_capacitive_node("chip", 100.0, 25.0, power_w=10.0)
    segment = AirSegment("zone")
    segment.couple(ConvectiveCoupling("chip", 2.0, 0.01))
    network.set_air_path(
        AirPath(
            fans=FanBank(FanCurve(60.0, 0.004), count=6),
            base_impedance=SystemImpedance(400_000.0),
            segments=[segment],
            duct_area_m2=0.01,
        )
    )
    return network


class TestConstruction:
    def test_duplicate_names_rejected(self):
        network = ThermalNetwork()
        network.add_capacitive_node("x", 10.0, 25.0)
        with pytest.raises(NetworkError):
            network.add_boundary_node("x", 25.0)
        with pytest.raises(NetworkError):
            network.add_capacitive_node("x", 10.0, 25.0)

    def test_conductance_to_unknown_node_rejected(self):
        network = ThermalNetwork()
        network.add_capacitive_node("a", 10.0, 25.0)
        with pytest.raises(NetworkError):
            network.add_conductance("a", "ghost", 1.0)

    def test_self_conductance_rejected(self):
        network = ThermalNetwork()
        network.add_capacitive_node("a", 10.0, 25.0)
        with pytest.raises(ConfigurationError):
            network.add_conductance("a", "a", 1.0)

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(ConfigurationError):
            Conductance("a", "b", 0.0)

    def test_nonpositive_capacity_rejected(self):
        network = ThermalNetwork()
        with pytest.raises(ConfigurationError):
            network.add_capacitive_node("a", 0.0, 25.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_conductance_rejected(self, value):
        # An infinite conductance used to surface as "step 0s may be
        # unstable", a NaN one as "has no thermal links".
        network = ThermalNetwork()
        network.add_capacitive_node("a", 10.0, 25.0)
        network.add_boundary_node("b", 25.0)
        with pytest.raises(ConfigurationError, match="conductance_w_per_k"):
            network.add_conductance("a", "b", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_capacity_rejected(self, value):
        with pytest.raises(ConfigurationError, match="heat_capacity_j_per_k"):
            ThermalNetwork().add_capacitive_node("a", value, 25.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_initial_temperature_rejected(self, value):
        # A NaN start used to fail at the first step as "unstable".
        with pytest.raises(ConfigurationError, match="initial_temperature_c"):
            ThermalNetwork().add_capacitive_node("a", 10.0, value)

    def test_air_coupling_to_unknown_node_rejected(self):
        network = ThermalNetwork()
        network.add_boundary_node("inlet", 25.0)
        segment = AirSegment("zone")
        segment.couple(ConvectiveCoupling("ghost", 1.0, 0.01))
        with pytest.raises(NetworkError):
            network.set_air_path(
                AirPath(
                    fans=FanBank(FanCurve(60.0, 0.004), count=1),
                    base_impedance=SystemImpedance(1.0),
                    segments=[segment],
                    duct_area_m2=0.01,
                )
            )

    def test_validate_rejects_isolated_node(self):
        network = ThermalNetwork()
        network.add_capacitive_node("floating", 10.0, 25.0)
        with pytest.raises(NetworkError):
            network.validate()

    def test_validate_rejects_empty_network(self):
        with pytest.raises(NetworkError):
            ThermalNetwork().validate()

    def test_validate_accepts_simple_network(self):
        simple_network().validate()

    def test_pcm_node_registration(self):
        network = ThermalNetwork()
        sample = PCMSample.from_volume(COMMERCIAL_PARAFFIN, 1e-3, 25.0)
        network.add_pcm_node("wax", sample)
        assert network.pcm_names == ["wax"]
        assert network.pcm_node("wax").sample is sample


class TestStatePacking:
    def test_initial_state_order(self):
        network = ThermalNetwork()
        network.add_capacitive_node("a", 10.0, 30.0)
        network.add_capacitive_node("b", 10.0, 40.0)
        sample = PCMSample.from_volume(COMMERCIAL_PARAFFIN, 1e-3, 25.0)
        network.add_pcm_node("wax", sample)
        state = network.initial_state()
        assert state[0] == pytest.approx(30.0)
        assert state[1] == pytest.approx(40.0)
        assert state[2] == pytest.approx(sample.enthalpy_j)

    def test_unpack_includes_all_node_kinds(self):
        network = simple_network()
        sample = PCMSample.from_volume(COMMERCIAL_PARAFFIN, 1e-3, 30.0)
        network.add_pcm_node("wax", sample)
        network.add_conductance("wax", "ambient", 0.1)
        state = network.unpack_state(network.initial_state(), 0.0)
        assert state.temperatures_c["ambient"] == pytest.approx(25.0)
        assert state.temperatures_c["chip"] == pytest.approx(25.0)
        assert state.temperatures_c["wax"] == pytest.approx(30.0)

    def test_unpack_wrong_shape_rejected(self):
        network = simple_network()
        with pytest.raises(NetworkError):
            network.unpack_state(np.zeros(5), 0.0)

    def test_time_varying_boundary(self):
        network = ThermalNetwork()
        network.add_boundary_node("ambient", lambda t: 25.0 + t)
        network.add_capacitive_node("chip", 10.0, 25.0)
        network.add_conductance("chip", "ambient", 1.0)
        state = network.unpack_state(network.initial_state(), 10.0)
        assert state.temperatures_c["ambient"] == pytest.approx(35.0)


class TestPhysics:
    def test_heat_flow_conduction_direction(self):
        network = simple_network()
        state = network.unpack_state(np.array([50.0]), 0.0)
        flows, _, _ = network.heat_flows_w(state, 0.0)
        # 10 W in, 0.5 W/K * 25 K out.
        assert flows["chip"] == pytest.approx(10.0 - 12.5)

    def test_power_schedule_evaluated(self):
        network = ThermalNetwork()
        network.add_boundary_node("ambient", 25.0)
        network.add_capacitive_node(
            "chip", 100.0, 25.0, power_w=lambda t: 5.0 if t < 10 else 20.0
        )
        network.add_conductance("chip", "ambient", 1.0)
        assert network.total_power_w(0.0) == pytest.approx(5.0)
        assert network.total_power_w(100.0) == pytest.approx(20.0)

    def test_derivative_sign_heating(self):
        network = simple_network()
        derivative = network.state_derivative(np.array([25.0]), 0.0)
        # At ambient temperature with 10 W dissipation, the chip heats up.
        assert derivative[0] > 0.0

    def test_derivative_zero_at_equilibrium(self):
        network = simple_network()
        # Equilibrium: 25 + 10 W / 0.5 W/K = 45 degC.
        derivative = network.state_derivative(np.array([45.0]), 0.0)
        assert derivative[0] == pytest.approx(0.0, abs=1e-12)

    def test_air_temperatures_march_downstream(self):
        network = ThermalNetwork()
        network.add_boundary_node("inlet", 25.0)
        network.add_capacitive_node("hot_front", 10.0, 60.0)
        network.add_capacitive_node("hot_rear", 10.0, 60.0)
        front = AirSegment("front")
        front.couple(ConvectiveCoupling("hot_front", 2.0, 0.01))
        rear = AirSegment("rear")
        rear.couple(ConvectiveCoupling("hot_rear", 2.0, 0.01))
        network.set_air_path(
            AirPath(
                fans=FanBank(FanCurve(60.0, 0.004), count=6),
                base_impedance=SystemImpedance(400_000.0),
                segments=[front, rear],
                duct_area_m2=0.01,
            )
        )
        temps = {"hot_front": 60.0, "hot_rear": 60.0, "inlet": 25.0}
        air, flow = network.air_temperatures(temps, 0.0)
        assert 25.0 < air["front"] < air["rear"] < 60.0
        assert flow > 0.0

    def test_min_time_constant_positive(self):
        network = network_with_air()
        tau = network.min_time_constant_s(0.01)
        assert tau > 0.0

    def test_min_time_constant_requires_links(self):
        network = ThermalNetwork()
        network.add_capacitive_node("alone", 10.0, 25.0)
        with pytest.raises(NetworkError):
            network.min_time_constant_s(0.01)
