"""Tests for chassis assembly and build variants."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.server.chassis import (
    ServerChassis,
    constant_utilization,
    step_utilization,
)
from repro.server.components import Component
from repro.server.power import ServerPowerModel
from repro.thermal.airflow import FanBank, FanCurve, SystemImpedance
from repro.thermal.steady_state import solve_steady_state


def minimal_chassis(**overrides):
    defaults = dict(
        name="mini",
        power_model=ServerPowerModel(idle_power_w=50.0, peak_power_w=100.0),
        components=[
            Component(
                name="cpu", zone="cpu", idle_power_w=5.0, peak_power_w=30.0,
                scales_with_frequency=True,
            )
        ],
        zone_order=["front", "cpu", "rear"],
        fans=FanBank(FanCurve(60.0, 0.004), count=4),
        base_impedance=SystemImpedance(300_000.0),
        duct_area_m2=0.01,
    )
    defaults.update(overrides)
    return ServerChassis(**defaults)


class TestSchedules:
    def test_constant_utilization(self):
        schedule = constant_utilization(0.7)
        assert schedule(0.0) == 0.7
        assert schedule(1e6) == 0.7

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            constant_utilization(1.5)

    def test_step_profile(self):
        schedule = step_utilization(0.0, 1.0, 3600.0, 7200.0)
        assert schedule(0.0) == 0.0
        assert schedule(3600.0) == 1.0
        assert schedule(7199.0) == 1.0
        assert schedule(7200.0) == 0.0

    def test_step_inverted_window_rejected(self):
        with pytest.raises(ConfigurationError):
            step_utilization(0.0, 1.0, 100.0, 50.0)

    @pytest.mark.parametrize(
        "start_s, end_s",
        [(math.nan, 3600.0), (0.0, math.nan), (math.nan, math.nan), (60.0, 60.0)],
    )
    def test_step_window_must_be_ordered(self, start_s, end_s):
        """A NaN end point would make a window that never applies."""
        with pytest.raises(ConfigurationError):
            step_utilization(0.0, 1.0, start_s, end_s)

    @pytest.mark.parametrize(
        "start_s, end_s", [(-math.inf, 3600.0), (0.0, math.inf)]
    )
    def test_step_window_may_be_open_ended(self, start_s, end_s):
        schedule = step_utilization(0.2, 0.9, start_s, end_s)
        assert schedule(1800.0) == 0.9
        assert schedule(-math.inf if end_s == math.inf else math.inf) == 0.2


class TestValidation:
    def test_unknown_component_zone_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_chassis(
                components=[Component(name="x", zone="nowhere")]
            )

    def test_duplicate_zones_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_chassis(zone_order=["cpu", "cpu"])

    def test_component_power_exceeding_model_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_chassis(
                components=[
                    Component(
                        name="hog", zone="cpu", idle_power_w=500.0,
                        peak_power_w=600.0,
                    )
                ]
            )

    def test_residual_board_power_nonnegative(self):
        chassis = minimal_chassis()
        idle, peak = chassis.residual_board_power_w()
        assert idle >= 0.0 and peak >= idle


class TestBuildVariants:
    def test_plain_build(self):
        chassis = minimal_chassis()
        network = chassis.build_network(constant_utilization(0.5))
        assert network.has_node("cpu")
        assert network.has_node("psu")
        assert network.has_node("board")
        assert not network.pcm_names

    def test_wax_without_loadout_rejected(self):
        chassis = minimal_chassis()
        with pytest.raises(ConfigurationError):
            chassis.build_network(constant_utilization(0.5), with_wax=True)

    def test_wax_and_placebo_exclusive(self, one_u_spec):
        with pytest.raises(ConfigurationError):
            one_u_spec.chassis.build_network(
                constant_utilization(0.5), with_wax=True, placebo=True
            )

    def test_wax_build_adds_pcm_nodes(self, one_u_spec):
        network = one_u_spec.chassis.build_network(
            constant_utilization(0.5), with_wax=True
        )
        assert len(network.pcm_names) == len(one_u_spec.wax_loadout.boxes)

    def test_placebo_build_adds_aluminum_nodes(self, one_u_spec):
        network = one_u_spec.chassis.build_network(
            constant_utilization(0.5), placebo=True
        )
        assert not network.pcm_names
        assert network.has_node("empty_box[0]")

    def test_wax_initial_temperature(self, one_u_spec):
        network = one_u_spec.chassis.build_network(
            constant_utilization(0.5),
            with_wax=True,
            wax_initial_temperature_c=30.0,
        )
        assert network.pcm_node("wax[0]").sample.temperature_c == (
            pytest.approx(30.0)
        )

    def test_power_reconciliation_of_built_network(self, one_u_spec):
        # The network's total dissipation must equal the wall power model
        # at both operating extremes.
        model = one_u_spec.power_model
        for level in (0.0, 1.0):
            network = one_u_spec.chassis.build_network(
                constant_utilization(level)
            )
            assert network.total_power_w(0.0) == pytest.approx(
                model.wall_power_w(level), rel=1e-9
            )

    def test_dvfs_schedule_reduces_power(self, one_u_spec):
        nominal = one_u_spec.chassis.build_network(constant_utilization(1.0))
        downclocked = one_u_spec.chassis.build_network(
            constant_utilization(1.0), frequency_schedule=lambda t: 1.6
        )
        assert downclocked.total_power_w(0.0) < nominal.total_power_w(0.0)


class TestAirflowEffects:
    def test_blockage_composition(self, one_u_spec):
        chassis = one_u_spec.chassis.with_grille_blockage(0.5)
        # Series restrictions: 1 - 0.5 * (1 - 0.7) = 0.85 with the boxes.
        assert chassis.total_blockage_fraction(with_boxes=True) == (
            pytest.approx(0.85)
        )
        assert chassis.total_blockage_fraction(with_boxes=False) == (
            pytest.approx(0.5)
        )

    def test_fan_schedule_tracks_utilization(self, one_u_spec):
        schedule = one_u_spec.chassis.fan_speed_schedule(
            step_utilization(0.0, 1.0, 100.0, 200.0)
        )
        assert schedule(0.0) == pytest.approx(
            one_u_spec.chassis.idle_fan_fraction
        )
        assert schedule(150.0) == pytest.approx(1.0)

    def test_wax_build_hotter_than_open(self, one_u_spec):
        # The boxes block 70% of downstream airflow; steady temperatures
        # with the placebo installed must exceed the unmodified server.
        open_network = one_u_spec.chassis.build_network(constant_utilization(1.0))
        blocked = one_u_spec.chassis.build_network(
            constant_utilization(1.0), placebo=True
        )
        open_outlet = solve_steady_state(open_network).outlet_temperature_c()
        blocked_outlet = solve_steady_state(blocked).outlet_temperature_c()
        assert blocked_outlet > open_outlet

    def test_reference_flow_positive(self, all_specs):
        for spec in all_specs.values():
            assert spec.chassis.reference_flow_m3_s() > 0.0
