"""Tests for mixed (rolling-retrofit) fleets."""

import dataclasses

import numpy as np
import pytest

from repro.dcsim.mixed import MixedFleet, rollout_curve
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point


@pytest.fixture
def material():
    return commercial_paraffin_with_melting_point(43.0)


def make_fleet(ch, pm, material, trace, fraction, servers=64):
    return MixedFleet(
        ch, pm, material, trace,
        total_servers=servers, equipped_fraction=fraction,
    )


class TestMixedFleet:
    def test_validation(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        with pytest.raises(ConfigurationError):
            make_fleet(
                one_u_characterization, one_u_spec.power_model, material,
                google_trace.total, fraction=1.5,
            )
        with pytest.raises(ConfigurationError):
            make_fleet(
                one_u_characterization, one_u_spec.power_model, material,
                google_trace.total, fraction=0.5, servers=0,
            )

    def test_group_split(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        fleet = make_fleet(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, fraction=0.25, servers=64,
        )
        assert fleet.equipped_count == 16
        assert fleet.legacy_count == 48

    def test_all_legacy_matches_simulator_baseline(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        from repro.dcsim.cluster import ClusterTopology
        from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig

        fleet_result = make_fleet(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, fraction=0.0,
        ).run()
        sim_result = DatacenterSimulator(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            google_trace.total,
            topology=ClusterTopology(server_count=64),
            config=SimulationConfig(wax_enabled=False),
        ).run()
        assert np.array_equal(fleet_result.times_s, sim_result.times_s)
        assert np.array_equal(
            fleet_result.cooling_load_w, sim_result.cooling_load_w
        )
        assert np.array_equal(
            fleet_result.legacy_cooling_load_w, sim_result.cooling_load_w
        )
        assert np.array_equal(fleet_result.power_w, sim_result.power_w)

    @pytest.mark.parametrize("nominal_ghz", [2.0, 3.0])
    def test_groups_run_at_the_platform_nominal_clock(
        self,
        nominal_ghz,
        one_u_characterization,
        one_u_spec,
        material,
        google_trace,
    ):
        """Both groups run at the power model's nominal frequency, so the
        fleet draws the nominal-clock wall power at every tick."""
        power_model = dataclasses.replace(
            one_u_spec.power_model, nominal_frequency_ghz=nominal_ghz
        )
        result = make_fleet(
            one_u_characterization, power_model, material,
            google_trace.total, fraction=0.5, servers=8,
        ).run()
        demand = np.clip(
            google_trace.total.value_at(result.times_s - 30.0), 0.0, 1.0
        )
        expected = 8 * np.array([power_model.wall_power_w(d) for d in demand])
        np.testing.assert_allclose(result.power_w, expected, rtol=1e-12)

    def test_blend_is_sum_of_groups(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        result = make_fleet(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, fraction=0.5,
        ).run()
        assert np.allclose(
            result.cooling_load_w,
            result.equipped_cooling_load_w + result.legacy_cooling_load_w,
        )

    def test_power_independent_of_wax_fraction(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        low = make_fleet(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, fraction=0.0,
        ).run()
        high = make_fleet(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, fraction=1.0,
        ).run()
        assert np.allclose(low.power_w, high.power_w)

    def test_rollout_monotone(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        curve = rollout_curve(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, total_servers=64,
            fractions=(0.0, 0.5, 1.0),
        )
        assert curve[0.0] == pytest.approx(0.0, abs=1e-9)
        assert 0.0 < curve[0.5] < curve[1.0]

    def test_rollout_concave(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        """Early rollout pays at least proportionally (each equipped
        server clips its own share of the peak); late rollout pays less,
        because once the original peak is clipped the binding maximum
        moves to a shoulder where the wax helps less."""
        curve = rollout_curve(
            one_u_characterization, one_u_spec.power_model, material,
            google_trace.total, total_servers=64,
            fractions=(0.5, 1.0),
        )
        assert curve[0.5] >= 0.5 * curve[1.0] - 1e-9
        assert curve[0.5] <= 0.85 * curve[1.0]

    def test_empty_fraction_list_rejected(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        with pytest.raises(ConfigurationError):
            rollout_curve(
                one_u_characterization, one_u_spec.power_model, material,
                google_trace.total, fractions=(),
            )
