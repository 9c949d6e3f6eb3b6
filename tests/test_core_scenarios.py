"""Integration tests for the Section 5.1 / 5.2 studies."""

import dataclasses

import numpy as np
import pytest

from repro.core.scenarios import (
    CoolingLoadStudy,
    ThroughputStudy,
    cached_characterization,
    clear_characterization_cache,
)
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.simulator import SimulationConfig
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.server.configs import platform_by_name


@pytest.fixture(scope="module")
def cooling_outcome(one_u_spec, google_trace):
    """One shared 1U cooling-load study (coarse melting grid)."""
    return CoolingLoadStudy(
        one_u_spec,
        google_trace.total,
        topology=ClusterTopology(server_count=256),
        melting_window_c=(40.0, 48.0),
        melting_step_c=1.0,
    ).run()


@pytest.fixture(scope="module")
def throughput_outcome(one_u_spec, google_trace):
    """One shared 1U throughput study at the calibrated oversubscription."""
    return ThroughputStudy(
        one_u_spec,
        google_trace.total,
        oversubscription=0.836,
        topology=ClusterTopology(server_count=256),
        material=commercial_paraffin_with_melting_point(45.0),
    ).run()


class TestCharacterizationCache:
    def test_cache_returns_same_object(self, one_u_spec):
        clear_characterization_cache()
        first = cached_characterization(one_u_spec)
        second = cached_characterization(one_u_spec)
        assert first is second


@pytest.mark.parametrize("study_cls", [CoolingLoadStudy, ThroughputStudy])
def test_study_arms_keep_every_config_field(study_cls, one_u_spec, google_trace):
    """The wax-on and wax-off arms differ from the study's config only
    in ``wax_enabled``: mode, tick, slots, inlet, seed and engine carry
    over."""
    config = SimulationConfig(
        mode="event",
        tick_interval_s=300.0,
        slots_per_server=4,
        inlet_temperature_c=22.0,
        seed=3,
        engine="reference",
    )
    study = study_cls(one_u_spec, google_trace.total, config=config)
    for wax in (True, False):
        assert study._config(wax) == dataclasses.replace(
            config, wax_enabled=wax
        )


class TestCoolingLoadStudy:
    def test_requires_wax_loadout(self, google_trace):
        bare = platform_by_name("1u", with_wax_loadout=False)
        with pytest.raises(ConfigurationError):
            CoolingLoadStudy(bare, google_trace.total)

    def test_peak_reduction_in_paper_band(self, cooling_outcome):
        # Paper: 8.9% for the 1U cluster; shape-level band 5-12%.
        assert 0.05 <= cooling_outcome.peak_reduction_fraction <= 0.12

    def test_power_unchanged_by_wax(self, cooling_outcome):
        assert np.allclose(
            cooling_outcome.baseline.power_w, cooling_outcome.with_pcm.power_w
        )

    def test_repayment_within_daily_cycle(self, cooling_outcome):
        # Paper: repayment lasts six to nine hours and completes within
        # the 24-hour cycle.
        assert 2.0 < cooling_outcome.comparison.repayment_hours < 20.0

    def test_repayment_below_clipped_peak(self, cooling_outcome):
        # The repayment bump must never exceed the clipped peak, or the
        # sizing argument collapses.
        assert cooling_outcome.with_pcm.peak_cooling_load_w < (
            cooling_outcome.baseline.peak_cooling_load_w
        )

    def test_wax_completes_cycle(self, cooling_outcome):
        assert cooling_outcome.with_pcm.melt_fraction[-1] < 0.3

    def test_provisioning_reciprocal(self, cooling_outcome):
        reduction = cooling_outcome.peak_reduction_fraction
        expected = 1.0 / (1.0 - reduction) - 1.0
        assert cooling_outcome.provisioning.fleet_growth_fraction == (
            pytest.approx(expected)
        )

    def test_melting_search_attached(self, cooling_outcome):
        search = cooling_outcome.melting_point_search
        assert search is not None
        assert cooling_outcome.material.melting_point_c == pytest.approx(
            search.best_melting_point_c
        )

    def test_series_accessors(self, cooling_outcome):
        baseline = cooling_outcome.baseline_series()
        pcm = cooling_outcome.pcm_series()
        assert baseline.peak_w > pcm.peak_w

    def test_fixed_material_mode(self, one_u_spec, google_trace):
        outcome = CoolingLoadStudy(
            one_u_spec,
            google_trace.total,
            topology=ClusterTopology(server_count=64),
            optimize_melting=False,
        ).run()
        assert outcome.melting_point_search is None
        assert outcome.material is one_u_spec.wax_loadout.material


class TestThroughputStudy:
    def test_oversubscription_validated(self, one_u_spec, google_trace):
        with pytest.raises(ConfigurationError):
            ThroughputStudy(one_u_spec, google_trace.total, oversubscription=1.5)

    def test_ideal_never_throttles(self, throughput_outcome):
        assert not np.any(throughput_outcome.ideal.result.throttled_mask())

    def test_no_wax_throttles(self, throughput_outcome):
        assert np.any(throughput_outcome.no_wax.result.throttled_mask())

    def test_gain_in_paper_band(self, throughput_outcome):
        # Paper: +33% for the 1U cluster.
        assert 0.20 <= throughput_outcome.peak_throughput_gain <= 0.45

    def test_elevated_hours_in_paper_band(self, throughput_outcome):
        # Paper: 5.1 hours for the 1U cluster.
        assert 3.0 <= throughput_outcome.elevated_hours <= 8.0

    def test_wax_peak_matches_ideal(self, throughput_outcome):
        # During the wax window the PCM cluster tracks the ideal curve.
        assert throughput_outcome.with_wax.peak_normalized_throughput == (
            pytest.approx(
                throughput_outcome.ideal.peak_normalized_throughput, rel=0.02
            )
        )

    def test_no_wax_normalization_is_unity(self, throughput_outcome):
        assert throughput_outcome.no_wax.peak_normalized_throughput == (
            pytest.approx(1.0)
        )

    def test_delay_positive(self, throughput_outcome):
        assert throughput_outcome.thermal_limit_delay_hours > 0.5

    def test_room_capacity_recorded(self, throughput_outcome):
        ideal_peak = throughput_outcome.ideal.result.peak_cooling_load_w
        assert throughput_outcome.cooling_capacity_w == pytest.approx(
            0.836 * ideal_peak
        )

    def test_rooms_stay_near_limit(self, throughput_outcome):
        for arm in (throughput_outcome.no_wax, throughput_outcome.with_wax):
            assert np.max(arm.result.room_temperature_c) < 36.5
