"""Tests for the lumped per-server characterization."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.core.scenarios import cached_characterization
from repro.server.characterization import (
    LumpedServerModel,
    PlatformCharacterization,
    characterize_platform,
    interp_float,
)
from repro.server.configs import platform_by_name


class TestCharacterization:
    def test_zone_deltas_increase_with_load(self, one_u_characterization):
        deltas = one_u_characterization.zone_temp_delta_c
        assert all(a < b for a, b in zip(deltas, deltas[1:]))

    def test_ua_positive_and_increasing(self, one_u_characterization):
        ua = one_u_characterization.wax_ua_w_per_k
        assert all(v > 0 for v in ua)
        assert ua[-1] >= ua[0]

    def test_time_constant_minutes_scale(self, one_u_characterization):
        tau = one_u_characterization.zone_time_constant_s
        assert 60.0 < tau < 3600.0

    def test_wax_mass_matches_loadout(self, one_u_spec, one_u_characterization):
        assert one_u_characterization.wax_mass_kg == pytest.approx(
            one_u_spec.wax_loadout.total_mass_kg
        )

    def test_interpolation_endpoints(self, one_u_characterization):
        ch = one_u_characterization
        assert ch.zone_delta_at(0.0) == pytest.approx(ch.zone_temp_delta_c[0])
        assert ch.zone_delta_at(1.0) == pytest.approx(ch.zone_temp_delta_c[-1])

    def test_interpolation_vectorized(self, one_u_characterization):
        values = one_u_characterization.zone_delta_at(np.array([0.0, 0.5, 1.0]))
        assert values.shape == (3,)

    def test_requires_wax_loadout(self):
        spec = platform_by_name("1u", with_wax_loadout=False)
        with pytest.raises(ConfigurationError):
            characterize_platform(spec)

    def test_validation_rejects_descending_grid(self, one_u_characterization):
        ch = one_u_characterization
        with pytest.raises(ConfigurationError):
            PlatformCharacterization(
                platform_name="bad",
                utilization_grid=(1.0, 0.0),
                zone_temp_delta_c=(1.0, 2.0),
                wax_ua_w_per_k=(1.0, 1.0),
                zone_time_constant_s=ch.zone_time_constant_s,
                wax_mass_kg=1.0,
                wax_volume_m3=1e-3,
                reference_flow_m3_s=0.01,
            )

    def test_validation_rejects_mismatched_tables(self):
        with pytest.raises(ConfigurationError):
            PlatformCharacterization(
                platform_name="bad",
                utilization_grid=(0.0, 1.0),
                zone_temp_delta_c=(1.0,),
                wax_ua_w_per_k=(1.0, 1.0),
                zone_time_constant_s=100.0,
                wax_mass_kg=1.0,
                wax_volume_m3=1e-3,
                reference_flow_m3_s=0.01,
            )


class TestFloatLookup:
    """``interp_float`` is ``np.interp`` on one float, bit for bit."""

    @pytest.mark.parametrize("platform", ["1u", "2u", "ocp"])
    @pytest.mark.parametrize("table", ["zone_temp_delta_c", "wax_ua_w_per_k"])
    def test_equals_np_interp(self, all_specs, rng, platform, table):
        ch = cached_characterization(all_specs[platform])
        grid, values = ch.utilization_grid, getattr(ch, table)
        points = [
            *grid,
            *rng.uniform(0.0, 1.0, 2000).tolist(),
            -0.5, -1e-300, 1.0 + 1e-12, 7.0,
            0.0, -0.0, np.inf, -np.inf, np.nan,
        ]
        for x in points:
            expected = float(np.interp(x, grid, values))
            got = interp_float(x, grid, values)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(expected).tobytes(), x


class TestLumpedModel:
    def _model(self, spec, characterization, melting=43.0):
        return LumpedServerModel(
            characterization,
            spec.power_model,
            commercial_paraffin_with_melting_point(melting),
            inlet_temperature_c=25.0,
        )

    def test_steady_idle_releases_idle_power(
        self, one_u_spec, one_u_characterization
    ):
        model = self._model(one_u_spec, one_u_characterization)
        result = None
        for _ in range(600):
            result = model.step(60.0, utilization=0.0)
        assert result.power_w == pytest.approx(90.0)
        # At idle the zone sits below the solidus: no latent exchange.
        assert abs(result.wax_heat_w) < 0.2
        assert result.heat_release_w == pytest.approx(90.0, abs=0.3)

    def test_wax_absorbs_under_load(self, one_u_spec, one_u_characterization):
        model = self._model(one_u_spec, one_u_characterization)
        for _ in range(120):
            result = model.step(60.0, utilization=1.0)
        assert result.wax_heat_w > 1.0
        assert result.heat_release_w < result.power_w

    def test_energy_conservation_over_cycle(
        self, one_u_spec, one_u_characterization
    ):
        model = self._model(one_u_spec, one_u_characterization)
        initial_enthalpy = model.sample.enthalpy_j
        total_power = 0.0
        total_release = 0.0
        dt = 60.0
        for minute in range(48 * 60):
            utilization = 1.0 if (minute // 60) % 24 < 12 else 0.0
            result = model.step(dt, utilization)
            total_power += result.power_w * dt
            total_release += result.heat_release_w * dt
        # Power in equals heat released plus whatever the wax still holds:
        # the enthalpy change is the exact book-balance of the two sums.
        assert total_power - total_release == pytest.approx(
            model.sample.enthalpy_j - initial_enthalpy,
            abs=1e-9 * total_power,
        )
        assert model.sample.stored_latent_heat_j >= 0.0

    def test_downclock_reduces_power_and_effective_utilization(
        self, one_u_spec, one_u_characterization
    ):
        model = self._model(one_u_spec, one_u_characterization)
        nominal = model.effective_utilization(1.0, 2.4)
        downclocked = model.effective_utilization(1.0, 1.6)
        assert downclocked < nominal

    def test_invalid_tick_rejected(self, one_u_spec, one_u_characterization):
        model = self._model(one_u_spec, one_u_characterization)
        with pytest.raises(ConfigurationError):
            model.step(0.0, 0.5)

    @pytest.mark.parametrize("tick", [0.0, -60.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tick_rejected(
        self, one_u_spec, one_u_characterization, tick
    ):
        model = self._model(one_u_spec, one_u_characterization)
        zone_before = model.zone_temperature_c
        with pytest.raises(ConfigurationError):
            model.step(tick, 0.5)
        assert model.zone_temperature_c == zone_before
