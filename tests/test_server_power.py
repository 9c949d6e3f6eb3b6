"""Tests for the server power model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.server.power import ServerPowerModel


@pytest.fixture
def rd330():
    """The validated 1U server's measured power points."""
    return ServerPowerModel(
        idle_power_w=90.0,
        peak_power_w=185.0,
        psu_efficiency_idle=0.80,
        psu_efficiency_loaded=0.90,
    )


class TestValidation:
    def test_peak_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(idle_power_w=100.0, peak_power_w=90.0)

    def test_bad_psu_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(90.0, 185.0, psu_efficiency_idle=1.5)

    def test_min_frequency_above_nominal_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(
                90.0, 185.0, nominal_frequency_ghz=2.0, min_frequency_ghz=2.4
            )

    def test_nonpositive_throughput_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(90.0, 185.0, throughput_exponent=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("idle_power_w", math.nan),
            ("peak_power_w", math.nan),
            ("peak_power_w", math.inf),
            ("throughput_exponent", math.nan),
            ("throughput_exponent", math.inf),
            ("nominal_frequency_ghz", math.nan),
            ("nominal_frequency_ghz", math.inf),
            ("min_frequency_ghz", math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        parameters = dict(idle_power_w=90.0, peak_power_w=185.0)
        parameters[field] = value
        with pytest.raises(ConfigurationError):
            ServerPowerModel(**parameters)


class TestAffinePower:
    def test_idle_point(self, rd330):
        assert rd330.wall_power_w(0.0) == pytest.approx(90.0)

    def test_peak_point(self, rd330):
        assert rd330.wall_power_w(1.0) == pytest.approx(185.0)

    def test_midpoint(self, rd330):
        assert rd330.wall_power_w(0.5) == pytest.approx(137.5)

    def test_doubles_idle_to_loaded(self, rd330):
        # The paper: "total system power doubles from 90 W idle to 185 W".
        assert rd330.wall_power_w(1.0) / rd330.wall_power_w(0.0) == (
            pytest.approx(2.0, abs=0.06)
        )

    def test_out_of_range_utilization_rejected(self, rd330):
        with pytest.raises(ConfigurationError):
            rd330.wall_power_w(1.5)
        with pytest.raises(ConfigurationError):
            rd330.wall_power_w(-0.1)


class TestDVFS:
    def test_nominal_factor_is_one(self, rd330):
        assert rd330.frequency_factor(2.4) == pytest.approx(1.0)

    def test_downclock_reduces_dynamic_power(self, rd330):
        full = rd330.wall_power_w(1.0, 2.4)
        downclocked = rd330.wall_power_w(1.0, 1.6)
        assert downclocked < full
        # With the default linear exponent: 90 + 95 * (1.6/2.4).
        assert downclocked == pytest.approx(90.0 + 95.0 * (1.6 / 2.4))

    def test_idle_power_unaffected_by_frequency(self, rd330):
        assert rd330.wall_power_w(0.0, 1.6) == pytest.approx(90.0)

    def test_out_of_range_frequency_rejected(self, rd330):
        with pytest.raises(ConfigurationError):
            rd330.wall_power_w(0.5, 1.0)
        with pytest.raises(ConfigurationError):
            rd330.wall_power_w(0.5, 3.0)

    def test_throughput_factor_linear_default(self, rd330):
        assert rd330.throughput_factor(1.6) == pytest.approx(1.6 / 2.4)

    def test_throughput_factor_sublinear_option(self):
        model = ServerPowerModel(90.0, 185.0, throughput_exponent=0.85)
        assert model.throughput_factor(1.6) == pytest.approx(
            (1.6 / 2.4) ** 0.85
        )

    def test_quadratic_exponent(self):
        model = ServerPowerModel(90.0, 185.0, dvfs_exponent=2.0)
        assert model.frequency_factor(1.6) == pytest.approx((1.6 / 2.4) ** 2)


class TestPSU:
    def test_efficiency_interpolates(self, rd330):
        assert rd330.psu_efficiency(0.0) == pytest.approx(0.80)
        assert rd330.psu_efficiency(1.0) == pytest.approx(0.90)
        assert rd330.psu_efficiency(0.5) == pytest.approx(0.85)

    def test_loss_plus_dc_equals_wall(self, rd330):
        for u in (0.0, 0.3, 0.7, 1.0):
            wall = rd330.wall_power_w(u)
            assert rd330.psu_loss_w(u) + rd330.dc_power_w(u) == (
                pytest.approx(wall)
            )

    def test_idle_loss_magnitude(self, rd330):
        # 20% of 90 W = 18 W dissipated in the PSU at idle.
        assert rd330.psu_loss_w(0.0) == pytest.approx(18.0)

    @given(u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_dc_power_never_exceeds_wall(self, u):
        model = ServerPowerModel(90.0, 185.0)
        assert model.dc_power_w(u) <= model.wall_power_w(u)

    @given(
        u1=st.floats(min_value=0.0, max_value=1.0),
        u2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_wall_power_monotone_in_utilization(self, u1, u2):
        model = ServerPowerModel(90.0, 185.0)
        if u1 <= u2:
            assert model.wall_power_w(u1) <= model.wall_power_w(u2) + 1e-9
