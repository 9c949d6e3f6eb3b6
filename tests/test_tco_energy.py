"""Tests for time-of-day cooling-energy economics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tco.energy import (
    AmbientAwarePlant,
    AmbientProfile,
    ElectricityTariff,
    compare_energy_shift,
    cooling_energy_cost,
)
from repro.units import hours


class TestTariff:
    def test_paper_rates_are_defaults(self):
        tariff = ElectricityTariff()
        assert tariff.peak_usd_per_kwh == pytest.approx(0.13)
        assert tariff.offpeak_usd_per_kwh == pytest.approx(0.08)

    def test_peak_window(self):
        tariff = ElectricityTariff(peak_start_hour=7.0, peak_end_hour=23.0)
        assert tariff.is_peak(hours(12.0))
        assert not tariff.is_peak(hours(3.0))
        assert not tariff.is_peak(hours(23.5))

    def test_wraparound_window(self):
        tariff = ElectricityTariff(peak_start_hour=22.0, peak_end_hour=6.0)
        assert tariff.is_peak(hours(23.0))
        assert tariff.is_peak(hours(2.0))
        assert not tariff.is_peak(hours(12.0))

    def test_price_vectorized(self):
        tariff = ElectricityTariff()
        prices = tariff.price_usd_per_kwh(np.array([hours(3.0), hours(12.0)]))
        assert prices[0] == pytest.approx(0.08)
        assert prices[1] == pytest.approx(0.13)

    def test_second_day_same_as_first(self):
        tariff = ElectricityTariff()
        assert tariff.is_peak(hours(12.0)) == tariff.is_peak(hours(36.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElectricityTariff(peak_usd_per_kwh=0.05, offpeak_usd_per_kwh=0.08)
        with pytest.raises(ConfigurationError):
            ElectricityTariff(peak_start_hour=25.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["peak_usd_per_kwh", "offpeak_usd_per_kwh"])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ElectricityTariff(**{field: value})


class TestAmbient:
    def test_peaks_at_peak_hour(self):
        profile = AmbientProfile(mean_c=20.0, amplitude_c=8.0, peak_hour=15.0)
        assert profile.temperature_c(hours(15.0)) == pytest.approx(28.0)
        assert profile.temperature_c(hours(3.0)) == pytest.approx(12.0)

    def test_daily_periodic(self):
        profile = AmbientProfile()
        assert profile.temperature_c(hours(10.0)) == pytest.approx(
            float(profile.temperature_c(hours(34.0)))
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AmbientProfile(amplitude_c=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean_c", "amplitude_c"])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AmbientProfile(**{field: value})


class TestPlant:
    def test_cop_falls_with_ambient(self):
        plant = AmbientAwarePlant()
        assert plant.cop(30.0) < plant.cop(10.0)

    def test_cop_floored(self):
        plant = AmbientAwarePlant(min_cop=2.0)
        assert plant.cop(100.0) == pytest.approx(2.0)

    def test_electrical_power(self):
        plant = AmbientAwarePlant(cop_reference=4.0, cop_slope_per_k=0.0)
        power = plant.electrical_power_w(np.array([4000.0]), np.array([20.0]))
        assert power[0] == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AmbientAwarePlant(cop_reference=0.0)
        with pytest.raises(ConfigurationError):
            AmbientAwarePlant(min_cop=10.0, cop_reference=4.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field",
        ["cop_reference", "cop_slope_per_k", "min_cop", "reference_ambient_c"],
    )
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AmbientAwarePlant(**{field: value})


def _fake_result(times, loads):
    from repro.dcsim.simulator import SimulationResult

    times = np.asarray(times, dtype=float)
    loads = np.asarray(loads, dtype=float)
    zeros = np.zeros_like(times)
    return SimulationResult(
        times_s=times, demand=zeros, utilization=zeros,
        frequency_ghz=np.full_like(times, 2.4), power_w=loads,
        cooling_load_w=loads, wax_heat_w=zeros, melt_fraction=zeros,
        throughput=zeros, queue_length=zeros, shed_work=zeros,
    )


class TestCostIntegration:
    def test_flat_load_cost(self):
        # 3.6 kW(th) for 24 h at COP 4 (no ambient slope) = 21.6 kWh(e);
        # 16 h at peak, 8 h off-peak.
        times = np.arange(1, 24 * 60 + 1) * 60.0
        result = _fake_result(times, np.full(len(times), 3600.0))
        plant = AmbientAwarePlant(cop_reference=4.0, cop_slope_per_k=0.0)
        cost = cooling_energy_cost(result, plant=plant)
        assert cost.cooling_energy_kwh == pytest.approx(21.6, rel=0.01)
        expected = (16 / 24) * 21.6 * 0.13 + (8 / 24) * 21.6 * 0.08
        assert cost.total_usd == pytest.approx(expected, rel=0.02)

    def test_night_heat_cheaper_than_day_heat(self):
        times = np.arange(1, 24 * 60 + 1) * 60.0
        hour = (times / 3600.0) % 24.0
        day_load = np.where((hour > 10) & (hour < 16), 5000.0, 0.0)
        night_load = np.where((hour > 0) & (hour < 6), 5000.0, 0.0)
        day_cost = cooling_energy_cost(_fake_result(times, day_load))
        night_cost = cooling_energy_cost(_fake_result(times, night_load))
        # Same heat, but night removal is cheaper twice over: lower rate
        # AND higher COP.
        assert night_cost.total_usd < 0.6 * day_cost.total_usd
        assert night_cost.offpeak_share > 0.9

    def test_comparison_structure(self):
        times = np.arange(1, 24 * 60 + 1) * 60.0
        hour = (times / 3600.0) % 24.0
        baseline = np.where((hour > 10) & (hour < 16), 5000.0, 1000.0)
        shifted = np.where((hour > 10) & (hour < 16), 4000.0, 1500.0)
        comparison = compare_energy_shift(
            _fake_result(times, baseline), _fake_result(times, shifted)
        )
        assert comparison.offpeak_shift > 0.0

    def test_too_short_result_rejected(self):
        with pytest.raises(ConfigurationError):
            cooling_energy_cost(_fake_result([60.0], [100.0]))
