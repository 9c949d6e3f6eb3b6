"""Tests for component thermal descriptions."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.server.components import (
    Component,
    component_node_names,
    total_idle_power_w,
    total_peak_power_w,
)


@pytest.fixture
def cpu():
    return Component(
        name="cpu", zone="cpu", count=2, idle_power_w=6.0, peak_power_w=46.0,
        scales_with_frequency=True,
    )


class TestValidation:
    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Component(name="x", zone="z", count=0)

    def test_peak_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            Component(name="x", zone="z", idle_power_w=10.0, peak_power_w=5.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            Component(name="x", zone="z", idle_power_w=-1.0)

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(ConfigurationError):
            Component(name="x", zone="z", reference_conductance_w_per_k=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heat_capacity_j_per_k", math.nan),
            ("heat_capacity_j_per_k", math.inf),
            ("idle_power_w", math.nan),
            ("peak_power_w", math.nan),
            ("peak_power_w", math.inf),
            ("reference_conductance_w_per_k", math.nan),
            ("reference_conductance_w_per_k", math.inf),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        parameters = dict(name="x", zone="z", idle_power_w=5.0, peak_power_w=30.0)
        parameters[field] = value
        with pytest.raises(ConfigurationError):
            Component(**parameters)


class TestPower:
    def test_affine_in_utilization(self, cpu):
        assert cpu.power_w(0.0) == pytest.approx(6.0)
        assert cpu.power_w(1.0) == pytest.approx(46.0)
        assert cpu.power_w(0.5) == pytest.approx(26.0)

    def test_paper_ratio_7_7x(self, cpu):
        # "CPU power increased by 7.7x from 6 W idle to 46 W per socket".
        assert cpu.power_w(1.0) / cpu.power_w(0.0) == pytest.approx(7.7, abs=0.1)

    def test_dvfs_applies_only_when_flagged(self, cpu):
        hdd = Component(name="hdd", zone="z", idle_power_w=4.0, peak_power_w=6.0)
        assert cpu.power_w(1.0, dvfs_factor=0.5) == pytest.approx(6.0 + 40.0 * 0.5)
        assert hdd.power_w(1.0, dvfs_factor=0.5) == pytest.approx(6.0)

    def test_out_of_range_utilization_rejected(self, cpu):
        with pytest.raises(ConfigurationError):
            cpu.power_w(2.0)

    def test_totals_scale_with_count(self, cpu):
        assert cpu.total_idle_power_w() == pytest.approx(12.0)
        assert cpu.total_peak_power_w() == pytest.approx(92.0)


class TestHelpers:
    def test_node_names_single(self):
        single = Component(name="hdd", zone="z")
        assert component_node_names(single) == ["hdd"]

    def test_node_names_multiple(self, cpu):
        assert component_node_names(cpu) == ["cpu[0]", "cpu[1]"]

    def test_with_zone(self, cpu):
        moved = cpu.with_zone("storage")
        assert moved.zone == "storage"
        assert moved.name == cpu.name

    def test_aggregate_totals(self, cpu):
        dimm = Component(
            name="dimm", zone="z", count=10, idle_power_w=1.2, peak_power_w=2.0
        )
        assert total_idle_power_w([cpu, dimm]) == pytest.approx(24.0)
        assert total_peak_power_w([cpu, dimm]) == pytest.approx(112.0)
