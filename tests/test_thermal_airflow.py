"""Tests for fans, impedance, blockage, and stream segments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.thermal.airflow import (
    AirPath,
    AirSegment,
    FanBank,
    FanCurve,
    SystemImpedance,
    blockage_impedance_coefficient,
    operating_flow,
)
from repro.thermal.convection import ConvectiveCoupling


@pytest.fixture
def fan():
    return FanCurve(max_pressure_pa=60.0, max_flow_m3_s=0.004)


@pytest.fixture
def bank(fan):
    return FanBank(curve=fan, count=6, power_per_fan_w=17.0)


class TestFanCurve:
    def test_shutoff_pressure(self, fan):
        assert fan.pressure_at_flow(0.0) == pytest.approx(60.0)

    def test_free_delivery_zero_pressure(self, fan):
        assert fan.pressure_at_flow(0.004) == pytest.approx(0.0)

    def test_pressure_monotone_decreasing(self, fan):
        flows = np.linspace(0, 0.004, 20)
        pressures = [fan.pressure_at_flow(q) for q in flows]
        assert all(a >= b for a, b in zip(pressures, pressures[1:]))

    def test_affinity_laws(self, fan):
        # Half speed: half free-delivery flow, quarter shut-off pressure.
        assert fan.pressure_at_flow(0.0, speed_fraction=0.5) == pytest.approx(15.0)
        assert fan.pressure_at_flow(0.002, speed_fraction=0.5) == pytest.approx(0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            FanCurve(max_pressure_pa=0.0, max_flow_m3_s=0.004)
        with pytest.raises(ConfigurationError):
            FanCurve(max_pressure_pa=60.0, max_flow_m3_s=-1.0)

    def test_zero_speed_rejected(self, fan):
        with pytest.raises(ConfigurationError):
            fan.pressure_at_flow(0.001, speed_fraction=0.0)


class TestFanBank:
    def test_total_power(self, bank):
        assert bank.total_power_w == pytest.approx(102.0)

    def test_parallel_flow_split(self, bank, fan):
        # The bank moving 6x the per-fan flow sees the single-fan pressure.
        assert bank.pressure_at_flow(6 * 0.002) == pytest.approx(
            fan.pressure_at_flow(0.002)
        )

    def test_max_flow_scales_with_count(self, bank):
        assert bank.max_flow_m3_s() == pytest.approx(0.024)

    def test_zero_count_rejected(self, fan):
        with pytest.raises(ConfigurationError):
            FanBank(curve=fan, count=0)


class TestOperatingPoint:
    def test_closed_form_satisfies_both_curves(self, bank):
        impedance = SystemImpedance(400_000.0)
        q = operating_flow(bank, impedance)
        assert bank.pressure_at_flow(q) == pytest.approx(
            impedance.pressure_drop(q), rel=1e-9
        )

    def test_flow_decreases_with_impedance(self, bank):
        q_low = operating_flow(bank, SystemImpedance(100_000.0))
        q_high = operating_flow(bank, SystemImpedance(1_000_000.0))
        assert q_high < q_low

    def test_flow_decreases_with_speed(self, bank):
        impedance = SystemImpedance(400_000.0)
        q_full = operating_flow(bank, impedance, 1.0)
        q_half = operating_flow(bank, impedance, 0.5)
        assert q_half < q_full
        # With a pure quadratic system, flow scales linearly with speed.
        assert q_half == pytest.approx(0.5 * q_full, rel=1e-9)

    def test_zero_impedance_gives_free_delivery(self, bank):
        q = operating_flow(bank, SystemImpedance(0.0))
        assert q == pytest.approx(bank.max_flow_m3_s())

    @given(
        k=st.floats(min_value=0.0, max_value=1e7),
        speed=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_flow_always_within_physical_bounds(self, k, speed):
        bank = FanBank(FanCurve(60.0, 0.004), count=6)
        q = operating_flow(bank, SystemImpedance(k), speed)
        assert 0.0 < q <= bank.max_flow_m3_s(speed) + 1e-12


class TestBlockage:
    def test_zero_blockage_adds_nothing(self):
        assert blockage_impedance_coefficient(0.01, 0.0) == pytest.approx(0.0)

    def test_blockage_monotone_increasing(self):
        fractions = np.linspace(0.0, 0.9, 10)
        coefficients = [
            blockage_impedance_coefficient(0.01, float(b)) for b in fractions
        ]
        assert all(a <= b for a, b in zip(coefficients, coefficients[1:]))

    def test_blockage_superlinear_near_closure(self):
        mid = blockage_impedance_coefficient(0.01, 0.5)
        near = blockage_impedance_coefficient(0.01, 0.9)
        # Orifice scaling: 90% blocked is far worse than 1.8x of 50%.
        assert near > 10 * mid

    def test_full_blockage_rejected(self):
        with pytest.raises(ConfigurationError):
            blockage_impedance_coefficient(0.01, 1.0)

    def test_bigger_duct_less_sensitive(self):
        small = blockage_impedance_coefficient(0.005, 0.7)
        large = blockage_impedance_coefficient(0.05, 0.7)
        assert large < small


class TestAirSegment:
    def test_mixed_temperature_between_inlet_and_sources(self):
        segment = AirSegment("cpu")
        segment.couple(
            ConvectiveCoupling("chip", reference_conductance_w_per_k=2.0,
                               reference_flow_m3_s=0.01)
        )
        mixed = segment.mixed_temperature(
            inlet_temperature_c=25.0,
            node_temperatures={"chip": 75.0},
            flow_m3_s=0.01,
            capacity_rate_w_per_k=10.0,
        )
        assert 25.0 < mixed < 75.0

    def test_no_couplings_passes_inlet_through(self):
        segment = AirSegment("empty")
        mixed = segment.mixed_temperature(30.0, {}, 0.01, 10.0)
        assert mixed == pytest.approx(30.0)

    def test_duplicate_coupling_rejected(self):
        segment = AirSegment("cpu")
        coupling = ConvectiveCoupling("chip", 2.0, 0.01)
        segment.couple(coupling)
        with pytest.raises(ConfigurationError):
            segment.couple(coupling)

    def test_energy_balance_closed(self):
        # m_dot*cp*(T_mixed - T_in) equals the heat picked up from sources.
        segment = AirSegment("cpu")
        segment.couple(ConvectiveCoupling("a", 2.0, 0.01))
        segment.couple(ConvectiveCoupling("b", 1.0, 0.01))
        temps = {"a": 70.0, "b": 40.0}
        capacity_rate = 8.0
        mixed = segment.mixed_temperature(25.0, temps, 0.01, capacity_rate)
        advected = capacity_rate * (mixed - 25.0)
        picked_up = 2.0 * (70.0 - mixed) + 1.0 * (40.0 - mixed)
        assert advected == pytest.approx(picked_up, rel=1e-9)


class TestAirPath:
    def _make(self, blockage=0.0):
        return AirPath(
            fans=FanBank(FanCurve(60.0, 0.004), count=6),
            base_impedance=SystemImpedance(400_000.0),
            segments=[AirSegment("front"), AirSegment("rear")],
            duct_area_m2=0.01,
            added_blockage_fraction=blockage,
        )

    def test_needs_segments(self):
        with pytest.raises(ConfigurationError):
            AirPath(
                fans=FanBank(FanCurve(60.0, 0.004), count=6),
                base_impedance=SystemImpedance(1.0),
                segments=[],
                duct_area_m2=0.01,
            )

    def test_duplicate_segment_names_rejected(self):
        with pytest.raises(ConfigurationError):
            AirPath(
                fans=FanBank(FanCurve(60.0, 0.004), count=6),
                base_impedance=SystemImpedance(1.0),
                segments=[AirSegment("x"), AirSegment("x")],
                duct_area_m2=0.01,
            )

    def test_blockage_reduces_flow(self):
        open_path = self._make(0.0)
        blocked = open_path.with_blockage(0.7)
        assert blocked.flow_at_time(0.0) < open_path.flow_at_time(0.0)

    def test_fan_schedule_drives_flow(self):
        path = AirPath(
            fans=FanBank(FanCurve(60.0, 0.004), count=6),
            base_impedance=SystemImpedance(400_000.0),
            segments=[AirSegment("only")],
            duct_area_m2=0.01,
            fan_speed_schedule=lambda t: 0.5 if t < 100 else 1.0,
        )
        assert path.flow_at_time(0.0) < path.flow_at_time(200.0)

    def test_segment_lookup(self):
        path = self._make()
        assert path.segment("front").name == "front"
        with pytest.raises(ConfigurationError):
            path.segment("missing")


def _path_with_duct(area_m2):
    return AirPath(
        fans=FanBank(FanCurve(60.0, 0.004), count=6),
        base_impedance=SystemImpedance(400_000.0),
        segments=[AirSegment("only")],
        duct_area_m2=area_m2,
    )


_BANK = FanBank(FanCurve(60.0, 0.004), count=6)


class TestNonFiniteRejected:
    """NaN fails every range check; inf fails where the value must be finite."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: FanCurve(math.nan, 0.01), id="shutoff-nan"),
            pytest.param(lambda: FanCurve(math.inf, 0.01), id="shutoff-inf"),
            pytest.param(lambda: FanCurve(100.0, math.nan), id="free-flow-nan"),
            pytest.param(lambda: FanCurve(100.0, math.inf), id="free-flow-inf"),
            pytest.param(
                lambda: _BANK.curve.pressure_at_flow(0.001, math.nan),
                id="curve-speed-nan",
            ),
            pytest.param(
                lambda: _BANK.curve.pressure_at_flow(0.001, math.inf),
                id="curve-speed-inf",
            ),
            pytest.param(
                lambda: FanBank(_BANK.curve, 6, power_per_fan_w=math.nan),
                id="fan-power-nan",
            ),
            pytest.param(
                lambda: FanBank(_BANK.curve, 6, power_per_fan_w=math.inf),
                id="fan-power-inf",
            ),
            pytest.param(
                lambda: _BANK.with_failed_fans(math.nan), id="failed-fans-nan"
            ),
            pytest.param(lambda: SystemImpedance(math.nan), id="impedance-nan"),
            pytest.param(lambda: SystemImpedance(math.inf), id="impedance-inf"),
            pytest.param(
                lambda: SystemImpedance(1.0).with_added(math.nan), id="added-nan"
            ),
            pytest.param(
                lambda: SystemImpedance(1.0).with_added(math.inf), id="added-inf"
            ),
            pytest.param(
                lambda: blockage_impedance_coefficient(math.nan, 0.5),
                id="blockage-area-nan",
            ),
            pytest.param(
                lambda: blockage_impedance_coefficient(math.inf, 0.5),
                id="blockage-area-inf",
            ),
            pytest.param(
                lambda: operating_flow(_BANK, SystemImpedance(1.0), math.nan),
                id="operating-speed-nan",
            ),
            pytest.param(
                lambda: operating_flow(_BANK, SystemImpedance(1.0), math.inf),
                id="operating-speed-inf",
            ),
            pytest.param(lambda: _path_with_duct(math.nan), id="duct-area-nan"),
            pytest.param(lambda: _path_with_duct(math.inf), id="duct-area-inf"),
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()
