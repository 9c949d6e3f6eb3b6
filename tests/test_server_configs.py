"""Tests pinning the three platforms to the paper's published anchors,
and the duct calibration's root-find to SciPy's."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.errors import ConfigurationError, SolverError
from repro.server.chassis import constant_utilization
from repro.server.configs import (
    _brent_root,
    calibrate_duct_area,
    platform_by_name,
)
from repro.thermal.airflow import FanBank, FanCurve, SystemImpedance, operating_flow
from repro.thermal.steady_state import solve_steady_state
from repro.units import AIR_VOLUMETRIC_HEAT_CAPACITY, liters


class TestRegistry:
    def test_platform_lookup(self):
        assert platform_by_name("1u").name == "1U low power"
        assert platform_by_name("2U").name == "2U high throughput"
        assert platform_by_name("ocp").name == "Open Compute"

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            platform_by_name("mainframe")

    def test_without_wax_loadout(self):
        spec = platform_by_name("1u", with_wax_loadout=False)
        assert spec.wax_loadout is None


class TestPaperAnchors1U:
    def test_power_points(self, one_u_spec):
        model = one_u_spec.power_model
        assert model.wall_power_w(0.0) == pytest.approx(90.0)
        assert model.wall_power_w(1.0) == pytest.approx(185.0)

    def test_cost_and_density(self, one_u_spec):
        assert one_u_spec.cost_usd == pytest.approx(2_000.0)
        assert one_u_spec.clusters_per_10mw == 55

    def test_wax_volume_1_2_liters(self, one_u_spec):
        assert one_u_spec.wax_loadout.total_volume_m3 == pytest.approx(
            liters(1.2)
        )

    def test_wax_blocks_70_percent(self, one_u_spec):
        assert one_u_spec.wax_loadout.blockage_fraction == pytest.approx(0.70)

    def test_six_fans(self, one_u_spec):
        assert one_u_spec.chassis.fans.count == 6
        assert one_u_spec.chassis.fans.power_per_fan_w == pytest.approx(17.0)

    def test_duct_calibrated_to_14c_rise_at_90pct(self, one_u_spec):
        chassis = one_u_spec.chassis
        q_open = operating_flow(chassis.fans, chassis.base_impedance)
        blocked = chassis.with_grille_blockage(0.90)
        q_blocked = blocked.build_network(
            constant_utilization(1.0)
        ).air_path.flow_at_time(0.0)
        rise = 185.0 / AIR_VOLUMETRIC_HEAT_CAPACITY
        assert rise / q_blocked - rise / q_open == pytest.approx(14.0, abs=0.2)


class TestPaperAnchors2U:
    def test_500w_after_psu(self, two_u_spec):
        assert two_u_spec.power_model.dc_power_w(1.0) == pytest.approx(
            500.0, rel=0.01
        )

    def test_four_sockets(self, two_u_spec):
        cpus = [c for c in two_u_spec.chassis.components if c.name == "cpu"]
        assert cpus[0].count == 4

    def test_cost_and_rack_density(self, two_u_spec):
        assert two_u_spec.cost_usd == pytest.approx(7_000.0)
        assert two_u_spec.servers_per_rack == 20
        assert two_u_spec.clusters_per_10mw == 19

    def test_four_one_liter_boxes(self, two_u_spec):
        loadout = two_u_spec.wax_loadout
        assert len(loadout.boxes) == 4
        assert loadout.total_volume_m3 == pytest.approx(liters(4.0))
        assert loadout.blockage_fraction == pytest.approx(0.69)

    def test_boxes_raise_temps_less_than_6c(self, two_u_spec):
        open_net = two_u_spec.chassis.build_network(constant_utilization(1.0))
        boxed = two_u_spec.chassis.build_network(
            constant_utilization(1.0), placebo=True
        )
        rise = (
            solve_steady_state(boxed).outlet_temperature_c()
            - solve_steady_state(open_net).outlet_temperature_c()
        )
        assert 0.0 < rise < 6.0


class TestPaperAnchorsOCP:
    def test_power_points(self, ocp_spec):
        model = ocp_spec.power_model
        assert model.wall_power_w(0.0) == pytest.approx(100.0)
        assert model.wall_power_w(1.0) == pytest.approx(300.0)

    def test_cost_and_clusters(self, ocp_spec):
        assert ocp_spec.cost_usd == pytest.approx(4_000.0)
        assert ocp_spec.clusters_per_10mw == 29

    def test_reconfigured_wax_1_5_liters_no_blockage(self, ocp_spec):
        loadout = ocp_spec.wax_loadout
        assert loadout.total_volume_m3 == pytest.approx(liters(1.5))
        assert loadout.blockage_fraction == pytest.approx(0.0)

    def test_production_insert_swap_half_liter(self):
        spec = platform_by_name("ocp", reconfigured=False)
        assert spec.wax_loadout.total_volume_m3 == pytest.approx(liters(0.5))

    def test_hot_storage_components(self, ocp_spec):
        # Enterprise PCIe SSDs run hot: weak coupling by construction.
        ssd = next(c for c in ocp_spec.chassis.components if c.name == "ssd")
        assert ssd.reference_conductance_w_per_k < 0.5


class TestDuctCalibration:
    def test_calibration_hits_target(self):
        fans = FanBank(FanCurve(60.0, 0.004), count=6)
        impedance = SystemImpedance(400_000.0)
        area = calibrate_duct_area(fans, impedance, 185.0, 0.9, 14.0)
        q_open = operating_flow(fans, impedance)
        from repro.thermal.airflow import blockage_impedance_coefficient

        extra = blockage_impedance_coefficient(area, 0.9)
        q_blocked = operating_flow(fans, impedance.with_added(extra))
        rise = 185.0 / AIR_VOLUMETRIC_HEAT_CAPACITY
        # Accuracy limited by the root-finder's xtol on the duct area.
        assert rise / q_blocked - rise / q_open == pytest.approx(14.0, abs=1e-4)

    def test_bigger_target_means_smaller_duct(self):
        fans = FanBank(FanCurve(60.0, 0.004), count=6)
        impedance = SystemImpedance(400_000.0)
        gentle = calibrate_duct_area(fans, impedance, 185.0, 0.9, 5.0)
        harsh = calibrate_duct_area(fans, impedance, 185.0, 0.9, 40.0)
        assert harsh < gentle

    def test_invalid_inputs_rejected(self):
        fans = FanBank(FanCurve(60.0, 0.004), count=6)
        impedance = SystemImpedance(400_000.0)
        with pytest.raises(ConfigurationError):
            calibrate_duct_area(fans, impedance, -1.0, 0.9, 14.0)
        with pytest.raises(ConfigurationError):
            calibrate_duct_area(fans, impedance, 185.0, 0.0, 14.0)
        with pytest.raises(ConfigurationError):
            calibrate_duct_area(fans, impedance, 185.0, 0.9, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                calibrate_duct_area(fans, impedance, bad, 0.9, 14.0)
            with pytest.raises(ConfigurationError):
                calibrate_duct_area(fans, impedance, 185.0, 0.9, bad)

    @pytest.mark.parametrize(
        ("name", "area_m2"),
        [
            ("1u", 0.008969978968470245),
            ("2u", 0.010559097502886534),
            ("ocp", 0.0008791776217257526),
        ],
    )
    def test_platform_areas_are_scipys_bits(self, name, area_m2):
        # The areas scipy.optimize.brentq calibrated before the port
        # replaced it; every platform transient depends on these bits.
        assert platform_by_name(name).chassis.duct_area_m2 == area_m2


def _recorded(f, calls):
    """``f`` that appends each point it is evaluated at to ``calls``."""

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped


# Strictly increasing shapes with a root at 0; the test shifts, scales and
# flips them. Smooth, saturating and kinked shapes steer Brent's method
# through interpolation, extrapolation and bisection steps.
_MONOTONE_SHAPES = {
    "linear": lambda u: u,
    "cubic": lambda u: u**3 + 0.01 * u,
    "exp": math.expm1,
    "atan": math.atan,
    "saturating": lambda u: u / (1.0 + abs(u)),
    "kinked": lambda u: u if u < 0 else 50.0 * u,
    "reciprocal": lambda u: 1.0 - 1.0 / (1.0 + u) if u > -0.5 else u - 1.0,
}


class TestBrentRootAgainstSciPy:
    """``_brent_root`` against the ``scipy.optimize.brentq`` it ports."""

    @given(
        shape=st.sampled_from(sorted(_MONOTONE_SHAPES)),
        root=st.floats(min_value=-5.0, max_value=5.0),
        below=st.floats(min_value=1e-3, max_value=10.0),
        above=st.floats(min_value=1e-3, max_value=10.0),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        decreasing=st.booleans(),
        swapped=st.booleans(),
        xtol=st.sampled_from([1e-8, 2e-12, 1e-4]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_points_and_root_bits(
        self, shape, root, below, above, scale, decreasing, swapped, xtol
    ):
        g = _MONOTONE_SHAPES[shape]
        sign = -scale if decreasing else scale

        def f(x):
            return sign * g(x - root)

        low, high = root - below, root + above
        if swapped:
            low, high = high, low
        ours, theirs = [], []
        port = _brent_root(_recorded(f, ours), low, high, xtol)
        oracle = brentq(_recorded(f, theirs), low, high, xtol=xtol)
        assert np.float64(port).tobytes() == np.float64(oracle).tobytes()
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()

    def test_same_points_when_neither_converges(self):
        # A step bisects a 1e300-wide bracket: 100 halvings are not enough.
        def step(x):
            return -1.0 if x < 1.0 else 1.0

        ours, theirs = [], []
        with pytest.raises(SolverError):
            _brent_root(_recorded(step, ours), -1e300, 1e300, 1e-8)
        with pytest.raises(RuntimeError):
            brentq(_recorded(step, theirs), -1e300, 1e300, xtol=1e-8)
        assert len(ours) == 102
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()

    def test_unbracketed_root_rejected(self):
        with pytest.raises(ConfigurationError):
            _brent_root(lambda x: x, 1.0, 2.0, 1e-8)
        with pytest.raises(ValueError):
            brentq(lambda x: x, 1.0, 2.0, xtol=1e-8)

    @pytest.mark.parametrize("root", [1.0, 2.0])
    def test_root_at_an_end_returned_as_is(self, root):
        def f(x):
            return x - root

        assert _brent_root(f, 1.0, 2.0, 1e-8) == root
        assert brentq(f, 1.0, 2.0, xtol=1e-8) == root


class TestPlatformValidation:
    @pytest.mark.parametrize("cost_usd", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, one_u_spec, cost_usd):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(one_u_spec, cost_usd=cost_usd)


class TestWaxMaterialOverride:
    def test_with_wax_material(self, one_u_spec):
        from repro.materials.library import commercial_paraffin_with_melting_point

        blend = one_u_spec.with_wax_material(
            commercial_paraffin_with_melting_point(45.0)
        )
        assert blend.wax_loadout.material.melting_point_c == pytest.approx(45.0)
        assert blend.wax_loadout.total_volume_m3 == pytest.approx(
            one_u_spec.wax_loadout.total_volume_m3
        )

    def test_override_without_loadout_rejected(self):
        from repro.materials.library import COMMERCIAL_PARAFFIN

        spec = platform_by_name("1u", with_wax_loadout=False)
        with pytest.raises(ConfigurationError):
            spec.with_wax_material(COMMERCIAL_PARAFFIN)
