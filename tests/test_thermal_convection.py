"""Tests for flow-scaled convective conductances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.thermal.convection import ConvectiveCoupling, flow_scaled_conductance


class TestFlowScaling:
    def test_reference_point_identity(self):
        assert flow_scaled_conductance(2.0, 0.01, 0.01) == pytest.approx(2.0)

    def test_colburn_exponent(self):
        # Double the flow: conductance grows by 2^0.8.
        assert flow_scaled_conductance(2.0, 0.02, 0.01) == pytest.approx(
            2.0 * 2**0.8
        )

    def test_stagnant_floor(self):
        assert flow_scaled_conductance(2.0, 0.0, 0.01) == pytest.approx(0.1)

    def test_floor_engages_at_low_flow(self):
        low = flow_scaled_conductance(2.0, 1e-6, 0.01)
        assert low == pytest.approx(0.05 * 2.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            flow_scaled_conductance(0.0, 0.01, 0.01)
        with pytest.raises(ConfigurationError):
            flow_scaled_conductance(2.0, 0.01, 0.0)
        with pytest.raises(ConfigurationError):
            flow_scaled_conductance(2.0, -0.01, 0.01)
        with pytest.raises(ConfigurationError):
            flow_scaled_conductance(2.0, 0.01, 0.01, stagnant_fraction=2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"reference_conductance_w_per_k": math.nan},
            {"reference_conductance_w_per_k": math.inf},
            {"reference_flow_m3_s": math.nan},
            {"reference_flow_m3_s": math.inf},
            {"flow_m3_s": math.nan},
            {"flow_m3_s": math.inf},
            {"exponent": math.nan},
            {"exponent": math.inf},
            {"exponent": -0.5},
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_nan_inf_and_negative_exponent_rejected(self, bad):
        arguments = {
            "reference_conductance_w_per_k": 2.0,
            "flow_m3_s": 0.01,
            "reference_flow_m3_s": 0.01,
            **bad,
        }
        with pytest.raises(ConfigurationError):
            flow_scaled_conductance(**arguments)
        # The coupling validates through the function at construction.
        if "flow_m3_s" not in bad:
            with pytest.raises(ConfigurationError):
                ConvectiveCoupling(
                    "cpu",
                    arguments["reference_conductance_w_per_k"],
                    arguments["reference_flow_m3_s"],
                    exponent=arguments.get("exponent", 0.8),
                )

    @given(
        flow=st.floats(min_value=0.0, max_value=0.1),
        reference=st.floats(min_value=1e-4, max_value=0.1),
    )
    @settings(max_examples=150)
    def test_conductance_always_positive(self, flow, reference):
        g = flow_scaled_conductance(3.0, flow, reference)
        assert g > 0.0

    @given(
        q1=st.floats(min_value=0.0, max_value=0.05),
        q2=st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=150)
    def test_conductance_monotone_in_flow(self, q1, q2):
        g1 = flow_scaled_conductance(3.0, q1, 0.01)
        g2 = flow_scaled_conductance(3.0, q2, 0.01)
        if q1 <= q2:
            assert g1 <= g2 + 1e-12


class TestCoupling:
    def test_coupling_delegates(self):
        coupling = ConvectiveCoupling("cpu", 2.0, 0.01)
        assert coupling.conductance_at_flow(0.01) == pytest.approx(2.0)
        assert coupling.conductance_at_flow(0.02) > 2.0

    def test_invalid_coupling_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ConvectiveCoupling("cpu", -1.0, 0.01)

    def test_laminar_exponent_supported(self):
        coupling = ConvectiveCoupling("cpu", 2.0, 0.01, exponent=0.5)
        assert coupling.conductance_at_flow(0.04) == pytest.approx(2.0 * 2.0)
