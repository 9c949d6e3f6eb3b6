"""Tests for the transient solver."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMSample
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import (
    simulate_transient,
    simulate_transient_batch,
    stable_step_s,
)
from repro.units import hours


def rc_network(power_w=10.0, capacity=200.0, conductance=0.5):
    network = ThermalNetwork("rc")
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("node", capacity, 25.0, power_w=power_w)
    network.add_conductance("node", "ambient", conductance)
    return network


def wax_network(melting_point=39.0, wax_liters=0.1, air_temp=50.0):
    network = ThermalNetwork("wax")
    network.add_boundary_node("hot", air_temp)
    material = commercial_paraffin_with_melting_point(melting_point)
    sample = PCMSample.from_volume(material, wax_liters * 1e-3, 25.0)
    network.add_pcm_node("wax", sample)
    network.add_conductance("wax", "hot", 1.0)
    return network, sample


class TestAnalyticAgreement:
    def test_first_order_step_response(self):
        # Single RC node: T(t) = T_inf + (T0 - T_inf) exp(-t/tau).
        network = rc_network()
        tau = 200.0 / 0.5
        result = simulate_transient(network, 4 * tau, output_interval_s=tau / 10)
        expected = 45.0 + (25.0 - 45.0) * np.exp(-result.times_s / tau)
        assert np.max(np.abs(result.temperatures_c["node"] - expected)) < 0.05

    def test_equilibrium_reached(self):
        network = rc_network()
        result = simulate_transient(network, hours(2.0), output_interval_s=60.0)
        assert result.temperatures_c["node"][-1] == pytest.approx(45.0, abs=0.01)

    def test_energy_conservation_without_pcm(self):
        # Power in = heat to boundary + energy stored in the node.
        network = rc_network()
        result = simulate_transient(network, hours(1.0), output_interval_s=30.0)
        temps = result.temperatures_c["node"]
        stored = 200.0 * (temps[-1] - temps[0])
        to_ambient = np.trapezoid(0.5 * (temps - 25.0), result.times_s)
        power_in = 10.0 * result.times_s[-1]
        assert stored + to_ambient == pytest.approx(power_in, rel=5e-3)


class TestPCMDynamics:
    def test_wax_melts_through_plateau(self):
        network, sample = wax_network()
        result = simulate_transient(network, hours(20.0), output_interval_s=120.0)
        melt = result.melt_fractions["wax"]
        assert melt[0] == pytest.approx(0.0)
        assert melt[-1] == pytest.approx(1.0)
        # Temperature eventually approaches the boundary.
        assert result.temperatures_c["wax"][-1] == pytest.approx(50.0, abs=0.3)

    def test_latent_energy_budget(self):
        network, sample = wax_network()
        result = simulate_transient(
            network, hours(20.0), output_interval_s=120.0, commit_final_state=True
        )
        # Total enthalpy change equals integral of conductive heat flow.
        heat = 1.0 * (50.0 - result.temperatures_c["wax"])
        integrated = np.trapezoid(heat, result.times_s)
        delta_h = result.pcm_enthalpies_j["wax"][-1] - result.pcm_enthalpies_j["wax"][0]
        # Tolerance bounded by trapezoidal sampling of the heat trace, not
        # by the solver: the RK4 state itself conserves energy exactly.
        assert delta_h == pytest.approx(integrated, rel=1e-2)

    def test_melting_plateau_visible(self):
        network, _ = wax_network()
        result = simulate_transient(network, hours(20.0), output_interval_s=120.0)
        temps = result.temperatures_c["wax"]
        melt = result.melt_fractions["wax"]
        mushy = (melt > 0.1) & (melt < 0.9)
        assert np.any(mushy)
        # Temperature barely moves across the bulk of the melt.
        assert np.ptp(temps[mushy]) < 1.5

    def test_refreezing_releases_heat(self):
        network, sample = wax_network(air_temp=50.0)
        sample.set_temperature(50.0)  # start fully molten
        cold = ThermalNetwork("cold")
        cold.add_boundary_node("cold", 20.0)
        cold.add_pcm_node("wax", sample)
        cold.add_conductance("wax", "cold", 1.0)
        result = simulate_transient(cold, hours(20.0), output_interval_s=120.0)
        assert result.melt_fractions["wax"][-1] == pytest.approx(0.0)

    def test_commit_final_state_roundtrip(self):
        network, sample = wax_network()
        before = sample.enthalpy_j
        simulate_transient(network, hours(1.0), output_interval_s=60.0)
        assert sample.enthalpy_j == before  # untouched by default
        simulate_transient(
            network, hours(1.0), output_interval_s=60.0, commit_final_state=True
        )
        assert sample.enthalpy_j > before


class TestResultAPI:
    def test_times_hours(self):
        network = rc_network()
        result = simulate_transient(network, 7200.0, output_interval_s=3600.0)
        assert result.times_hours[-1] == pytest.approx(2.0)

    def test_temperature_lookup(self):
        network = rc_network()
        result = simulate_transient(network, 600.0, output_interval_s=60.0)
        assert len(result.temperature("node")) == len(result.times_s)
        with pytest.raises(KeyError):
            result.temperature("ghost")

    def test_final_temperatures(self):
        network = rc_network()
        result = simulate_transient(network, 600.0, output_interval_s=60.0)
        finals = result.final_temperatures()
        assert "node" in finals and "ambient" in finals

    def test_heat_release_to_air_balances_power(self):
        # Without PCM, release equals electrical power.
        network = rc_network()
        result = simulate_transient(network, 600.0, output_interval_s=60.0)
        assert np.allclose(result.heat_release_to_air_w(), result.power_w)


class TestGuards:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_transient(rc_network(), 0.0)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_transient(rc_network(), 100.0, output_interval_s=0.0)

    def test_bad_max_step_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_transient(rc_network(), 100.0, max_step_s=-1.0)

    def test_stable_step_positive(self):
        assert stable_step_s(rc_network()) > 0.0

    def test_stable_step_safety_validated(self):
        with pytest.raises(ConfigurationError):
            stable_step_s(rc_network(), safety=0.0)


#: Each way of running a transient, called with the run's keyword arguments.
RUNNERS = {
    "rk4": lambda **kw: simulate_transient(rc_network(), **kw),
    "bdf": lambda **kw: simulate_transient(rc_network(), method="bdf", **kw),
    "batch": lambda **kw: simulate_transient_batch([rc_network()], **kw),
}


class TestNonFiniteRunArguments:
    """NaN and infinite run arguments fail up front, with ConfigurationError.

    They used to get through: an infinite output interval returned one
    sample at t = NaN, a NaN interval or a NaN or infinite duration failed
    inside the sample grid with ValueError or OverflowError, a NaN max
    step was ignored (``min(step, nan)`` is ``step``), and a NaN stop
    temperature ran to the horizon.
    """

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration(self, runner, duration):
        with pytest.raises(ConfigurationError, match="duration"):
            RUNNERS[runner](duration_s=duration, output_interval_s=60.0)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_output_interval(self, runner, interval):
        with pytest.raises(ConfigurationError, match="output interval"):
            RUNNERS[runner](duration_s=600.0, output_interval_s=interval)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_nan_max_step(self, runner):
        with pytest.raises(ConfigurationError, match="max step"):
            RUNNERS[runner](duration_s=600.0, max_step_s=math.nan)

    @pytest.mark.parametrize("runner", ["rk4", "batch"])
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_stop_at_temperature(self, runner, threshold):
        with pytest.raises(ConfigurationError, match="stop_at temperature"):
            RUNNERS[runner](duration_s=600.0, stop_at=("node", threshold))

    def test_infinite_max_step_caps_nothing(self):
        capped = simulate_transient(rc_network(), 600.0, 60.0, max_step_s=math.inf)
        plain = simulate_transient(rc_network(), 600.0, 60.0)
        assert (
            capped.temperatures_c["node"].tobytes()
            == plain.temperatures_c["node"].tobytes()
        )


class TestHorizonSampling:
    """The traces always end with a sample exactly at the horizon.

    Regression coverage for two historical bugs: a horizon shorter than
    the output interval silently skipped the integration loop entirely
    (the run returned its initial condition as the "final" state), and a
    horizon that was not an interval multiple lost its final partial
    interval to the floor division.
    """

    @pytest.mark.parametrize("method", ["rk4", "bdf"])
    def test_short_horizon_still_integrates(self, method):
        # 30 s of a tau = 400 s RC charge: small but clearly nonzero.
        network = rc_network()
        result = simulate_transient(
            network, 30.0, output_interval_s=60.0, method=method
        )
        assert list(result.times_s) == [0.0, 30.0]
        tau = 200.0 / 0.5
        expected = 45.0 + (25.0 - 45.0) * np.exp(-30.0 / tau)
        assert result.temperatures_c["node"][-1] == pytest.approx(
            expected, abs=0.05
        )

    @pytest.mark.parametrize("method", ["rk4", "bdf"])
    def test_short_horizon_commits_advanced_state(self, method):
        network, sample = wax_network()
        before = sample.enthalpy_j
        simulate_transient(
            network,
            30.0,
            output_interval_s=60.0,
            method=method,
            commit_final_state=True,
        )
        assert sample.enthalpy_j > before

    @pytest.mark.parametrize("method", ["rk4", "bdf"])
    def test_non_multiple_horizon_keeps_final_sample(self, method):
        network = rc_network()
        result = simulate_transient(
            network, 150.0, output_interval_s=60.0, method=method
        )
        assert list(result.times_s) == [0.0, 60.0, 120.0, 150.0]
        assert result.times_s[-1] == 150.0
        # The trace is still strictly monotone in temperature (charging).
        assert np.all(np.diff(result.temperatures_c["node"]) > 0)

    def test_exact_multiple_horizon_unchanged(self):
        network = rc_network()
        result = simulate_transient(network, 120.0, output_interval_s=60.0)
        assert list(result.times_s) == [0.0, 60.0, 120.0]

    def test_batch_horizon_matches_single(self):
        networks = [rc_network(power_w=p) for p in (5.0, 10.0)]
        from repro.thermal.solver import simulate_transient_batch

        batch = simulate_transient_batch(networks, 150.0, output_interval_s=60.0)
        for result in batch.require_all():
            assert list(result.times_s) == [0.0, 60.0, 120.0, 150.0]


class TestCompiledAgainstReference:
    def test_compiled_rhs_matches_network_rhs(self, one_u_spec, rng):
        """The fast array evaluator and the readable dict evaluator must
        produce identical derivatives on a full chassis network."""
        from repro.server.chassis import constant_utilization
        from repro.thermal.solver import _CompiledNetwork

        network = one_u_spec.chassis.build_network(
            constant_utilization(0.7), with_wax=True
        )
        compiled = _CompiledNetwork(network)
        state = network.initial_state()
        # Perturb the state so flows are non-trivial.
        state = state + rng.uniform(0, 5, size=state.shape)
        for time_s in (0.0, 1800.0, 7200.0):
            reference = network.state_derivative(state, time_s)
            fast = compiled.rhs(state, time_s)
            assert np.allclose(reference, fast, rtol=1e-12, atol=1e-12)


class TestBDFCrossCheck:
    def test_bdf_matches_rk4_on_wax_network(self):
        """Two independent integrators (explicit fixed-step RK4 and SciPy's
        implicit BDF) must agree on the same compiled physics."""
        import numpy as np

        network_a, _ = wax_network()
        network_b, _ = wax_network()
        rk4 = simulate_transient(network_a, hours(10.0), output_interval_s=300.0)
        bdf = simulate_transient(
            network_b, hours(10.0), output_interval_s=300.0, method="bdf"
        )
        assert np.max(np.abs(rk4.temperatures_c["wax"] - bdf.temperatures_c["wax"])) < 0.1
        assert np.max(np.abs(rk4.melt_fractions["wax"] - bdf.melt_fractions["wax"])) < 0.01

    def test_bdf_on_full_chassis(self, one_u_spec):
        import numpy as np
        from repro.server.chassis import step_utilization

        schedule = step_utilization(0.0, 1.0, hours(0.5), hours(3.0))
        rk4_net = one_u_spec.chassis.build_network(schedule, with_wax=True)
        bdf_net = one_u_spec.chassis.build_network(schedule, with_wax=True)
        rk4 = simulate_transient(rk4_net, hours(5.0), output_interval_s=300.0)
        bdf = simulate_transient(
            bdf_net, hours(5.0), output_interval_s=300.0, method="bdf"
        )
        for name in rk4.temperatures_c:
            assert np.max(
                np.abs(rk4.temperatures_c[name] - bdf.temperatures_c[name])
            ) < 0.2, name

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_transient(rc_network(), 100.0, method="euler")
