"""The RK4 loops against the allocating loops they replaced, byte for byte.

``simulate_transient`` and ``simulate_transient_batch`` step on buffers
allocated once per run, rebuild the time-dependent constants only when
the evaluated inputs change, and test finiteness by one sum. The oracles
below are the loops as they stood before that change: a fresh array per
stage, the constants rebuilt at every evaluation, and an elementwise
finiteness test. Every ``TransientResult`` field must be equal (``==``,
compared as bytes), and a batch must report the same failures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMSample
from repro.server.chassis import step_utilization
from repro.server.configs import platform_by_name
from repro.sprinting import SprintChip
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import (
    DEFAULT_STEP_SAFETY,
    BatchTransientResult,
    TransientResult,
    _BatchCompiledNetwork,
    _CompiledNetwork,
    _resolve_step,
    _sample_times,
    _TraceBuffers,
    simulate_transient,
    simulate_transient_batch,
)
from repro.validation.harness import LOAD_END_S, LOAD_START_S, TOTAL_S
from repro.validation.reference import build_reference_server, validation_loadout
from tests.test_solver_equivalence import network_from, network_params

# -- the oracle: the allocating loops ----------------------------------------


def oracle_constants(compiled: _CompiledNetwork, time_s: float):
    """(K, constants) rebuilt from scratch at one time."""
    if compiled.static_boundary_flows is not None:
        boundary = compiled.boundary_const
        base = compiled.static_boundary_flows.copy()
    else:
        boundary = compiled._boundaries_at(time_s)
        base = compiled.boundary_matrix @ boundary
    base[: compiled.n_cap] += compiled._powers_at(time_s)
    flow = 0.0
    if compiled.air_path is not None:
        flow = compiled.air_path.flow_at_time(time_s)
    _, inlet_vector = compiled._operator_for_flow(flow)
    if compiled.air_path is not None:
        base += inlet_vector * boundary[compiled.inlet_index]
    base *= compiled.inv_capacity
    return compiled._prepared_for_flow(flow), base


def oracle_rhs(compiled: _CompiledNetwork, state: np.ndarray, time_s: float):
    operator, constants = oracle_constants(compiled, time_s)
    return compiled.backend.apply(operator, compiled.temperatures(state), constants)


def oracle_transient(
    network: ThermalNetwork,
    duration_s: float,
    output_interval_s: float = 60.0,
    max_step_s: float | None = None,
    stop_at: tuple[str, float] | None = None,
) -> TransientResult:
    """``_integrate_rk4`` as it stood, on fresh arrays."""
    compiled = _CompiledNetwork(network)
    step = _resolve_step(network, DEFAULT_STEP_SAFETY, max_step_s, output_interval_s)
    times = _sample_times(duration_s, output_interval_s)
    n_outputs = len(times)
    state = network.initial_state()
    buffers = _TraceBuffers(compiled, n_outputs)
    watched = None if stop_at is None else buffers.watch(stop_at)

    def rhs(y, t):
        return oracle_rhs(compiled, y, t)

    time_now = 0.0
    for sample_index in range(n_outputs):
        target = times[sample_index]
        while time_now < target - 1e-9:
            dt = min(step, target - time_now)
            k1 = rhs(state, time_now)
            k2 = rhs(state + 0.5 * dt * k1, time_now + 0.5 * dt)
            k3 = rhs(state + 0.5 * dt * k2, time_now + 0.5 * dt)
            k4 = rhs(state + dt * k3, time_now + dt)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            time_now += dt
            if not np.all(np.isfinite(state)):
                raise SolverError(
                    f"non-finite state at t={time_now:.1f}s in network "
                    f"{network.name!r}; step {step:.3g}s may be unstable"
                )
        buffers.record(sample_index, state, target)
        if watched is not None and watched[sample_index] >= stop_at[1]:
            times = times[: sample_index + 1]
            break
    return buffers.result(times)


def oracle_batch(
    networks: list[ThermalNetwork],
    duration_s: float,
    output_interval_s: float = 60.0,
    stop_at: tuple[str, float] | None = None,
) -> BatchTransientResult:
    """``simulate_transient_batch``'s step loop as it stood."""
    members = [_CompiledNetwork(network) for network in networks]
    batch = _BatchCompiledNetwork(members)
    step = min(
        _resolve_step(network, DEFAULT_STEP_SAFETY, None, output_interval_s)
        for network in networks
    )
    times = _sample_times(duration_s, output_interval_s)
    n_outputs = len(times)
    n_members = len(networks)

    def rhs(y, t):
        if batch.static_boundary:
            boundary = batch.boundary_const
            base = batch.static_boundary_flows.copy()
        else:
            boundary = np.stack([m._boundaries_at(t) for m in members])
            base = np.einsum("nij,nj->ni", batch.boundary_matrix, boundary)
        base[:, : batch.n_cap] += np.stack([m._powers_at(t) for m in members])
        if batch.air:
            flows = np.array([m.air_path.flow_at_time(t) for m in members])
        else:
            flows = np.zeros(n_members)
        operators, inlet_vectors = batch._operators_for(flows)
        if batch.air:
            base += inlet_vectors * boundary[:, batch.inlet_index, None]
        base *= batch.inv_capacity
        temps = batch.temperatures(y, np.empty_like(y))
        return batch.backend.apply_batch(operators, temps, base)

    state = np.stack([network.initial_state() for network in networks])
    active = np.ones(n_members, dtype=bool)
    failures: dict[int, str] = {}
    buffers = [_TraceBuffers(member, n_outputs) for member in members]
    if stop_at is not None:
        watched = [member_buffers.watch(stop_at) for member_buffers in buffers]
        reached = np.zeros(n_members, dtype=bool)

    time_now = 0.0
    for sample_index in range(n_outputs):
        target = times[sample_index]
        while time_now < target - 1e-9:
            dt = min(step, target - time_now)
            k1 = rhs(state, time_now)
            k2 = rhs(state + 0.5 * dt * k1, time_now + 0.5 * dt)
            k3 = rhs(state + 0.5 * dt * k2, time_now + 0.5 * dt)
            k4 = rhs(state + dt * k3, time_now + dt)
            advanced = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            time_now += dt
            finite = np.all(np.isfinite(advanced), axis=1)
            newly_diverged = active & ~finite
            if np.any(newly_diverged):
                for member_index in np.flatnonzero(newly_diverged):
                    failures[int(member_index)] = (
                        f"non-finite state at t={time_now:.1f}s in network "
                        f"{networks[member_index].name!r}; step {step:.3g}s "
                        f"may be unstable"
                    )
                active &= finite
            state = np.where(active[:, None], advanced, state)
        for member_index in range(n_members):
            if active[member_index]:
                buffers[member_index].record(sample_index, state[member_index], target)
        if stop_at is not None:
            reached |= [trace[sample_index] >= stop_at[1] for trace in watched]
            if np.all(reached | ~active):
                times = times[: sample_index + 1]
                break
    results = [
        buffers[i].result(times) if active[i] else None for i in range(n_members)
    ]
    return BatchTransientResult(results=results, failures=failures)


# -- comparison ----------------------------------------------------------------


def assert_identical(actual: TransientResult, expected: TransientResult) -> None:
    """Every field equal, compared as bytes (so -0.0 and NaN bits count)."""
    assert actual.times_s.tobytes() == expected.times_s.tobytes()
    for field in (
        "temperatures_c",
        "air_temperatures_c",
        "melt_fractions",
        "pcm_enthalpies_j",
    ):
        got, want = getattr(actual, field), getattr(expected, field)
        assert list(got) == list(want), field
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (field, name)
    assert actual.flow_m3_s.tobytes() == expected.flow_m3_s.tobytes()
    assert actual.power_w.tobytes() == expected.power_w.tobytes()


def assert_batches_identical(
    actual: BatchTransientResult, expected: BatchTransientResult
) -> None:
    assert actual.failures == expected.failures
    assert len(actual) == len(expected)
    for got, want in zip(actual.results, expected.results):
        assert (got is None) == (want is None)
        if want is not None:
            assert_identical(got, want)


# -- random networks -------------------------------------------------------------

extras = st.fixed_dictionaries(
    {
        "step_power_w": st.floats(min_value=0.0, max_value=40.0),
        "step_at_s": st.floats(min_value=0.0, max_value=300.0),
        "varying_boundary": st.booleans(),
        "fan_step_at_s": st.one_of(st.none(), st.floats(0.0, 300.0)),
        "second_pcm": st.booleans(),
    }
)


def oracle_network(params: dict, extra: dict, name: str = "random") -> ThermalNetwork:
    """``network_from`` plus a step power schedule, optionally a
    time-varying boundary, a fan schedule and a second PCM node."""
    network = network_from(params, name=name)
    step_w, step_at = extra["step_power_w"], extra["step_at_s"]
    network.add_capacitive_node(
        "stepped", 80.0, 25.0, power_w=lambda t: step_w if t >= step_at else 1.0
    )
    network.add_conductance("stepped", "c0", params["conductance"])
    if extra["varying_boundary"]:
        ambient = params["ambient_c"]
        network.add_boundary_node(
            "skin", lambda t: ambient + 4.0 * math.sin(t / 90.0)
        )
        network.add_conductance("stepped", "skin", 0.3)
    if extra["fan_step_at_s"] is not None and network.air_path is not None:
        fan_at = extra["fan_step_at_s"]
        network.air_path.fan_speed_schedule = lambda t: 0.6 if t < fan_at else 1.0
    if extra["second_pcm"]:
        sample = PCMSample(
            material=commercial_paraffin_with_melting_point(41.0), mass_kg=0.05
        )
        sample.set_temperature(40.0)
        network.add_pcm_node("wax2", sample)
        network.add_conductance("wax2", "stepped", 0.8)
    return network


class TestRandomNetworks:
    @given(params=network_params, extra=extras)
    @settings(max_examples=20, deadline=None)
    def test_single_matches_oracle(self, params, extra):
        result = simulate_transient(
            oracle_network(params, extra), 420.0, output_interval_s=35.0
        )
        expected = oracle_transient(
            oracle_network(params, extra), 420.0, output_interval_s=35.0
        )
        assert_identical(result, expected)

    @given(params=network_params, extra=extras)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_oracle(self, params, extra):
        def members():
            return [
                oracle_network(dict(params, power=params["power"] * scale), extra)
                for scale in (0.5, 1.0, 1.5)
            ]

        result = simulate_transient_batch(members(), 420.0, output_interval_s=35.0)
        expected = oracle_batch(members(), 420.0, output_interval_s=35.0)
        assert_batches_identical(result, expected)


# -- chassis platforms, stops, divergence ------------------------------------------


def chassis_network(platform: str) -> ThermalNetwork:
    """A platform under a step load with a DVFS downclock mid-load."""
    chassis = platform_by_name(platform).chassis
    nominal = chassis.power_model.nominal_frequency_ghz
    low = chassis.power_model.min_frequency_ghz
    return chassis.build_network(
        step_utilization(0.1, 0.9, 900.0, 3000.0),
        frequency_schedule=lambda t: low if 1800.0 <= t < 2400.0 else nominal,
        with_wax=True,
    )


@pytest.mark.parametrize("platform", ["1u", "2u", "ocp"])
def test_chassis_step_dvfs_matches_oracle(platform):
    result = simulate_transient(chassis_network(platform), 3600.0, 300.0)
    expected = oracle_transient(chassis_network(platform), 3600.0, 300.0)
    assert_identical(result, expected)


def test_stop_at_matches_oracle():
    chip = SprintChip()
    stop = ("die", chip.junction_limit_c)
    result = simulate_transient(
        chip.build_network(12.0, 2.0), 120.0, output_interval_s=0.5, stop_at=stop
    )
    expected = oracle_transient(
        chip.build_network(12.0, 2.0), 120.0, output_interval_s=0.5, stop_at=stop
    )
    assert result.times_s[-1] < 120.0
    assert_identical(result, expected)


def test_batch_stop_at_matches_oracle():
    chip = SprintChip()
    stop = ("die", chip.junction_limit_c)

    def members():
        return [chip.build_network(power, 2.0) for power in (10.0, 14.0)]

    result = simulate_transient_batch(
        members(), 120.0, output_interval_s=0.5, stop_at=stop
    )
    expected = oracle_batch(members(), 120.0, output_interval_s=0.5, stop_at=stop)
    assert_batches_identical(result, expected)


def _node_network(name: str, power) -> ThermalNetwork:
    network = ThermalNetwork(name)
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("node", 200.0, 25.0, power_w=power)
    network.add_conductance("node", "ambient", 0.5)
    return network


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_batch_with_diverging_member_matches_oracle():
    def members():
        return [
            _node_network("healthy", 10.0),
            _node_network("unstable", lambda t: np.inf if t >= 45.0 else 10.0),
            _node_network("stepped", lambda t: 30.0 if t >= 60.0 else 5.0),
        ]

    result = simulate_transient_batch(members(), 120.0, output_interval_s=30.0)
    expected = oracle_batch(members(), 120.0, output_interval_s=30.0)
    assert list(result.failures) == [1]
    assert_batches_identical(result, expected)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_single_divergence_raises_like_oracle():
    unstable = lambda t: np.inf if t >= 45.0 else 10.0  # noqa: E731
    with pytest.raises(SolverError) as expected:
        oracle_transient(_node_network("unstable", unstable), 120.0, 30.0)
    with pytest.raises(SolverError) as actual:
        simulate_transient(_node_network("unstable", unstable), 120.0, 30.0)
    assert str(actual.value) == str(expected.value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_overflowing_finite_state_does_not_raise():
    """A finite state whose sum overflows is still finite."""
    from repro.thermal.solver import _all_finite

    assert _all_finite(np.array([1.5e308, 1.5e308, -3.0]))
    assert not _all_finite(np.array([1.0, np.nan]))
    assert not _all_finite(np.array([np.inf, -np.inf]))


# -- the power vector against the per-node closures ------------------------------


def _assert_power_vector_matches_closures(network: ThermalNetwork, times) -> None:
    nodes = [network.capacitive_node(name) for name in network.capacitive_names]
    for time_s in times:
        closures = np.array([node.power_w(time_s) for node in nodes])
        vector = network.power_vector_fn(time_s)
        assert vector.tobytes() == closures.tobytes(), time_s


#: Times on both sides of every schedule step of ``chassis_network``.
STEP_TIMES = (0.0, 899.9, 900.0, 1799.9, 1800.0, 2399.9, 2400.0, 2999.9, 3000.0, 3500.0)


@pytest.mark.parametrize("platform", ["1u", "2u", "ocp"])
@pytest.mark.parametrize("with_wax", [True, False])
def test_chassis_power_vector_matches_closures(platform, with_wax):
    chassis = platform_by_name(platform).chassis
    nominal = chassis.power_model.nominal_frequency_ghz
    low = chassis.power_model.min_frequency_ghz
    network = chassis.build_network(
        step_utilization(0.1, 0.9, 900.0, 3000.0),
        frequency_schedule=lambda t: low if 1800.0 <= t < 2400.0 else nominal,
        with_wax=with_wax,
        placebo=not with_wax,
    )
    _assert_power_vector_matches_closures(network, STEP_TIMES)


@pytest.mark.parametrize("with_wax", [True, False])
def test_reference_power_vector_matches_closures(with_wax):
    utilization = step_utilization(0.0, 1.0, LOAD_START_S, LOAD_END_S)
    network = build_reference_server().build_network(
        utilization, with_wax=with_wax, placebo=not with_wax
    )
    times = (0.0, LOAD_START_S - 1.0, LOAD_START_S, LOAD_END_S - 1.0, LOAD_END_S)
    _assert_power_vector_matches_closures(network, times)


# -- Fig 4's four arms ------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("source", ["reference", "coarse"])
@pytest.mark.parametrize("wax", [True, False])
def test_fig4_arm_matches_oracle(source, wax):
    utilization = step_utilization(0.0, 1.0, LOAD_START_S, LOAD_END_S)

    def network() -> ThermalNetwork:
        if source == "reference":
            return build_reference_server().build_network(
                utilization, with_wax=wax, placebo=not wax
            )
        chassis = (
            platform_by_name("1u")
            .with_wax_material(validation_loadout().material)
            .chassis.with_wax_loadout(validation_loadout())
        )
        return chassis.build_network(utilization, with_wax=wax, placebo=not wax)

    result = simulate_transient(network(), TOTAL_S, 120.0)
    expected = oracle_transient(network(), TOTAL_S, 120.0)
    assert_identical(result, expected)
