"""The RK4 loop against the allocating loop it replaced, byte for byte.

``simulate_transient`` steps on buffers allocated once per run, rebuilds
the time-dependent constants only when the evaluated inputs change,
tests finiteness by one sum, skips the steps of a bit-exact fixed point
and, for inputs certified by their breakpoints, calls no schedule inside
a breakpoint interval. The oracle below is the loop as it stood before
those changes: a fresh array per stage, every step computed, the
constants rebuilt at every evaluation, and an elementwise finiteness
test. Every ``TransientResult`` field must be equal (``==``, compared as
bytes). ``simulate_transient_batch`` runs each member through
``simulate_transient``, so each member must equal its solo run byte for
byte, and a diverged member must carry the solo run's error text.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMSample
from repro.obs import get_registry
from repro.server.chassis import constant_utilization, step_utilization
from repro.server.configs import platform_by_name
from repro.sprinting import SprintChip
from repro.thermal.network import ThermalNetwork, breakpoints_of, tag_breakpoints
from repro.thermal.solver import (
    DEFAULT_STEP_SAFETY,
    BatchTransientResult,
    TransientResult,
    _CompiledNetwork,
    _resolve_step,
    _sample_times,
    _TraceBuffers,
    simulate_transient,
    simulate_transient_batch,
)
from repro.validation.harness import LOAD_END_S, LOAD_START_S, TOTAL_S
from repro.validation.reference import build_reference_server, validation_loadout
from tests.test_server_chassis import minimal_chassis
from tests.test_solver_equivalence import (
    assert_identical,
    network_from,
    network_params,
)

# -- the oracle: the allocating loop -----------------------------------------


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
    operator, inlet_vector = compiled._operator_for_flow(flow)
    if compiled.air_path is not None:
        base += inlet_vector * boundary[compiled.inlet_index]
    base *= compiled.inv_capacity
    return operator, base


def oracle_rhs(compiled: _CompiledNetwork, state: np.ndarray, time_s: float):
    operator, constants = oracle_constants(compiled, time_s)
    derivative = operator @ compiled.temperatures(state)
    derivative += constants
    return derivative


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


# -- comparison ----------------------------------------------------------------


def batch_against_solo_runs(members, *args, **kwargs) -> BatchTransientResult:
    """``simulate_transient_batch`` of ``members()``, checked member by
    member against ``simulate_transient`` of a fresh ``members()[i]`` run
    alone with the same arguments: byte-equal traces, or, where the solo
    run raises ``SolverError``, ``None`` and that error's text in
    ``failures``; and the same PCM enthalpies left in each network."""
    networks = members()
    batch = simulate_transient_batch(networks, *args, **kwargs)
    assert len(batch) == len(networks)
    for index, (network, alone) in enumerate(zip(networks, members())):
        try:
            solo = simulate_transient(alone, *args, **kwargs)
        except SolverError as error:
            assert batch[index] is None
            assert batch.failures[index] == str(error)
        else:
            assert index not in batch.failures
            assert_identical(batch[index], solo)
        for name in alone.pcm_names:
            left = network.pcm_node(name).sample.enthalpy_j
            assert left == alone.pcm_node(name).sample.enthalpy_j, (index, name)
    return batch


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

        batch_against_solo_runs(members, 420.0, output_interval_s=35.0)


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

    result = batch_against_solo_runs(
        members, 120.0, output_interval_s=0.5, stop_at=stop, commit_final_state=True
    )
    # Each member stops at its own first sample at the limit, and commits
    # the enthalpy of its own last step.
    assert result[0].times_s[-1] > result[1].times_s[-1]


def _node_network(name: str, power, capacity: float = 200.0) -> ThermalNetwork:
    network = ThermalNetwork(name)
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("node", capacity, 25.0, power_w=power)
    network.add_conductance("node", "ambient", 0.5)
    return network


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_batch_with_diverging_member_matches_oracle():
    """The step caps reach every member: the 200 J/K members step at
    ``max_step_s`` (15 s, below their 20 s bound at this safety), the
    20 J/K one at its own 2 s bound."""

    def members():
        return [
            _node_network("healthy", 10.0),
            _node_network("unstable", lambda t: np.inf if t >= 45.0 else 10.0),
            _node_network("stepped", lambda t: 30.0 if t >= 60.0 else 5.0, 20.0),
        ]

    result = batch_against_solo_runs(
        members, 120.0, output_interval_s=30.0, max_step_s=15.0, step_safety=0.05
    )
    assert list(result.failures) == [1]


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


# -- fixed points, then a step in power, fan speed or DVFS --------------------
#
# A minimal chassis at a constant load reaches a bit-exact fixed point within
# about 3.7 simulated hours (75 s steps), so the steps after it are skipped.
# Then one input steps inside the first RK4 step at or after 4 h: exactly on
# its start, inside its first half or on its midpoint, or inside its second
# half; a pulse starts in the first half and ends in the second. The 100 s
# output interval is not a multiple of the step.

EVENT_AFTER_S = 4.0 * 3600.0
EVENT_DURATION_S = 4.5 * 3600.0
EVENT_INTERVAL_S = 100.0

#: (start, end) of the event as fractions of the step that meets it;
#: ``None`` for an event that lasts to the end of the run.
EVENT_WINDOWS = {
    "on_step": (0.0, None),
    "first_half": (0.25, None),
    "at_midpoint": (0.5, None),
    "second_half": (0.75, None),
    "pulse": (0.25, 0.75),
}


def window(before: float, inside: float, start_s: float, end_s: float, tagged: bool):
    """A schedule at ``inside`` on ``[start_s, end_s)`` and ``before``
    elsewhere, tagged with its breakpoints or not."""

    def schedule(time_s: float) -> float:
        return inside if start_s <= time_s < end_s else before

    return tag_breakpoints(schedule, (start_s, end_s)) if tagged else schedule


def stepped_network(
    kind: str, start_s: float, end_s: float, tagged: bool
) -> ThermalNetwork:
    """A minimal chassis at a 30% load whose power, fan speed or DVFS
    frequency alone takes another value on ``[start_s, end_s)``."""
    if kind == "power":
        # Fans pinned at full speed, so only the power steps.
        chassis = minimal_chassis(idle_fan_fraction=1.0)
        return chassis.build_network(window(0.3, 0.9, start_s, end_s, tagged))
    chassis = minimal_chassis()
    if kind == "dvfs":
        model = chassis.power_model
        return chassis.build_network(
            constant_utilization(0.3),
            frequency_schedule=window(
                model.nominal_frequency_ghz,
                model.min_frequency_ghz,
                start_s,
                end_s,
                tagged,
            ),
        )
    network = chassis.build_network(constant_utilization(0.3))
    network.air_path.fan_speed_schedule = window(0.7, 1.0, start_s, end_s, tagged)
    return network


def step_grid(
    network: ThermalNetwork, duration_s: float, output_interval_s: float
) -> list[tuple[float, float]]:
    """``(t, dt)`` of every RK4 step ``simulate_transient`` takes."""
    step = _resolve_step(network, DEFAULT_STEP_SAFETY, None, output_interval_s)
    grid, time_now = [], 0.0
    for target in _sample_times(duration_s, output_interval_s):
        while time_now < target - 1e-9:
            dt = min(step, target - time_now)
            grid.append((time_now, dt))
            time_now += dt
    return grid


def event_window(kind: str, when: str) -> tuple[float, float]:
    """The event's ``[start, end)`` on the step grid."""
    probe = stepped_network(kind, math.inf, math.inf, tagged=False)
    grid = step_grid(probe, EVENT_DURATION_S, EVENT_INTERVAL_S)
    time_s, dt = next((t, dt) for t, dt in grid if t >= EVENT_AFTER_S)
    start, end = EVENT_WINDOWS[when]
    return time_s + start * dt, math.inf if end is None else time_s + end * dt


def counted_transient(network: ThermalNetwork, *args, **kwargs):
    """``simulate_transient`` and the counters of that run."""
    obs = get_registry()
    was_enabled = obs.enabled
    obs.enable()
    try:
        with obs.collect() as collection:
            result = simulate_transient(network, *args, **kwargs)
    finally:
        if not was_enabled:
            obs.disable()
    return result, collection.report.counters


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
@pytest.mark.parametrize("when", list(EVENT_WINDOWS))
@pytest.mark.parametrize("kind", ["power", "fan", "dvfs"])
def test_event_after_fixed_point_matches_oracle(kind, when, tagged):
    start_s, end_s = event_window(kind, when)

    def network() -> ThermalNetwork:
        return stepped_network(kind, start_s, end_s, tagged)

    result, counters = counted_transient(
        network(), EVENT_DURATION_S, EVENT_INTERVAL_S
    )
    assert counters["solver.rk4_fixed_steps"] > 0
    assert counters.get("solver.inputs.certified", 0) == int(tagged)
    expected = oracle_transient(network(), EVENT_DURATION_S, EVENT_INTERVAL_S)
    assert_identical(result, expected)


@pytest.mark.parametrize("rise", [1e-16, 1e-15])
def test_step_too_small_to_move_the_state_matches_oracle(rise):
    """A load step that the step meeting it rounds away: that step
    rebuilds the pair but returns its input state, so the step sizes
    verified under the old pair must not carry over to the new one."""
    start_s, end_s = event_window("power", "on_step")

    def network() -> ThermalNetwork:
        utilization = step_utilization(0.3, 0.3 + rise, start_s, end_s)
        return minimal_chassis(idle_fan_fraction=1.0).build_network(utilization)

    result, counters = counted_transient(
        network(), EVENT_DURATION_S, EVENT_INTERVAL_S
    )
    assert counters["solver.rk4_fixed_steps"] > 0
    expected = oracle_transient(network(), EVENT_DURATION_S, EVENT_INTERVAL_S)
    assert_identical(result, expected)


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
def test_stop_inside_fixed_point_matches_oracle(tagged):
    """The run stops at the first sample of its fixed point, after steps
    of that sample's interval were skipped."""

    def network() -> ThermalNetwork:
        utilization = constant_utilization(0.3) if tagged else lambda _t: 0.3
        return minimal_chassis().build_network(utilization)

    duration_s, interval_s = 6.0 * 3600.0, 1000.0
    settled = simulate_transient(network(), duration_s, interval_s)
    stop = ("psu", float(settled.temperatures_c["psu"][-1]))
    result, counters = counted_transient(
        network(), duration_s, interval_s, stop_at=stop
    )
    assert result.times_s[-1] < duration_s
    assert counters["solver.rk4_fixed_steps"] > 0
    expected = oracle_transient(network(), duration_s, interval_s, stop_at=stop)
    assert_identical(result, expected)


def test_commit_after_fixed_point_matches_oracle():
    """A solid wax node settles too, and its final enthalpy is committed."""

    def network() -> ThermalNetwork:
        network = minimal_chassis().build_network(constant_utilization(0.3))
        sample = PCMSample(
            material=commercial_paraffin_with_melting_point(60.0), mass_kg=0.05
        )
        sample.set_temperature(25.0)
        network.add_pcm_node("wax", sample)
        network.add_conductance("wax", "cpu", 2.0)
        return network

    committed = network()
    result, counters = counted_transient(
        committed, 6.0 * 3600.0, 300.0, commit_final_state=True
    )
    assert counters["solver.rk4_fixed_steps"] > 0
    expected = oracle_transient(network(), 6.0 * 3600.0, 300.0)
    assert_identical(result, expected)
    final = expected.pcm_enthalpies_j["wax"][-1]
    assert committed.pcm_node("wax").sample.enthalpy_j == final


@given(
    start_s=st.floats(min_value=3.5 * 3600.0, max_value=4.2 * 3600.0),
    length_s=st.one_of(st.floats(min_value=1.0, max_value=300.0), st.just(math.inf)),
    idle=st.floats(min_value=0.0, max_value=1.0),
    loaded=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_step_utilization_windows_match_oracle(start_s, length_s, idle, loaded):
    """Any load window after the idle fixed point, on a chassis whose fans
    follow the load."""

    def network() -> ThermalNetwork:
        utilization = step_utilization(idle, loaded, start_s, start_s + length_s)
        return minimal_chassis().build_network(utilization)

    result = simulate_transient(network(), EVENT_DURATION_S, EVENT_INTERVAL_S)
    expected = oracle_transient(network(), EVENT_DURATION_S, EVENT_INTERVAL_S)
    assert_identical(result, expected)


# -- breakpoints -------------------------------------------------------------------


class TestBreakpoints:
    def test_untagged_schedules_give_none(self):
        chassis = minimal_chassis()
        nominal = chassis.power_model.nominal_frequency_ghz
        loaded = step_utilization(0.1, 0.9, 600.0, 1200.0)
        user_frequency = chassis.build_network(
            loaded, frequency_schedule=lambda _t: nominal
        )
        assert breakpoints_of(user_frequency.power_vector_fn) is None
        assert _CompiledNetwork(user_frequency).breakpoints is None

        untagged_power = _node_network("node", lambda t: 10.0 if t < 60.0 else 20.0)
        assert breakpoints_of(untagged_power.capacitive_node("node").power_w) is None
        assert _CompiledNetwork(untagged_power).breakpoints is None

        varying_boundary = chassis.build_network(loaded)
        varying_boundary.add_boundary_node("skin", lambda t: 25.0 + t / 3600.0)
        varying_boundary.add_conductance("skin", "board", 0.3)
        skin = varying_boundary.boundary_node("skin").temperature_c
        assert breakpoints_of(skin) is None
        assert _CompiledNetwork(varying_boundary).breakpoints is None

    def test_tagged_schedules_give_sorted_union(self):
        assert breakpoints_of() == ()
        assert breakpoints_of(constant_utilization(0.5)) == ()
        assert breakpoints_of(
            step_utilization(0.0, 1.0, 7200.0, 9000.0),
            constant_utilization(0.5),
            step_utilization(0.0, 1.0, 3600.0, 7200.0),
        ) == (3600.0, 7200.0, 9000.0)
        assert breakpoints_of(lambda _t: 1.0, constant_utilization(0.5)) is None

        chassis = minimal_chassis()
        model = chassis.power_model
        frequency = window(
            model.nominal_frequency_ghz, model.min_frequency_ghz, 1500.0, math.inf, True
        )
        network = chassis.build_network(
            step_utilization(0.1, 0.9, 1800.0, 3600.0), frequency_schedule=frequency
        )
        assert breakpoints_of(network.power_vector_fn) == (
            1500.0, 1800.0, 3600.0, math.inf
        )
        fan = network.air_path.fan_speed_schedule
        assert breakpoints_of(fan) == (1800.0, 3600.0)
        network.air_path.fan_speed_schedule = tag_breakpoints(
            lambda t: 1.0 if t >= 600.0 else 0.7, (600.0,)
        )
        assert _CompiledNetwork(network).breakpoints == (
            600.0, 1500.0, 1800.0, 3600.0, math.inf
        )

    def test_default_schedules_are_tagged(self):
        network = minimal_chassis().build_network(constant_utilization(0.5))
        assert breakpoints_of(network.power_vector_fn) == ()
        assert _CompiledNetwork(network).breakpoints == ()
        reference = build_reference_server().build_network(
            step_utilization(0.0, 1.0, LOAD_START_S, LOAD_END_S), with_wax=True
        )
        assert _CompiledNetwork(reference).breakpoints == (LOAD_START_S, LOAD_END_S)
