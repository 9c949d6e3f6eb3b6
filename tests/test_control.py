"""Control-loop unit and oracle tests: actuators, loop wiring, planners.

The two structural guarantees the subsystem rests on are proven here:

* **Transparency** — a :class:`~repro.control.ControlLoop` wrapping the
  no-op planner, with no faults scheduled, is *byte-identical* to the
  uninstrumented simulator on the fluid engine and on both event
  engines (the controller reads state, never invents actions).
* **Port fidelity** — :class:`~repro.control.GreedyThrottlePolicy` is
  decision-identical to the legacy
  ``FaultResponsePolicy(RoomTemperaturePolicy(room))`` stack it
  replaces, across chaos fault schedules.

Plus the cross-engine equivalence satellite: each shipped planner makes
bit-identical decision traces on ``reference`` and ``batched`` engines.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ActuatorLimits,
    ControlLoop,
    Executor,
    GreedyThrottlePolicy,
    MPCPolicy,
    NoOpPlanner,
    Observation,
    ScheduledPolicy,
)
from repro.control.tournament import control_policy_factory
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import ThrottleDecision
from repro.errors import ConfigurationError, ControlError
from repro.faults.chaos import (
    ChaosConfig,
    build_simulator,
    check_engine_agreement,
    identical_results,
    random_schedule,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    COOLING_LOSS,
    SENSOR_DROPOUT,
    Fault,
    FaultSchedule,
)
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.units import hours


def small_config(**overrides) -> ChaosConfig:
    """The cheap plant every test here runs on (~300 ticks)."""
    defaults = dict(
        server_count=8,
        duration_s=hours(10.0),
        tick_interval_s=120.0,
        fault_start_s=hours(1.0),
        fault_end_s=hours(5.0),
        max_fault_s=hours(2.0),
        quiet_from_s=hours(6.0),
        relax_s=hours(2.0),
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def loop_factory(planner_factory):
    """build_simulator policy_factory wiring one planner into a loop."""

    def factory(room, injector):
        return ControlLoop(planner_factory(), room, injector=injector)

    return factory


# -- actuator layer ----------------------------------------------------------


class TestActuatorLimits:
    def test_rejects_bad_envelopes(self):
        with pytest.raises(ControlError):
            ActuatorLimits(min_frequency_ghz=2.0, max_frequency_ghz=1.0)

    def test_for_power_model_pins_dvfs_ladder(self, one_u_spec):
        limits = ActuatorLimits.for_power_model(one_u_spec.power_model)
        assert limits.min_frequency_ghz == one_u_spec.power_model.min_frequency_ghz
        assert (
            limits.max_frequency_ghz
            == one_u_spec.power_model.nominal_frequency_ghz
        )


class TestExecutor:
    @pytest.fixture
    def limits(self):
        return ActuatorLimits(min_frequency_ghz=1.6, max_frequency_ghz=2.4)

    def test_clamps_into_envelope(self, limits):
        executor = Executor(limits)
        decision = executor.apply(
            ThrottleDecision(frequency_ghz=3.5, utilization_cap=1.7)
        )
        assert decision.frequency_ghz == 2.4
        assert decision.utilization_cap == 1.0
        assert executor.clamp_count == 1

        decision = executor.apply(
            ThrottleDecision(frequency_ghz=0.5, utilization_cap=-0.2)
        )
        assert decision.frequency_ghz == 1.6
        assert decision.utilization_cap == 0.0
        assert decision.limited

    def test_nominal_passes_through_exactly(self, limits):
        executor = Executor(limits)
        decision = executor.apply(ThrottleDecision(frequency_ghz=2.4))
        assert decision.frequency_ghz == 2.4
        assert not decision.limited
        assert executor.clamp_count == 0


# -- loop wiring -------------------------------------------------------------


class TestControlLoopWiring:
    def test_requires_a_room(self):
        with pytest.raises(ControlError):
            ControlLoop(NoOpPlanner(), room=None)

    def test_unknown_tournament_planner_rejected(self):
        with pytest.raises(ControlError):
            control_policy_factory("nonexistent")

    def test_decision_log_and_obs_counters(self):
        config = small_config()
        sim = build_simulator(config, policy_factory=loop_factory(NoOpPlanner))
        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            sim.run()
            snapshot = registry.snapshot()
        finally:
            registry.disable()
            registry.reset()
        loop = sim.policy
        assert len(loop.decision_log) == len(sim._tick_times())
        assert all(r.planner == "noop" for r in loop.decision_log)
        counters = snapshot.counters
        assert counters["control.ticks"] == len(loop.decision_log)
        assert counters["control.planner.noop.plans"] == counters[
            "control.ticks"
        ]
        assert any("control.plan.noop" in name for name in snapshot.timers)

    def test_decide_before_begin_tick_raises(self):
        """The loop reads its clock from the engine hook and has no other."""
        loop = ControlLoop(ScheduledPolicy(), RoomModel(cooling_capacity_w=1e5))
        config = small_config()
        state = build_simulator(config)._make_state()  # a real thermal state
        work = np.full(config.server_count, 0.5)
        with pytest.raises(ControlError):
            loop.decide(state, work)

        loop.begin_tick(hours(23.0), config.tick_interval_s)
        decision = loop.decide(state, work)  # inside the 22 -> 6 window
        assert decision.frequency_ghz == state.power_model.min_frequency_ghz
        assert loop.decision_log[-1].time_s == hours(23.0)

        loop.reset()  # a new run starts without a clock
        with pytest.raises(ControlError):
            loop.decide(state, work)


# -- transparency oracle (satellite) -----------------------------------------


class TestTransparencyOracle:
    def test_fluid_engine_byte_identical(self):
        config = small_config()
        plain = build_simulator(config).run()
        controlled = build_simulator(
            config, policy_factory=loop_factory(NoOpPlanner)
        ).run()
        assert identical_results(plain, controlled)

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_event_engines_byte_identical(self, engine):
        config = small_config(mode="event", engine=engine)
        plain = build_simulator(config).run()
        controlled = build_simulator(
            config, policy_factory=loop_factory(NoOpPlanner)
        ).run()
        assert identical_results(plain, controlled)


# -- greedy port fidelity ----------------------------------------------------


class TestGreedyPortFidelity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_byte_identical_to_legacy_stack_under_chaos(self, seed):
        config = small_config()
        schedule = random_schedule(seed, config)
        legacy = build_simulator(config, FaultInjector(schedule)).run()
        ported = build_simulator(
            config,
            FaultInjector(schedule),
            policy_factory=loop_factory(GreedyThrottlePolicy),
        ).run()
        assert identical_results(legacy, ported)

    def test_byte_identical_on_override_branches(self):
        """Pinned dropout + severe cooling loss hit the folded-in paths."""
        config = small_config()
        schedule = FaultSchedule(
            (
                Fault(SENSOR_DROPOUT, hours(1.0), hours(2.0)),
                Fault(COOLING_LOSS, hours(2.5), hours(4.5), 0.7),
            ),
            name="overrides",
        )
        legacy = build_simulator(config, FaultInjector(schedule)).run()
        ported = build_simulator(
            config,
            FaultInjector(schedule),
            policy_factory=loop_factory(GreedyThrottlePolicy),
        ).run()
        assert identical_results(legacy, ported)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ControlError):
            GreedyThrottlePolicy(deadband_c=-1.0)
        with pytest.raises(ControlError):
            GreedyThrottlePolicy(deadband_c=math.nan)
        with pytest.raises(ControlError):
            GreedyThrottlePolicy(emergency_capacity_factor=1.5)


# -- cross-engine control equivalence (satellite) ----------------------------


PLANNER_FACTORIES = {
    "greedy": GreedyThrottlePolicy,
    "scheduled": ScheduledPolicy,
    "mpc": lambda: MPCPolicy(horizon_ticks=4),
}


class TestCrossEngineControlEquivalence:
    @pytest.mark.parametrize("planner", sorted(PLANNER_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_engine_agreement_with_control_loop(self, planner, seed):
        config = small_config(mode="event")
        assert check_engine_agreement(
            config,
            seed=seed,
            policy_factory=loop_factory(PLANNER_FACTORIES[planner]),
        )

    @pytest.mark.parametrize("planner", sorted(PLANNER_FACTORIES))
    def test_decision_traces_identical_across_engines(self, planner):
        config = small_config(mode="event")
        schedule = random_schedule(3, config)
        logs = []
        for engine in ("batched", "reference"):
            sim = build_simulator(
                replace(config, engine=engine),
                FaultInjector(schedule),
                policy_factory=loop_factory(PLANNER_FACTORIES[planner]),
            )
            sim.run()
            logs.append(list(sim.policy.decision_log))
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0


# -- scheduled policy --------------------------------------------------------


class TestScheduledPolicy:
    def test_wraparound_window(self):
        policy = ScheduledPolicy(
            throttle_start_hour=22.0, throttle_end_hour=6.0
        )
        assert policy._in_window(23.0)
        assert policy._in_window(2.0)
        assert not policy._in_window(12.0)

    def test_rejects_out_of_range_hours(self):
        with pytest.raises(ControlError):
            ScheduledPolicy(throttle_start_hour=25.0)


class TestMPCPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ControlError):
            MPCPolicy(horizon_ticks=0)
        with pytest.raises(ControlError):
            MPCPolicy(shed_penalty_usd_per_server_hour=-1.0)
        with pytest.raises(ControlError):
            MPCPolicy(overheat_penalty_usd_per_c_hour=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon_ticks": 2.5},
            {"horizon_ticks": math.nan},
            {"shed_penalty_usd_per_server_hour": math.nan},
            {"shed_penalty_usd_per_server_hour": math.inf},
            {"overheat_penalty_usd_per_c_hour": math.nan},
            {"overheat_penalty_usd_per_c_hour": math.inf},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejects_nan_and_fractional_parameters(self, kwargs):
        with pytest.raises(ControlError):
            MPCPolicy(**kwargs)

    def test_accepts_an_integer_horizon(self):
        assert MPCPolicy(horizon_ticks=np.int64(3)).horizon_ticks == 3


@contextmanager
def _rollout_paths():
    """Collect the MPC rollout path counters of the body."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    try:
        with registry.collect() as collection:
            yield collection
    finally:
        if not was_enabled:
            registry.disable()


def _paths(collection):
    counters = collection.report.counters
    return (
        counters.get("control.mpc.rollout.column", 0),
        counters.get("control.mpc.rollout.array", 0),
    )


def _observation(state, work, capacity_w, **overrides):
    fields = dict(
        time_s=hours(14.0),
        dt_s=60.0,
        work_rate=np.full(state.server_count, work),
        state=state,
        room_temperature_c=27.0,
        room_setpoint_c=25.0,
        room_max_temperature_c=35.0,
        cooling_capacity_w=capacity_w,
        thermal_mass_j_per_k=500.0 * state.server_count,
    )
    fields.update(overrides)
    return Observation(**fields)


def _rollout(policy, obs):
    frequencies, caps = policy._candidate_sequences(obs)
    return frequencies, caps, policy._rollout_cost(
        obs, frequencies, caps, policy._forecast(obs)
    )


class TestMPCColumnRollout:
    """A uniform observed state rolls every candidate forward as one
    server column; its cost vector must equal the array clone's bit for
    bit."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_column_costs_equal_the_array_rollout(
        self, one_u_spec, one_u_characterization, data
    ):
        model = one_u_spec.power_model
        material = commercial_paraffin_with_melting_point(
            data.draw(st.floats(36.0, 60.0), label="melting point")
        )
        fusion = material.heat_of_fusion_j_per_kg
        servers = data.draw(st.sampled_from([1, 8, 1008]), label="servers")
        state = ClusterThermalState(
            one_u_characterization,
            model,
            material,
            server_count=servers,
            wax_enabled=data.draw(st.booleans(), label="wax"),
        )
        # Solid, mushy and liquid, with both phase boundaries exactly.
        state.specific_enthalpy_j_per_kg[:] = data.draw(
            st.one_of(
                st.just(0.0), st.just(fusion), st.floats(-1e5, fusion + 1e5)
            ),
            label="enthalpy",
        )
        state.zone_temperature_c[:] = data.draw(st.floats(20.0, 70.0))
        # Live fault scales on the observed state: the clone ignores them.
        state.set_fault_scales(
            ua_scale=data.draw(
                st.one_of(st.just(1.0), st.floats(0.05, 1.0)), label="ua scale"
            ),
            wax_capacity_factor=data.draw(
                st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
                label="wax capacity",
            ),
        )
        work = data.draw(st.floats(0.0, 1.2), label="work")
        # Below the min-frequency release the shed candidate joins.
        capacity = data.draw(st.floats(0.05, 1.2)) * servers * model.peak_power_w
        obs = _observation(
            state,
            work,
            capacity,
            time_s=data.draw(st.floats(0.0, hours(48.0)), label="time"),
            room_temperature_c=data.draw(st.floats(24.0, 40.0), label="room"),
        )
        policy = MPCPolicy(horizon_ticks=data.draw(st.integers(1, 8)))

        with _rollout_paths() as collection:
            frequencies, caps, column = _rollout(policy, obs)
        assert _paths(collection) == (1, 0)
        with mock.patch.object(state, "is_uniform", return_value=False):
            with _rollout_paths() as collection:
                array = policy._rollout_cost(
                    obs, frequencies, caps, policy._forecast(obs)
                )
        assert _paths(collection) == (0, 1)
        assert column.tobytes() == array.tobytes()

    def test_the_shed_candidate_rolls_on_the_column(
        self, one_u_spec, one_u_characterization
    ):
        model = one_u_spec.power_model
        state = ClusterThermalState(
            one_u_characterization,
            model,
            commercial_paraffin_with_melting_point(43.0),
            server_count=1008,
        )
        obs = _observation(state, 0.9, 0.3 * 1008 * model.peak_power_w)
        policy = MPCPolicy()
        with _rollout_paths() as collection:
            frequencies, caps, column = _rollout(policy, obs)
        assert _paths(collection) == (1, 0)
        assert len(caps) == 6 and caps[-1] < 1.0
        with mock.patch.object(state, "is_uniform", return_value=False):
            array = policy._rollout_cost(
                obs, frequencies, caps, policy._forecast(obs)
            )
        assert column.tobytes() == array.tobytes()

    def test_one_ulp_off_takes_the_array_path(
        self, one_u_spec, one_u_characterization
    ):
        model = one_u_spec.power_model
        state = ClusterThermalState(
            one_u_characterization,
            model,
            commercial_paraffin_with_melting_point(43.0),
            server_count=8,
        )
        enthalpy = state.specific_enthalpy_j_per_kg
        enthalpy[3] = np.nextafter(enthalpy[3], np.inf)
        obs = _observation(state, 0.7, 8 * model.peak_power_w)
        with _rollout_paths() as collection:
            _rollout(MPCPolicy(), obs)
        assert _paths(collection) == (0, 1)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_nan_busy_fraction_raises_on_both_paths(
        self, one_u_spec, one_u_characterization, uniform
    ):
        model = one_u_spec.power_model
        state = ClusterThermalState(
            one_u_characterization,
            model,
            commercial_paraffin_with_melting_point(43.0),
            server_count=8,
        )
        if not uniform:
            state.zone_temperature_c[0] += 0.25
        obs = _observation(state, 0.5, 8 * model.peak_power_w)
        policy = MPCPolicy(horizon_ticks=4)
        frequencies, caps = policy._candidate_sequences(obs)
        with pytest.raises(ConfigurationError):
            policy._rollout_cost(obs, frequencies, caps, np.full(4, np.nan))
