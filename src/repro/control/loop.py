"""The closed control loop: monitor -> plan -> execute.

:class:`ControlLoop` is *policy-shaped*: it implements the same
``decide(state, work_rate) -> ThrottleDecision`` / ``reset()`` protocol
as the throttling policies, so it plugs into every simulation engine
through the existing per-tick policy seam without touching the thermal
core. Every driver (fluid, event, geo) calls ``decide`` through
``simulator._Plant.decide``, which first calls the loop's
``begin_tick(time_s, dt_s)`` hook to hand it the simulation clock.

Per tick:

1. **monitor** — assemble an :class:`~repro.control.planners.
   Observation` from observed telemetry (work rate through the fault
   injector's sensor path; room readings off the — possibly fault-
   derated — room model);
2. **plan** — ask the planner for a
   :class:`~repro.dcsim.throttling.ThrottleDecision`;
3. **execute** — clamp it through the
   :class:`~repro.control.actions.Executor` into the DVFS envelope.

With a no-op planner and no faults the loop is a byte-transparent
wrapper: it reads state, never writes it, and returns exactly the
uninstrumented nominal decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.actions import ActuatorLimits, Executor
from repro.control.planners import Observation, Planner
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import ThrottleDecision
from repro.errors import ControlError
from repro.obs import get_registry


@dataclass(frozen=True)
class DecisionRecord:
    """One tick's decision, as recorded for traces and equivalence tests."""

    time_s: float
    planner: str
    frequency_ghz: float
    utilization_cap: float
    limited: bool


class ControlLoop:
    """Policy-shaped closed loop over the simulator-as-plant.

    Deterministic and seed-free: every decision is a pure function of
    the observed telemetry stream and the planner's internal state, so
    two engines fed bit-identical observations produce bit-identical
    decision logs. The loop builds its executor on its first tick, from
    the plant's power model
    (:meth:`~repro.control.actions.ActuatorLimits.for_power_model`).
    """

    def __init__(self, planner: Planner, room: RoomModel, injector=None) -> None:
        if room is None:
            raise ControlError(
                "the control loop needs a RoomModel: it is the plant "
                "telemetry source and the throttle authority"
            )
        self.planner = planner
        self.room = room
        self.injector = injector
        self.executor: Executor | None = None
        self.decision_log: list[DecisionRecord] = []
        self._time_s: float | None = None
        self._dt_s: float | None = None

    def reset(self) -> None:
        """Fresh loop state between simulation runs."""
        self.planner.reset()
        if self.executor is not None:
            self.executor.reset()
        self.decision_log.clear()
        self._time_s = None
        self._dt_s = None

    # -- engine hook ---------------------------------------------------------

    def begin_tick(self, time_s: float, dt_s: float) -> None:
        """Per-tick clock callback, invoked by every simulation engine."""
        self._time_s = time_s
        self._dt_s = dt_s

    # -- policy protocol -----------------------------------------------------

    def _observe(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> Observation:
        if self._time_s is None:
            raise ControlError(
                "decide() needs the simulation clock: call begin_tick() "
                "first, as simulator._Plant.decide does"
            )
        room = self.room
        return Observation(
            time_s=self._time_s,
            dt_s=self._dt_s,
            work_rate=work_rate,
            state=state,
            room_temperature_c=room.temperature_c,
            room_setpoint_c=room.setpoint_c,
            room_max_temperature_c=room.max_temperature_c,
            cooling_capacity_w=room.cooling_capacity_w,
            thermal_mass_j_per_k=room.thermal_mass_j_per_k,
            fault_effects=(
                self.injector.current if self.injector is not None else None
            ),
        )

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Monitor, plan, execute; returns the clamped decision."""
        obs_registry = get_registry()
        observation = self._observe(state, work_rate)
        planner = self.planner

        with obs_registry.timer(f"control.plan.{planner.name}"):
            planned = planner.plan(observation)

        if self.executor is None:
            self.executor = Executor(
                ActuatorLimits.for_power_model(state.power_model)
            )
        executor = self.executor
        clamps_before = executor.clamp_count
        decision = executor.apply(planned)

        self.decision_log.append(
            DecisionRecord(
                time_s=observation.time_s,
                planner=planner.name,
                frequency_ghz=decision.frequency_ghz,
                utilization_cap=decision.utilization_cap,
                limited=decision.limited,
            )
        )
        if obs_registry.enabled:
            obs_registry.count("control.ticks")
            obs_registry.count(f"control.planner.{planner.name}.plans")
            if executor.clamp_count > clamps_before:
                obs_registry.count("control.executor.clamps")
        return decision
