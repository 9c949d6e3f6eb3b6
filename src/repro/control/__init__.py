"""Closed-loop datacenter control: monitor -> plan -> execute.

The control loop treats the datacenter simulator as the plant: each tick
it reads observed (fault-injected) telemetry, asks a pluggable
:class:`~repro.control.planners.Planner` for a
:class:`~repro.dcsim.throttling.ThrottleDecision`, and clamps it through
the :class:`~repro.control.actions.Executor` into the platform's DVFS
envelope. :mod:`repro.control.tournament` races every shipped planner
over a shared scenario suite. See ``docs/CONTROL.md``.
"""

from repro.control.actions import ActuatorLimits, Executor
from repro.control.loop import ControlLoop, DecisionRecord
from repro.control.planners import (
    GreedyThrottlePolicy,
    MPCPolicy,
    NoOpPlanner,
    Observation,
    Planner,
    ScheduledPolicy,
)

__all__ = [
    "ActuatorLimits",
    "ControlLoop",
    "DecisionRecord",
    "Executor",
    "GreedyThrottlePolicy",
    "MPCPolicy",
    "NoOpPlanner",
    "Observation",
    "Planner",
    "ScheduledPolicy",
]
