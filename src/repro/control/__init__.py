"""Closed-loop datacenter control: monitor -> plan.

The control loop treats the datacenter simulator as the plant: each tick
it reads observed (fault-injected) telemetry, asks a pluggable
:class:`~repro.control.planners.Planner` for a
:class:`~repro.dcsim.throttling.ThrottleDecision`, and hands that
decision to the plant as planned. :mod:`repro.control.tournament` races
every shipped planner, and the paper's own Section 5.2 throttle as
``greedy``, over a shared scenario suite. See ``docs/CONTROL.md``.
"""

from repro.control.loop import ControlLoop, DecisionRecord
from repro.control.planners import (
    MPCPolicy,
    NoOpPlanner,
    Observation,
    Planner,
    ScheduledPolicy,
)

__all__ = [
    "ControlLoop",
    "DecisionRecord",
    "MPCPolicy",
    "NoOpPlanner",
    "Observation",
    "Planner",
    "ScheduledPolicy",
]
