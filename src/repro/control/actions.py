"""The actuator layer: the envelope every planned decision is clamped into.

A :class:`~repro.control.planners.Planner` expresses *intent* — an
operating point it would like the plant to adopt, as a
:class:`~repro.dcsim.throttling.ThrottleDecision`. The plant's DVFS
ladder has hard limits the planner may not respect, so every decision
passes through an :class:`Executor` that clamps it into the feasible
envelope before it reaches the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dcsim.throttling import ThrottleDecision
from repro.errors import ControlError
from repro.server.power import ServerPowerModel


@dataclass(frozen=True)
class ActuatorLimits:
    """The feasible DVFS envelope the executor clamps decisions into."""

    min_frequency_ghz: float
    max_frequency_ghz: float

    def __post_init__(self) -> None:
        if not 0.0 < self.min_frequency_ghz <= self.max_frequency_ghz:
            raise ControlError(
                "frequency limits must satisfy 0 < min <= max, got "
                f"[{self.min_frequency_ghz}, {self.max_frequency_ghz}]"
            )

    @classmethod
    def for_power_model(cls, power_model: ServerPowerModel) -> "ActuatorLimits":
        """Limits matching a platform's DVFS ladder, min bin to nominal."""
        return cls(
            min_frequency_ghz=power_model.min_frequency_ghz,
            max_frequency_ghz=power_model.nominal_frequency_ghz,
        )


class Executor:
    """Applies a planned decision to the plant, clamped to limits.

    The frequency is clamped into the DVFS envelope and the utilization
    cap into [0, 1]; a decision below the top bin is marked limited.
    """

    def __init__(self, limits: ActuatorLimits) -> None:
        self.limits = limits
        #: Clamp events over the current run (frequency or cap requests
        #: that had to be altered to fit the envelope).
        self.clamp_count = 0

    def reset(self) -> None:
        """Clear the clamp counter between runs."""
        self.clamp_count = 0

    def apply(self, decision: ThrottleDecision) -> ThrottleDecision:
        """Clamp a planned decision into the envelope."""
        limits = self.limits
        frequency = min(
            max(decision.frequency_ghz, limits.min_frequency_ghz),
            limits.max_frequency_ghz,
        )
        cap = min(max(decision.utilization_cap, 0.0), 1.0)
        if frequency != decision.frequency_ghz or cap != decision.utilization_cap:
            self.clamp_count += 1

        limited = decision.limited or frequency < limits.max_frequency_ghz - 1e-12
        return ThrottleDecision(
            frequency_ghz=frequency, utilization_cap=cap, limited=limited
        )
