"""Quasi-steady airflow network: fans, impedance, blockage, stream segments.

The paper's Icepak models resolve airflow through each chassis and show how
wax containers (and, in controlled experiments, uniform grilles) block that
flow and raise temperatures (Figure 7). We reproduce the same behaviour with
the classic fan-curve / system-impedance construction:

* each fan follows a quadratic fan curve
  ``dP = dP_max * (1 - (q / q_max)^2)``;
* the chassis presents a quadratic system impedance ``dP = k * Q^2``;
* blockage with free-area ratio ``f`` adds an orifice term
  ``k_blockage = rho / (2 * (Cd * A * f)^2)``;
* the operating flow is the intersection of the two curves (closed form).

Air is then advected front-to-rear through an ordered list of
:class:`AirSegment` stream segments. Air heat capacity is negligible next
to the metal and wax, so each segment's well-mixed temperature is computed
algebraically from an energy balance at every solver step (quasi-steady
treatment) rather than integrated as a state variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.thermal.convection import ConvectiveCoupling
from repro.units import AIR_DENSITY


@dataclass(frozen=True)
class FanCurve:
    """Quadratic pressure-flow characteristic of a single fan.

    Parameters
    ----------
    max_pressure_pa:
        Shut-off (zero-flow) static pressure, Pa.
    max_flow_m3_s:
        Free-delivery (zero-pressure) volumetric flow, m^3/s.
    """

    max_pressure_pa: float
    max_flow_m3_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_pressure_pa < math.inf:
            raise ConfigurationError(
                "fan shut-off pressure must be positive and finite, got "
                f"{self.max_pressure_pa}"
            )
        if not 0.0 < self.max_flow_m3_s < math.inf:
            raise ConfigurationError(
                "fan free-delivery flow must be positive and finite, got "
                f"{self.max_flow_m3_s}"
            )

    def pressure_at_flow(self, flow_m3_s: float, speed_fraction: float = 1.0) -> float:
        """Static pressure developed at a given flow and speed fraction.

        Fan affinity laws: flow scales with speed, pressure with speed^2.
        Flows beyond free delivery return negative pressure (the fan acts as
        a restriction), which the operating-point solver never selects.
        """
        if not 0.0 < speed_fraction < math.inf:
            raise ConfigurationError(
                f"fan speed fraction must be positive and finite, got {speed_fraction}"
            )
        scaled_max_flow = self.max_flow_m3_s * speed_fraction
        scaled_max_pressure = self.max_pressure_pa * speed_fraction**2
        return scaled_max_pressure * (1.0 - (flow_m3_s / scaled_max_flow) ** 2)


@dataclass(frozen=True)
class FanBank:
    """A set of identical fans operating in parallel.

    Parallel fans each see the full system pressure and contribute equal
    shares of the total flow.
    """

    curve: FanCurve
    count: int
    power_per_fan_w: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.count < math.inf:
            raise ConfigurationError(
                f"fan count must be positive and finite, got {self.count}"
            )
        if not 0.0 <= self.power_per_fan_w < math.inf:
            raise ConfigurationError(
                f"fan power must be non-negative and finite, got {self.power_per_fan_w}"
            )

    @property
    def total_power_w(self) -> float:
        """Aggregate electrical power of the bank at full speed."""
        return self.count * self.power_per_fan_w

    def max_flow_m3_s(self, speed_fraction: float = 1.0) -> float:
        """Aggregate free-delivery flow of the bank."""
        return self.count * self.curve.max_flow_m3_s * speed_fraction

    def pressure_at_flow(self, total_flow_m3_s: float, speed_fraction: float = 1.0) -> float:
        """Pressure developed when the bank moves a total flow."""
        per_fan_flow = total_flow_m3_s / self.count
        return self.curve.pressure_at_flow(per_fan_flow, speed_fraction)

    def with_failed_fans(self, failed: int) -> "FanBank":
        """The bank with ``failed`` fans seized (used by fault injection).

        A seized rotor in a parallel bank is treated as removed: the
        survivors each still see the full system pressure, so the bank
        is simply smaller. At least one fan must survive — a chassis
        with zero moving fans has no forced-convection operating point.
        """
        if not 0 <= failed:
            raise ConfigurationError(
                f"failed fan count must be non-negative, got {failed}"
            )
        if failed >= self.count:
            raise ConfigurationError(
                f"cannot fail {failed} of {self.count} fans: at least one "
                "fan must survive"
            )
        if failed == 0:
            return self
        return FanBank(
            curve=self.curve,
            count=self.count - failed,
            power_per_fan_w=self.power_per_fan_w,
        )


@dataclass(frozen=True)
class SystemImpedance:
    """Quadratic chassis flow resistance ``dP = k * Q^2``.

    ``coefficient_pa_s2_per_m6`` is the base (unblocked) chassis impedance;
    additional blockage terms are summed on top of it.
    """

    coefficient_pa_s2_per_m6: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coefficient_pa_s2_per_m6 < math.inf:
            raise ConfigurationError(
                "impedance coefficient must be non-negative and finite, got "
                f"{self.coefficient_pa_s2_per_m6}"
            )

    def pressure_drop(self, flow_m3_s: float) -> float:
        """Pressure drop across the chassis at a flow."""
        return self.coefficient_pa_s2_per_m6 * flow_m3_s**2

    def with_added(self, extra_coefficient: float) -> "SystemImpedance":
        """Impedance with an additional series restriction."""
        if not 0.0 <= extra_coefficient < math.inf:
            raise ConfigurationError(
                "added impedance must be non-negative and finite, got "
                f"{extra_coefficient}"
            )
        return SystemImpedance(self.coefficient_pa_s2_per_m6 + extra_coefficient)


def blockage_impedance_coefficient(
    free_area_m2: float,
    blocked_fraction: float,
    discharge_coefficient: float = 0.62,
) -> float:
    """Orifice impedance added by blocking a fraction of a flow cross-section.

    A grille or a row of wax boxes that blocks fraction ``b`` of a duct of
    cross-section ``A`` leaves an orifice of area ``A * (1 - b)``. The
    incompressible orifice equation gives
    ``dP = rho / 2 * (Q / (Cd * A * (1 - b)))^2``, i.e. a quadratic
    impedance coefficient ``rho / (2 * (Cd * A * (1-b))^2)``.

    To model only the *added* restriction (an unblocked duct already carries
    the base chassis impedance), the coefficient of the empty cross-section
    is subtracted, so ``blocked_fraction = 0`` adds exactly zero.
    """
    if not 0.0 < free_area_m2 < math.inf:
        raise ConfigurationError(
            f"duct area must be positive and finite, got {free_area_m2}"
        )
    if not 0.0 <= blocked_fraction < 1.0:
        raise ConfigurationError(
            f"blocked fraction must be in [0, 1), got {blocked_fraction}"
        )
    if not 0.0 < discharge_coefficient <= 1.0:
        raise ConfigurationError(
            f"discharge coefficient must be in (0, 1], got {discharge_coefficient}"
        )

    def orifice_k(open_area: float) -> float:
        return AIR_DENSITY / (2.0 * (discharge_coefficient * open_area) ** 2)

    open_area = free_area_m2 * (1.0 - blocked_fraction)
    return orifice_k(open_area) - orifice_k(free_area_m2)


def operating_flow(
    fans: FanBank,
    impedance: SystemImpedance,
    speed_fraction: float = 1.0,
) -> float:
    """Operating volumetric flow: intersection of fan curve and impedance.

    With a quadratic fan curve and a quadratic impedance the intersection
    has the closed form
    ``Q = sqrt(P_max / (k + P_max / Q_free^2))``
    where ``P_max`` and ``Q_free`` are the bank's speed-scaled shut-off
    pressure and free-delivery flow.
    """
    if not 0.0 < speed_fraction < math.inf:
        raise ConfigurationError(
            f"fan speed fraction must be positive and finite, got {speed_fraction}"
        )
    max_pressure = fans.curve.max_pressure_pa * speed_fraction**2
    free_flow = fans.max_flow_m3_s(speed_fraction)
    k = impedance.coefficient_pa_s2_per_m6
    return math.sqrt(max_pressure / (k + max_pressure / free_flow**2))


def degraded_flow_fraction(
    fans: FanBank,
    impedance: SystemImpedance,
    failed_fans: int = 0,
    speed_fraction: float = 1.0,
) -> float:
    """Fraction of healthy full-speed flow a degraded bank still moves.

    The physical anchor for the fault injector's fan-derate magnitude:
    fail ``failed_fans`` rotors and/or slow the survivors to
    ``speed_fraction``, re-intersect the (smaller, slower) bank with the
    unchanged chassis impedance, and compare against the healthy
    operating point. Always in ``(0, 1]``; exactly 1.0 when nothing is
    degraded.
    """
    healthy = operating_flow(fans, impedance, 1.0)
    degraded = operating_flow(
        fans.with_failed_fans(failed_fans), impedance, speed_fraction
    )
    return degraded / healthy


@dataclass
class AirSegment:
    """A well-mixed stream segment of the front-to-rear air path.

    Components thermally coupled to the segment exchange heat with its
    well-mixed air temperature through flow-dependent convective
    conductances. Segments are traversed in order; each segment's outlet
    feeds the next segment's inlet.
    """

    name: str
    couplings: list[ConvectiveCoupling] = field(default_factory=list)

    def couple(self, coupling: ConvectiveCoupling) -> None:
        """Attach a component coupling to this segment."""
        if any(c.node_name == coupling.node_name for c in self.couplings):
            raise ConfigurationError(
                f"segment {self.name!r} already couples node "
                f"{coupling.node_name!r}"
            )
        self.couplings.append(coupling)

    def mixed_temperature(
        self,
        inlet_temperature_c: float,
        node_temperatures: dict[str, float],
        flow_m3_s: float,
        capacity_rate_w_per_k: float,
    ) -> float:
        """Well-mixed segment air temperature from a quasi-steady balance.

        Energy balance with the segment fully mixed at temperature ``T_a``::

            m_dot * cp * (T_a - T_in) = sum_i G_i(Q) * (T_i - T_a)

        which solves to a conductance-weighted mean of the inlet air and the
        coupled component temperatures.
        """
        numerator = capacity_rate_w_per_k * inlet_temperature_c
        denominator = capacity_rate_w_per_k
        for coupling in self.couplings:
            conductance = coupling.conductance_at_flow(flow_m3_s)
            numerator += conductance * node_temperatures[coupling.node_name]
            denominator += conductance
        return numerator / denominator


@dataclass
class AirPath:
    """The complete front-to-rear airflow system of a chassis.

    Combines a fan bank, a base chassis impedance plus any added blockage,
    and the ordered stream segments. ``fan_speed_schedule`` maps simulation
    time to a speed fraction, modeling the idle/loaded fan step the paper
    uses ("fans are modeled as a time-based step function between the idle
    and loaded speeds").
    """

    fans: FanBank
    base_impedance: SystemImpedance
    segments: list[AirSegment]
    duct_area_m2: float
    added_blockage_fraction: float = 0.0
    fan_speed_schedule: Callable[[float], float] | None = None
    #: Memo of the last (speed fraction, operating flow) pair; the fan
    #: schedule is piecewise constant, so the solver's per-step flow
    #: lookups almost always hit. Instance-local; ``with_blockage`` copies
    #: start with a cold cache.
    _flow_cache: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _impedance_cache: SystemImpedance | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("an air path needs at least one segment")
        if not 0.0 < self.duct_area_m2 < math.inf:
            raise ConfigurationError(
                f"duct area must be positive and finite, got {self.duct_area_m2}"
            )
        if not 0.0 <= self.added_blockage_fraction < 1.0:
            raise ConfigurationError(
                "blockage fraction must be in [0, 1), got "
                f"{self.added_blockage_fraction}"
            )
        names = [segment.name for segment in self.segments]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate segment names: {names}")

    def segment(self, name: str) -> AirSegment:
        """Look up a stream segment by name."""
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise ConfigurationError(f"no air segment named {name!r}")

    def total_impedance(self) -> SystemImpedance:
        """Base impedance plus the configured blockage restriction.

        Both terms are fixed per path instance, so the composition is
        computed once and reused.
        """
        if self._impedance_cache is None:
            if self.added_blockage_fraction == 0.0:
                self._impedance_cache = self.base_impedance
            else:
                extra = blockage_impedance_coefficient(
                    self.duct_area_m2, self.added_blockage_fraction
                )
                self._impedance_cache = self.base_impedance.with_added(extra)
        return self._impedance_cache

    def speed_fraction(self, time_s: float) -> float:
        """Fan speed fraction at a simulation time (default: full speed)."""
        if self.fan_speed_schedule is None:
            return 1.0
        return self.fan_speed_schedule(time_s)

    def flow_at_time(self, time_s: float) -> float:
        """Operating volumetric flow at a simulation time."""
        speed = self.speed_fraction(time_s)
        cached = self._flow_cache
        if cached is not None and cached[0] == speed:
            return cached[1]
        flow = operating_flow(self.fans, self.total_impedance(), speed)
        self._flow_cache = (speed, flow)
        return flow

    def with_blockage(self, blocked_fraction: float) -> "AirPath":
        """Copy of this path with a different added blockage fraction.

        Segment objects are shared (couplings are configuration, not state),
        matching the paper's grille experiments which change only the
        restriction.
        """
        return AirPath(
            fans=self.fans,
            base_impedance=self.base_impedance,
            segments=self.segments,
            duct_area_m2=self.duct_area_m2,
            added_blockage_fraction=blocked_fraction,
            fan_speed_schedule=self.fan_speed_schedule,
        )
