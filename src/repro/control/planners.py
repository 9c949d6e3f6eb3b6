"""Planners: pluggable decision policies behind one interface.

Each tick the :class:`~repro.control.loop.ControlLoop` assembles an
:class:`Observation` from *observed* telemetry — the work-rate feed has
already passed through the fault injector's sensor path
(:meth:`repro.faults.injector.FaultInjector.observe`), so a planner sees
noisy or frozen readings during sensor faults, never ground truth — and
asks the planner for a :class:`~repro.dcsim.throttling.ThrottleDecision`,
which the loop's executor clamps into the DVFS envelope. Plant-side
readings (room temperature, remaining plant capacity) come off the room
model exactly as the policies of :mod:`repro.dcsim.throttling` read
them; an active cooling fault derates the capacity the planner sees.

Shipped planners:

* :class:`GreedyThrottlePolicy` — the paper's Section 5.2 reactive
  mechanism as a planner: an adapter over the single implementation in
  :mod:`repro.dcsim.throttling` (room-temperature hysteresis latch,
  min-DVFS on sensor dropout, preemptive throttle on severe cooling
  loss). Decision-identical to the
  ``FaultResponsePolicy(RoomTemperaturePolicy(room))`` stack.
* :class:`MPCPolicy` — receding-horizon search over candidate DVFS
  sequences, scored by forward rollouts of a clone of the observed
  state, one cluster per candidate: one server column per candidate on
  floats when the observed state is uniform, else a
  :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`.
* :class:`ScheduledPolicy` — a time-of-day open-loop baseline: a fixed
  daily curtailment window, blind to the thermal state.
* :class:`NoOpPlanner` — always nominal; the transparency oracle.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.dcsim.thermal_coupling import (
    BatchedClusterThermalState,
    ClusterThermalState,
    UniformStretchAdvancer,
    uniform_totals,
)
from repro.dcsim.throttling import (
    ThrottleDecision,
    _shed_cap,
    fault_override,
    hysteresis_decision,
    projected_release_w,
)
from repro.errors import ControlError
from repro.obs import get_registry
from repro.tco.energy import (
    AmbientAwarePlant,
    AmbientProfile,
    ElectricityTariff,
)
from repro.units import SECONDS_PER_HOUR


@dataclass
class Observation:
    """What a planner is allowed to see at one tick.

    ``work_rate`` is the per-server offered work in nominal capacity
    units *after* the fault injector's sensor path; ``fault_effects`` is
    the injector's currently active composite effects (or ``None``) —
    the same duck-typed view ``FaultResponsePolicy`` reads.
    ``state`` grants read access to the thermal state for release
    previews; planners must not mutate it.
    """

    time_s: float
    dt_s: float
    work_rate: np.ndarray
    state: ClusterThermalState
    room_temperature_c: float
    room_setpoint_c: float
    room_max_temperature_c: float
    cooling_capacity_w: float
    thermal_mass_j_per_k: float
    fault_effects: object | None = None

    @property
    def hour_of_day(self) -> float:
        """Local wall-clock hour of this tick."""
        return (self.time_s / SECONDS_PER_HOUR) % 24.0

    @property
    def nominal_frequency_ghz(self) -> float:
        return self.state.power_model.nominal_frequency_ghz

    @property
    def min_frequency_ghz(self) -> float:
        return self.state.power_model.min_frequency_ghz

    @property
    def mean_work_rate(self) -> float:
        """Cluster-mean observed work rate, clipped to [0, 1]."""
        return float(np.mean(np.clip(self.work_rate, 0.0, 1.0)))


class Planner(ABC):
    """One tick of decision making: observation in, decision out."""

    #: Stable identifier used for obs counters and tournament scoring.
    name: str = "planner"

    def reset(self) -> None:
        """Clear internal state between simulation runs."""

    @abstractmethod
    def plan(self, obs: Observation) -> ThrottleDecision:
        """Propose this tick's operating point (pre-clamping)."""


class NoOpPlanner(Planner):
    """Always nominal, no caps.

    The transparency oracle: a :class:`~repro.control.loop.ControlLoop`
    wrapping this planner must be byte-identical to the uninstrumented
    simulator.
    """

    name = "noop"

    def plan(self, obs: Observation) -> ThrottleDecision:
        return ThrottleDecision(frequency_ghz=obs.nominal_frequency_ghz)


class GreedyThrottlePolicy(Planner):
    """The Section 5.2 reactive throttle, as a :class:`Planner`.

    An adapter over :mod:`repro.dcsim.throttling`: each tick runs
    :func:`~repro.dcsim.throttling.fault_override` (sensor dropout, then
    severe cooling loss) and, when no fault forces a decision,
    :func:`~repro.dcsim.throttling.hysteresis_decision` on the observed
    room temperature — the same helpers behind
    ``FaultResponsePolicy(RoomTemperaturePolicy(room))``, so the two are
    decision-identical. The helpers' decision is returned as is. On
    override ticks the latch is not updated, matching the wrapper (which
    never consults its base policy then).
    """

    name = "greedy"

    def __init__(
        self,
        deadband_c: float = 1.0,
        emergency_capacity_factor: float = 0.5,
    ) -> None:
        if not deadband_c >= 0:
            raise ControlError("deadband must be non-negative")
        if not 0.0 <= emergency_capacity_factor <= 1.0:
            raise ControlError(
                "emergency capacity factor must be in [0, 1], got "
                f"{emergency_capacity_factor}"
            )
        self.deadband_c = deadband_c
        self.emergency_capacity_factor = emergency_capacity_factor
        self._throttled = False

    def reset(self) -> None:
        self._throttled = False

    def plan(self, obs: Observation) -> ThrottleDecision:
        decision = None
        if obs.fault_effects is not None:
            decision = fault_override(
                obs.fault_effects,
                obs.state,
                obs.work_rate,
                self.emergency_capacity_factor,
                obs.cooling_capacity_w,
            )
        if decision is None:
            self._throttled, decision = hysteresis_decision(
                self._throttled,
                obs.state,
                obs.work_rate,
                obs.room_temperature_c,
                obs.room_max_temperature_c,
                self.deadband_c,
                obs.cooling_capacity_w,
            )
        return decision


class ScheduledPolicy(Planner):
    """Open-loop time-of-day curtailment, blind to the thermal state.

    Models the clock-based maintenance windows real operations teams
    schedule: inside the daily window the cluster runs at the throttle
    frequency regardless of load or temperature; outside it, nominal.
    Wrap-around windows (e.g. 22 -> 6) are supported. The tournament's
    point of comparison: a wall-clock schedule cannot see the thermal
    peak, so it curtails the wrong hours.
    """

    name = "scheduled"

    def __init__(
        self,
        throttle_start_hour: float = 22.0,
        throttle_end_hour: float = 6.0,
        throttle_frequency_ghz: float | None = None,
    ) -> None:
        for label, hour in (
            ("start", throttle_start_hour),
            ("end", throttle_end_hour),
        ):
            if not 0.0 <= hour <= 24.0:
                raise ControlError(
                    f"throttle window {label} hour must be in [0, 24]"
                )
        self.throttle_start_hour = throttle_start_hour
        self.throttle_end_hour = throttle_end_hour
        self.throttle_frequency_ghz = throttle_frequency_ghz

    def _in_window(self, hour: float) -> bool:
        start, end = self.throttle_start_hour, self.throttle_end_hour
        if start <= end:
            return start <= hour < end
        return hour >= start or hour < end

    def plan(self, obs: Observation) -> ThrottleDecision:
        if self._in_window(obs.hour_of_day):
            frequency = (
                self.throttle_frequency_ghz
                if self.throttle_frequency_ghz is not None
                else obs.min_frequency_ghz
            )
            return ThrottleDecision(frequency_ghz=frequency, limited=True)
        return ThrottleDecision(frequency_ghz=obs.nominal_frequency_ghz)


class MPCPolicy(Planner):
    """Receding-horizon control via batched forward rollouts.

    Each tick the policy clones the observed thermal state, one cluster
    per candidate DVFS sequence, rolls every candidate
    ``horizon_ticks`` forward under a persistence-plus-trend work
    forecast (built from the *observed* work rate), prices each
    trajectory — cooling electricity at the time-of-use tariff and
    ambient-dependent COP, a penalty per server-hour of shed work, and a
    steep penalty per degree-hour of room over-limit — and applies the
    first action of the cheapest sequence. Replanning every tick is the
    feedback path; there is no hysteresis latch to wait out, which is
    exactly why recovery after a fault clears is faster than the greedy
    policy's deadband.

    Candidate sequences: hold nominal / mid / min for the horizon, two
    throttle-then-release ramps, and an emergency min-frequency shed
    candidate whose busy cap is sized against the (possibly derated)
    plant capacity. Deterministic: no RNG anywhere.

    The clone has unit fault scales, no inlet offsets and the room
    temperature as its inlet. When every observed server shares one zone
    temperature and wax enthalpy, each candidate is computed as one
    server column on Python floats
    (:class:`~repro.dcsim.thermal_coupling.UniformStretchAdvancer`);
    otherwise the clone is a
    :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`.
    Both give bit-identical costs, and ``control.mpc.rollout.column`` /
    ``control.mpc.rollout.array`` count the path.
    """

    name = "mpc"

    def __init__(
        self,
        horizon_ticks: int = 8,
        tariff: ElectricityTariff | None = None,
        ambient: AmbientProfile | None = None,
        plant: AmbientAwarePlant | None = None,
        shed_penalty_usd_per_server_hour: float = 1.0,
        overheat_penalty_usd_per_c_hour: float = 50.0,
    ) -> None:
        if not (isinstance(horizon_ticks, Integral) and horizon_ticks >= 1):
            raise ControlError(
                f"MPC horizon must be a whole number of ticks, at least one; "
                f"got {horizon_ticks!r}"
            )
        # In-range tests, so that NaN (every comparison false) fails them.
        for label, penalty in (
            ("shed penalty", shed_penalty_usd_per_server_hour),
            ("overheat penalty", overheat_penalty_usd_per_c_hour),
        ):
            if not 0.0 <= penalty < math.inf:
                raise ControlError(f"{label} must be finite and non-negative")
        self.horizon_ticks = int(horizon_ticks)
        self.tariff = tariff or ElectricityTariff()
        self.ambient = ambient or AmbientProfile()
        self.plant = plant or AmbientAwarePlant()
        self.shed_penalty_usd_per_server_hour = shed_penalty_usd_per_server_hour
        self.overheat_penalty_usd_per_c_hour = overheat_penalty_usd_per_c_hour
        self._last_work: float | None = None

    def reset(self) -> None:
        self._last_work = None

    def _candidate_sequences(
        self, obs: Observation
    ) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, caps): shapes (candidates, horizon), (candidates,).

        Ordered cheapest-intervention-first so cost ties resolve toward
        running at full clocks.
        """
        horizon = self.horizon_ticks
        nominal = obs.nominal_frequency_ghz
        minimum = obs.min_frequency_ghz
        mid = 0.5 * (nominal + minimum)
        half = (horizon + 1) // 2

        rows = [
            np.full(horizon, nominal),
            np.full(horizon, mid),
            np.full(horizon, minimum),
        ]
        if horizon > 1:
            ramp_mid = np.full(horizon, nominal)
            ramp_mid[:half] = mid
            ramp_min = np.full(horizon, nominal)
            ramp_min[:half] = minimum
            rows += [ramp_mid, ramp_min]
        caps = [1.0] * len(rows)

        # Emergency shed candidate: min frequency with a busy cap that
        # fits the remaining (possibly fault-derated) plant capacity.
        if (
            projected_release_w(obs.state, obs.work_rate, minimum)
            > obs.cooling_capacity_w
        ):
            rows.append(np.full(horizon, minimum))
            caps.append(
                _shed_cap(
                    obs.state, obs.work_rate, minimum, obs.cooling_capacity_w
                )
            )
        return np.stack(rows), np.array(caps)

    def _forecast(self, obs: Observation) -> np.ndarray:
        """Persistence + one-step trend forecast of the mean work rate."""
        work = obs.mean_work_rate
        slope = 0.0 if self._last_work is None else work - self._last_work
        steps = np.arange(1, self.horizon_ticks + 1)
        return np.clip(work + slope * steps, 0.0, 1.0)

    def _rollout_cost(
        self,
        obs: Observation,
        frequencies: np.ndarray,
        caps: np.ndarray,
        forecast: np.ndarray,
    ) -> np.ndarray:
        """Price every candidate trajectory; returns cost in USD."""
        state = obs.state
        n_cand, horizon = frequencies.shape
        servers = state.server_count
        dt = obs.dt_s
        dt_hours = dt / SECONDS_PER_HOUR

        # Zone and enthalpy decide the path: the clone has no offsets, and
        # every candidate runs one busy fraction on all of its servers.
        registry = get_registry()
        if state.is_uniform():
            registry.count("control.mpc.rollout.column")
            thermal_step = self._column_rollout(obs, n_cand)
        else:
            registry.count("control.mpc.rollout.array")
            thermal_step = self._array_rollout(obs, n_cand)

        room_t = np.full(n_cand, obs.room_temperature_c)
        capacity = obs.cooling_capacity_w
        setpoint = obs.room_setpoint_c
        mass = obs.thermal_mass_j_per_k
        room_max = obs.room_max_temperature_c
        cost = np.zeros(n_cand)

        # The horizon's COPs and prices at once: the models are
        # elementwise, so each entry equals pricing its step alone.
        times = obs.time_s + np.arange(1, horizon + 1) * dt
        cops = self.plant.cop(self.ambient.temperature_c(times)).tolist()
        prices = self.tariff.price_usd_per_kwh(times).tolist()

        # Per-candidate throughput factors for every step's frequency.
        unique = {float(f) for f in frequencies.ravel()}
        tf_of = {
            f: state.power_model.throughput_factor(f) for f in unique
        }
        for k in range(horizon):
            freqs_k = frequencies[:, k]
            tf_k = np.array([tf_of[float(f)] for f in freqs_k])
            busy = np.minimum(forecast[k] / tf_k, 1.0)
            busy = np.minimum(busy, caps)
            # Every candidate's inlet is its room temperature before the step.
            release_total = thermal_step(busy, freqs_k, room_t)

            removal = np.where(
                room_t > setpoint + 1e-9,
                capacity,
                np.minimum(release_total, capacity),
            )
            room_t = np.maximum(
                room_t + dt * (release_total - removal) / mass, setpoint
            )

            cost += (release_total / cops[k]) * dt / 3.6e6 * prices[k]
            served = busy * tf_k
            shed = np.maximum(forecast[k] - served, 0.0)
            cost += (
                shed
                * servers
                * dt_hours
                * self.shed_penalty_usd_per_server_hour
            )
            cost += (
                np.maximum(room_t - room_max, 0.0)
                * dt_hours
                * self.overheat_penalty_usd_per_c_hour
            )
        return cost

    @staticmethod
    def _array_rollout(obs: Observation, n_cand: int):
        """The rollout's thermal step on a
        :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`
        clone of the observed state, one cluster per candidate.

        ``step(busy, frequencies, inlet)`` advances every candidate one
        tick and returns its cluster release total.
        """
        state = obs.state
        servers = state.server_count
        rollout = BatchedClusterThermalState(
            characterization=state.characterization,
            power_model=state.power_model,
            material=state.material,
            cluster_count=n_cand,
            server_count=servers,
            inlet_temperature_c=obs.room_temperature_c,
            wax_enabled=bool(state.wax_enabled),
        )
        rollout.zone_temperature_c[...] = state.zone_temperature_c[None, :]
        rollout.specific_enthalpy_j_per_kg[...] = (
            state.specific_enthalpy_j_per_kg[None, :]
        )

        def step(busy, frequencies, inlet):
            rollout.inlet_temperature_c[:] = inlet
            _, release, _ = rollout.step(
                obs.dt_s, np.repeat(busy[:, None], servers, axis=1), frequencies
            )
            return np.sum(release, axis=1)

        return step

    @staticmethod
    def _column_rollout(obs: Observation, n_cand: int):
        """The same thermal step for a uniform observed state, each
        candidate computed as one server column.

        A :class:`~repro.dcsim.thermal_coupling.UniformStretchAdvancer`
        steps the array clone's column: unit fault scales, zero offsets,
        the undegraded wax mass. The release totals come from one
        fill-and-sum, the per-row pairwise ``np.sum`` the clone's
        ``(candidates, servers)`` release gets.
        """
        state = obs.state
        columns = [UniformStretchAdvancer(state, obs.dt_s) for _ in range(n_cand)]

        def step(busy, frequencies, inlet):
            per_candidate = [
                column.step(t, b, f)[1]
                for column, t, b, f in zip(
                    columns, inlet.tolist(), busy.tolist(), frequencies.tolist()
                )
            ]
            return uniform_totals(per_candidate, state.server_count)

        return step

    def plan(self, obs: Observation) -> ThrottleDecision:
        effects = obs.fault_effects
        if effects is not None and effects.sensor_dropout:
            # No trustworthy telemetry to roll forward: safe setpoint.
            self._last_work = None
            return ThrottleDecision(
                frequency_ghz=obs.min_frequency_ghz, limited=True
            )

        frequencies, caps = self._candidate_sequences(obs)
        forecast = self._forecast(obs)
        self._last_work = obs.mean_work_rate
        cost = self._rollout_cost(obs, frequencies, caps, forecast)
        best = int(np.argmin(cost))

        frequency = float(frequencies[best, 0])
        cap = float(caps[best])
        nominal = obs.nominal_frequency_ghz
        limited = frequency < nominal - 1e-12 or cap < 1.0
        return ThrottleDecision(
            frequency_ghz=frequency, utilization_cap=cap, limited=limited
        )
