"""Thermal-limit enforcement policies (paper Section 5.2).

In an oversubscribed datacenter "thermal management techniques such as
downclocking/DVFS or relocating work to other datacenters must be applied
to prevent the datacenter from overheating". The paper's baseline
downclocks 2.4 GHz parts to 1.6 GHz when the cluster would exceed its
thermal limit; with PCM, full clocks are held while the wax still has
latent capacity to absorb the excess.

A policy decides, at each thermal tick, the cluster-wide DVFS frequency
and (if even the lowest frequency cannot satisfy the limit) a busy-
fraction cap representing work relocation.

Policies receive the per-server *offered work rate* in nominal capacity
units; the busy fraction a server would run at follows from the candidate
frequency (downclocking raises the busy fraction needed to serve the same
work): ``busy(f) = min(work / throughput_factor(f), 1)``. Decisions
preview the tick using the current thermal state and do not mutate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState, uniform_total
from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.server.characterization import interp_float


@dataclass(frozen=True)
class ThrottleDecision:
    """The operating point a policy selects for one tick.

    ``utilization_cap`` limits per-server busy fraction (1.0 = no cap);
    the simulator applies it by relocating (shedding) the excess work.
    """

    frequency_ghz: float
    utilization_cap: float = 1.0
    limited: bool = False


def busy_fraction(
    state: ClusterThermalState, work_rate: np.ndarray, frequency_ghz: float
) -> np.ndarray:
    """Per-server busy fraction needed to serve a work rate at a frequency."""
    factor = state.power_model.throughput_factor(frequency_ghz)
    return np.clip(np.asarray(work_rate) / factor, 0.0, 1.0)


def _preview(state: ClusterThermalState, busy: np.ndarray, frequency_ghz: float):
    """``(busy, release, under)``: one preview's busy fractions, the
    cluster heat release as a function of (scaled copies of) them, and
    ``under(capacity_w)``, the bisection predicate
    ``release(b) <= capacity_w`` for one capacity.

    Uniformity is judged once per preview. When every server shares one
    zone temperature, wax enthalpy and busy fraction, ``busy`` is that
    one fraction and ``release`` and ``under`` are
    :func:`_column_release`'s, bit-identical to the per-server arrays,
    which every other state still sums.
    """
    busy = np.asarray(busy, dtype=float)
    obs = get_registry()
    if state.is_uniform(busy):
        obs.count("dcsim.preview.uniform")
        return (float(busy[0]), *_column_release(state, frequency_ghz))
    obs.count("dcsim.preview.array")

    def release(b) -> float:
        return float(
            np.sum(
                state.power_w(b, frequency_ghz)
                - state.wax_exchange_w(b, frequency_ghz)
            )
        )

    def under(capacity_w: float):
        return lambda b: release(b) <= capacity_w

    return busy, release, under


def _column_release(state: ClusterThermalState, frequency_ghz: float):
    """``(release, under)`` of a uniform cluster at one busy fraction,
    computed as one server.

    The frequency factor, the zone-to-wax gap and the UA scale are fixed
    across a bisection's rounds, so they are computed once. Each call
    takes ``power_w - wax_exchange_w`` on one server in the same
    operations, with the UA from
    :func:`~repro.server.characterization.interp_float`. ``release``
    totals it with :func:`~repro.dcsim.thermal_coupling.uniform_total`:
    the pairwise ``np.sum`` of the per-server row. ``under`` compares the
    one-server value with :func:`_fill_threshold` of a finite capacity,
    found once per bisection, instead of totalling every round.
    """
    model = state.power_model
    factor = model.frequency_factor(frequency_ghz)
    idle_w, dynamic_range_w = model.idle_power_w, model.dynamic_range_w
    ua_scale = state.fault_scales[0]
    gap_c = float(state.zone_temperature_c[0]) - state.material.temperature_at_enthalpy(
        float(state.specific_enthalpy_j_per_kg[0])
    )
    characterization = state.characterization
    grid, uas = characterization.utilization_grid, characterization.wax_ua_w_per_k
    wax = state.wax_enabled
    total = uniform_total(state.server_count)

    def per_server(busy: float) -> float:
        u_eff = busy * factor
        exchange = 0.0
        if wax:
            ua = interp_float(u_eff, grid, uas)
            exchange = (ua * ua_scale if ua_scale != 1.0 else ua) * gap_c
        return idle_w + (dynamic_range_w * u_eff) - exchange

    def release(busy: float) -> float:
        return total(per_server(busy))

    def under(capacity_w: float):
        if not math.isfinite(capacity_w):
            return lambda busy: release(busy) <= capacity_w
        threshold = _fill_threshold(capacity_w, state.server_count)
        return lambda busy: per_server(busy) <= threshold

    return release, under


def _fill_threshold(capacity_w: float, server_count: int) -> float:
    """The largest double ``t`` whose total over ``server_count`` servers
    that all carry it is at most the finite ``capacity_w``.

    The sum of ``n`` equal doubles is monotone non-decreasing in the
    value, because each IEEE round-to-nearest addition is monotone in its
    operands, whatever the reduction tree. So ``total(v) <= capacity_w``
    holds exactly when ``v <= t``. ``t`` is found by stepping doubles from
    ``capacity_w / n``, down while the total exceeds the capacity and
    then up while the next double's total fits, each checked with
    :func:`~repro.dcsim.thermal_coupling.uniform_total`, the pairwise
    ``np.sum`` of the per-server row. The sum's rounding error is a few
    ulps, so the search takes a few totals; a non-finite capacity would
    never end it.
    """
    total = uniform_total(server_count)
    t = capacity_w / server_count
    while total(t) > capacity_w:
        t = math.nextafter(t, -math.inf)
    while total(up := math.nextafter(t, math.inf)) <= capacity_w:
        t = up
    return t


def shared_busy_fits(
    state: ClusterThermalState, frequency_ghz: float, capacity_w: float
):
    """The predicate ``release <= capacity_w`` of one busy fraction every
    server runs, judging uniformity (and, for a uniform state, the
    per-server threshold) once for all the calls: a bisection's rounds.
    """
    ones, _, under = _preview(state, np.ones(state.server_count), frequency_ghz)
    fits = under(capacity_w)
    # 1.0 * busy is busy exactly; ones * busy is its per-server row.
    return lambda busy: fits(ones * busy)


def release_at_busy_w(
    state: ClusterThermalState, busy: np.ndarray, frequency_ghz: float
) -> float:
    """Cluster heat release this tick at per-server busy fractions.

    Wax absorption counts against the release while it is absorbing; a
    refreezing wax adds heat, which the preview must include.
    """
    busy, release, _ = _preview(state, busy, frequency_ghz)
    return release(busy)


def projected_release_w(
    state: ClusterThermalState, work_rate: np.ndarray, frequency_ghz: float
) -> float:
    """Cluster heat release this tick at a candidate operating point."""
    busy = busy_fraction(state, work_rate, frequency_ghz)
    return release_at_busy_w(state, busy, frequency_ghz)


def bisect_max(fits, high: float, rounds: int) -> float:
    """Largest ``x`` in ``[0, high]`` with ``fits(x)``, after ``rounds``
    halvings; ``fits`` must hold below some threshold and fail above it."""
    low = 0.0
    for _ in range(rounds):
        mid = 0.5 * (low + high)
        if fits(mid):
            low = mid
        else:
            high = mid
    return low


def _shed_cap(
    state: ClusterThermalState,
    work_rate: np.ndarray,
    frequency_ghz: float,
    capacity_w: float,
) -> float:
    """Busy-fraction cap bringing the min-frequency release under a limit.

    Release is monotonic in a uniform scale on the busy fractions, so the
    cap is found by bisection.
    """
    busy = busy_fraction(state, work_rate, frequency_ghz)
    base, _, under = _preview(state, busy, frequency_ghz)
    fits = under(capacity_w)
    scale = bisect_max(lambda s: fits(base * s), 1.0, rounds=40)
    return scale * float(np.max(busy)) if len(busy) else 0.0


def throttled_decision(
    state: ClusterThermalState, work_rate: np.ndarray, capacity_w: float
) -> ThrottleDecision:
    """Minimum DVFS, shedding work if even that releases over capacity."""
    minimum = state.power_model.min_frequency_ghz
    if projected_release_w(state, work_rate, minimum) <= capacity_w:
        return ThrottleDecision(frequency_ghz=minimum, limited=True)
    cap = _shed_cap(state, work_rate, minimum, capacity_w)
    return ThrottleDecision(
        frequency_ghz=minimum, utilization_cap=cap, limited=True
    )


class NoThermalLimit:
    """Unconstrained datacenter: always nominal frequency, no cap."""

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Run at nominal frequency regardless of heat output."""
        return ThrottleDecision(
            frequency_ghz=state.power_model.nominal_frequency_ghz
        )

    def conditional_decision(self, state: ClusterThermalState):
        """The fluid engine's certificate (see
        :meth:`RoomTemperaturePolicy.conditional_decision`): nominal
        clocks with no room and no limit.

        This policy is memoryless and ignores its inputs, so
        :meth:`decide` returns that decision at any room temperature.
        """
        return (
            ThrottleDecision(frequency_ghz=state.power_model.nominal_frequency_ghz),
            None,
            None,
        )


class ThermalLimitPolicy:
    """Enforce an instantaneous cluster heat-release limit.

    A memoryless policy: intervene whenever this tick's projected release
    would exceed the plant capacity. Suits studies without a room model;
    the temperature-based :class:`RoomTemperaturePolicy` is the faithful
    Section 5.2 mechanism.
    """

    def __init__(self, capacity_w: float, tolerance: float = 0.002) -> None:
        # In-range tests, so that NaN (every comparison false) fails them.
        if not capacity_w > 0:
            raise ConfigurationError(
                f"cooling capacity must be positive, got {capacity_w}"
            )
        if not tolerance >= 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.capacity_w = capacity_w
        self.tolerance = tolerance

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Pick the least-intrusive operating point under the limit:
        full clocks, else the minimum DVFS state, else shed work."""
        limit = self.capacity_w * (1.0 + self.tolerance)
        nominal = state.power_model.nominal_frequency_ghz

        if projected_release_w(state, work_rate, nominal) <= limit:
            return ThrottleDecision(frequency_ghz=nominal)
        return throttled_decision(state, work_rate, limit)


class FaultResponsePolicy:
    """Graceful-degradation wrapper around any base throttling policy.

    Reads the live effects off a :class:`~repro.faults.injector.
    FaultInjector` (duck-typed via its ``current`` attribute, so this
    module never imports :mod:`repro.faults`) and overrides the base
    policy in two situations a real operations team would:

    * **sensor dropout** — the telemetry feed is dead, so projections
      from the observed work rate cannot be trusted. Fall back to the
      safe setpoint: minimum DVFS frequency until the sensors return.
    * **severe cooling loss** — the plant has lost more than
      ``1 - emergency_capacity_factor`` of its capacity. Do not wait for
      the room to drift over its limit: throttle to minimum frequency
      immediately, shedding work if even that exceeds what is left of
      the plant (plain minimum DVFS when the base knows no capacity).

    Everything else (including mild cooling derates, which the base
    policy sees through the already-derated room capacity) delegates to
    the base policy unchanged, so a run with no active fault is
    decision-identical to running the base policy alone.

    This wrapper around :class:`RoomTemperaturePolicy` is the paper's
    reactive stack, which the control tournament races as ``greedy``
    (:func:`repro.faults.chaos.paper_policy`; see ``docs/CONTROL.md``).
    """

    def __init__(
        self,
        base,
        injector,
        emergency_capacity_factor: float = 0.5,
    ) -> None:
        if not 0.0 <= emergency_capacity_factor <= 1.0:
            raise ConfigurationError(
                f"emergency capacity factor must be in [0, 1], got "
                f"{emergency_capacity_factor}"
            )
        self.base = base
        self.injector = injector
        self.emergency_capacity_factor = emergency_capacity_factor

    def reset(self) -> None:
        """Clear the base policy's state between simulation runs."""
        reset = getattr(self.base, "reset", None)
        if callable(reset):
            reset()

    def _capacity_w(self) -> float | None:
        """The (already fault-derated) plant capacity, if the base has one."""
        room = getattr(self.base, "room", None)
        if room is not None:
            return room.cooling_capacity_w
        return getattr(self.base, "capacity_w", None)

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Override on dropout or severe cooling loss; else delegate."""
        effects = self.injector.current
        if effects is not None:
            minimum = state.power_model.min_frequency_ghz
            if effects.sensor_dropout:
                return ThrottleDecision(frequency_ghz=minimum, limited=True)
            if effects.cooling_capacity_factor < self.emergency_capacity_factor:
                capacity_w = self._capacity_w()
                if capacity_w is None:
                    return ThrottleDecision(frequency_ghz=minimum, limited=True)
                return throttled_decision(state, work_rate, capacity_w)
        return self.base.decide(state, work_rate)

    def conditional_decision(self, state: ClusterThermalState):
        """The base policy's certificate while no fault is live (see
        :meth:`RoomTemperaturePolicy.conditional_decision`).

        With ``injector.current`` at ``None``, :meth:`decide` delegates
        to the base unchanged; a dormant injector keeps it there for the
        whole of a fluid stretch. Otherwise, or when the base publishes
        no certificate, ``None``.
        """
        if self.injector.current is not None:
            return None
        certificate = getattr(self.base, "conditional_decision", None)
        return None if certificate is None else certificate(state)


class RoomTemperaturePolicy:
    """Throttle on the *room* temperature of an oversubscribed datacenter.

    The paper's constrained scenario intervenes when the datacenter would
    overheat, i.e. on temperature, not instantaneous power: the room's
    thermal mass rides through brief overloads, and the wax holds the room
    down for hours. The room also closes the loop that drives the wax at
    the surplus rate — as it warms, the server inlets (and therefore the
    wax zones) warm with it until wax absorption balances the excess.

    While over-limit, the cluster downclocks to its minimum DVFS state; if
    even that releases more heat than the plant can remove (so the room
    would keep heating), work is shed until the release fits the plant
    capacity. The throttle latches: it releases only once the room has
    cooled by ``deadband_c`` AND full clocks would fit the plant again,
    preventing flapping around the limit.
    """

    def __init__(self, room: RoomModel, deadband_c: float = 1.0) -> None:
        if not deadband_c >= 0:
            raise ConfigurationError("deadband must be non-negative")
        self.room = room
        self.deadband_c = deadband_c
        self._throttled = False

    def reset(self) -> None:
        """Clear the hysteresis latch between simulation runs."""
        self._throttled = False

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Nominal clocks until the room hits its limit; then downclock
        (and shed if the plant still cannot keep up)."""
        room = self.room
        temperature_c, limit_c = room.temperature_c, room.max_temperature_c
        capacity_w = room.cooling_capacity_w
        nominal = state.power_model.nominal_frequency_ghz
        if not self._throttled:
            self._throttled = temperature_c >= limit_c
        elif (
            temperature_c <= limit_c - self.deadband_c
            and projected_release_w(state, work_rate, nominal) <= capacity_w
        ):
            self._throttled = False
        if not self._throttled:
            return ThrottleDecision(frequency_ghz=nominal)
        return throttled_decision(state, work_rate, capacity_w)

    def conditional_decision(self, state: ClusterThermalState):
        """The fluid engine's certificate, or ``None``.

        A policy publishes this one protocol to let the batched fluid
        engine advance ticks without consulting it. The certificate is
        ``(decision, room, limit)``: for every tick whose ``room`` reads
        below ``limit``, :meth:`decide` returns exactly ``decision``,
        makes no preview and changes no policy state. The engine ends a
        stretch before the first tick whose room reading is not below
        the limit (NaN included), and that tick runs :meth:`decide`. A
        limit of ``None`` holds at any room temperature.

        While the latch is released this returns nominal clocks, the
        room the policy watches and its ``max_temperature_c``; the tick
        that reaches the limit latches. While the latch is set the
        decision depends on the state, so there is no certificate.
        """
        if self._throttled:
            return None
        room = self.room
        decision = ThrottleDecision(
            frequency_ghz=state.power_model.nominal_frequency_ghz
        )
        return decision, room, room.max_temperature_c
