"""Declarative, serializable fault schedules for the datacenter simulator.

A :class:`FaultSchedule` is a set of time-windowed :class:`Fault` events —
fan derates, CRAC/chiller capacity loss, supply-temperature excursions,
sensor dropout and noise, power caps, server outages, and PCM cycling
degradation — that the :class:`~repro.faults.injector.FaultInjector`
resolves into per-tick :class:`FaultEffects` and applies to a running
:class:`~repro.dcsim.simulator.DatacenterSimulator`.

Design constraints, in priority order:

1. **Determinism.** Everything a fault does is a pure function of the
   schedule and the tick sequence; stochastic faults (sensor noise) carry
   their own seed. A schedule replayed from JSON reproduces the original
   trajectory bit for bit.
2. **Recovery semantics.** A fault's effect exists exactly on
   ``start_s <= t < end_s``; the injector restores every touched knob at
   clearance, so recovery behaviour falls out of effect removal rather
   than bespoke code per fault.
3. **Nominal transparency.** An empty schedule resolves to "no effects"
   at every tick, and every injection point is gated on that, so a
   simulator with an empty schedule is byte-identical to one with no
   injector at all.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from repro.errors import FaultError
from repro.materials.degradation import DegradationModel
from repro.materials.library import Stability
from repro.thermal.convection import flow_scaled_conductance

#: Schema tag stamped into serialized schedules; bump on layout changes.
SCHEDULE_SCHEMA = "repro.faults.schedule/1"

# -- fault kinds -------------------------------------------------------------

#: Fan failure or derate: ``magnitude`` is the surviving operating-flow
#: fraction (1.0 = healthy). Affinity laws make flow proportional to fan
#: speed, so a speed derate maps 1:1; failed fans map through
#: :func:`repro.thermal.airflow.degraded_flow_fraction`.
FAN_DERATE = "fan_derate"

#: CRAC/chiller capacity loss: ``magnitude`` is the fraction of plant
#: cooling capacity *lost* while the fault is active.
COOLING_LOSS = "cooling_loss"

#: Supply/cold-aisle temperature excursion: ``magnitude`` is the inlet
#: temperature offset in degrees C (positive = failure toward hot).
SUPPLY_EXCURSION = "supply_excursion"

#: Sensor dropout: the thermal-management policy stops receiving fresh
#: load observations (the injector holds the last good reading).
SENSOR_DROPOUT = "sensor_dropout"

#: Sensor noise: seeded Gaussian noise of standard deviation ``magnitude``
#: corrupts the per-server work-rate observations the policy sees.
SENSOR_NOISE = "sensor_noise"

#: Power-cap event: ``magnitude`` is the maximum per-server busy fraction
#: the facility allows while the cap is active (excess work is shed).
POWER_CAP = "power_cap"

#: Server outage: ``magnitude`` is the fraction of the cluster offline
#: (the lowest-indexed servers drain and take no new work).
SERVER_OUTAGE = "server_outage"

#: PCM cycling degradation: ``magnitude`` is the remaining latent-capacity
#: fraction (see :func:`pcm_degradation_after` for the
#: :mod:`repro.materials.degradation` hook).
PCM_DEGRADATION = "pcm_degradation"

FAULT_KINDS = (
    FAN_DERATE,
    COOLING_LOSS,
    SUPPLY_EXCURSION,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    POWER_CAP,
    SERVER_OUTAGE,
    PCM_DEGRADATION,
)

#: Valid ``magnitude`` interval per kind (closed bounds; ``None`` = unused).
_MAGNITUDE_RANGE: dict[str, tuple[float, float] | None] = {
    FAN_DERATE: (0.02, 1.0),
    COOLING_LOSS: (0.0, 1.0),
    SUPPLY_EXCURSION: (-30.0, 30.0),
    SENSOR_DROPOUT: None,
    SENSOR_NOISE: (0.0, 2.0),
    POWER_CAP: (0.0, 1.0),
    SERVER_OUTAGE: (0.0, 1.0),
    PCM_DEGRADATION: (0.0, 1.0),
}


@dataclass(frozen=True)
class FaultEffects:
    """The resolved modifiers of every fault active at one instant.

    Default values are the identity: applying default effects changes
    nothing. Overlapping faults compose — offsets add, factors multiply,
    caps take the minimum, noise variances add, flags OR.
    """

    inlet_delta_c: float = 0.0
    cooling_capacity_factor: float = 1.0
    ua_scale: float = 1.0
    zone_delta_scale: float = 1.0
    wax_capacity_factor: float = 1.0
    utilization_cap: float = 1.0
    offline_fraction: float = 0.0
    sensor_dropout: bool = False
    sensor_noise_sigma: float = 0.0

    @property
    def is_identity(self) -> bool:
        """Whether these effects change nothing."""
        return self == _IDENTITY_EFFECTS


_IDENTITY_EFFECTS = FaultEffects()


@dataclass(frozen=True)
class Fault:
    """One time-windowed fault event.

    ``magnitude`` is kind-specific (see the kind constants); ``seed``
    feeds the noise stream of :data:`SENSOR_NOISE` faults and is ignored
    by every other kind.
    """

    kind: str
    start_s: float
    end_s: float
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not (
            math.isfinite(self.start_s)
            and math.isfinite(self.end_s)
            and 0.0 <= self.start_s < self.end_s
        ):
            raise FaultError(
                f"fault window must satisfy 0 <= start < end, got "
                f"[{self.start_s}, {self.end_s})"
            )
        bounds = _MAGNITUDE_RANGE[self.kind]
        if bounds is not None:
            low, high = bounds
            if not (
                math.isfinite(self.magnitude)
                and low <= self.magnitude <= high
            ):
                raise FaultError(
                    f"{self.kind} magnitude must lie in [{low}, {high}], "
                    f"got {self.magnitude}"
                )
        # Open-interval exclusions where the closed bound is degenerate:
        # a fan derate to 1.0 flow, a 0% capacity loss, a 0-sigma noise
        # event, a 0% outage, or a 1.0-capacity "degradation" are all
        # no-op faults that almost certainly indicate a schedule bug.
        if self.kind == COOLING_LOSS and self.magnitude <= 0.0:
            raise FaultError("cooling_loss must lose a positive fraction")
        if self.kind == COOLING_LOSS and self.magnitude >= 1.0:
            raise FaultError("cooling_loss cannot remove the entire plant")
        if self.kind == SUPPLY_EXCURSION and self.magnitude == 0.0:
            raise FaultError("supply_excursion needs a non-zero offset")
        if self.kind == SENSOR_NOISE and self.magnitude <= 0.0:
            raise FaultError("sensor_noise needs a positive sigma")
        if self.kind == POWER_CAP and not 0.0 < self.magnitude < 1.0:
            raise FaultError("power_cap fraction must lie in (0, 1)")
        if self.kind == SERVER_OUTAGE and not 0.0 < self.magnitude < 1.0:
            raise FaultError("server_outage fraction must lie in (0, 1)")
        if self.kind == PCM_DEGRADATION and not 0.0 < self.magnitude <= 1.0:
            raise FaultError(
                "pcm_degradation remaining capacity must lie in (0, 1]"
            )

    def active_at(self, time_s: float) -> bool:
        """Whether the fault is active at a simulation time."""
        return self.start_s <= time_s < self.end_s

    def effects(self) -> FaultEffects:
        """This fault's modifiers while active."""
        if self.kind == FAN_DERATE:
            # Lower flow weakens the air-to-wax film (turbulent
            # convection scales as flow^0.8, with the stagnant floor the
            # detailed model uses) and, by the zone energy balance
            # dT = P / (m_dot * cp), raises the zone temperature rise in
            # inverse proportion to the flow.
            flow_fraction = self.magnitude
            return FaultEffects(
                ua_scale=flow_scaled_conductance(1.0, flow_fraction, 1.0),
                zone_delta_scale=1.0 / flow_fraction,
            )
        if self.kind == COOLING_LOSS:
            return FaultEffects(cooling_capacity_factor=1.0 - self.magnitude)
        if self.kind == SUPPLY_EXCURSION:
            return FaultEffects(inlet_delta_c=self.magnitude)
        if self.kind == SENSOR_DROPOUT:
            return FaultEffects(sensor_dropout=True)
        if self.kind == SENSOR_NOISE:
            return FaultEffects(sensor_noise_sigma=self.magnitude)
        if self.kind == POWER_CAP:
            return FaultEffects(utilization_cap=self.magnitude)
        if self.kind == SERVER_OUTAGE:
            return FaultEffects(offline_fraction=self.magnitude)
        # PCM_DEGRADATION
        return FaultEffects(wax_capacity_factor=self.magnitude)

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form of the fault."""
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "magnitude": self.magnitude,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Fault":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        try:
            return cls(
                kind=str(data["kind"]),
                start_s=float(data["start_s"]),
                end_s=float(data["end_s"]),
                magnitude=float(data.get("magnitude", 0.0)),
                seed=int(data.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault entry: {data!r}") from exc


def _combine(effects: list[FaultEffects]) -> FaultEffects:
    """Compose the effects of simultaneously active faults."""
    inlet = 0.0
    capacity = 1.0
    ua = 1.0
    zone = 1.0
    wax = 1.0
    cap = 1.0
    offline = 0.0
    dropout = False
    noise_var = 0.0
    for e in effects:
        inlet += e.inlet_delta_c
        capacity *= e.cooling_capacity_factor
        ua *= e.ua_scale
        zone *= e.zone_delta_scale
        wax *= e.wax_capacity_factor
        cap = min(cap, e.utilization_cap)
        offline = max(offline, e.offline_fraction)
        dropout = dropout or e.sensor_dropout
        noise_var += e.sensor_noise_sigma**2
    # Every factor is strictly positive, but a *product* of denormal-small
    # factors can underflow to exactly 0.0, breaking the model's
    # strict-positivity invariants; floor at the smallest normal float.
    ua = max(ua, sys.float_info.min)
    wax = max(wax, sys.float_info.min)
    return FaultEffects(
        inlet_delta_c=inlet,
        cooling_capacity_factor=capacity,
        ua_scale=ua,
        zone_delta_scale=zone,
        wax_capacity_factor=wax,
        utilization_cap=cap,
        offline_fraction=offline,
        sensor_dropout=dropout,
        sensor_noise_sigma=math.sqrt(noise_var),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable set of fault events plus provenance metadata.

    ``seed`` records the chaos-harness seed that generated the schedule
    (``None`` for hand-written schedules); it is provenance only — the
    faults themselves fully determine behaviour.
    """

    faults: tuple[Fault, ...] = ()
    name: str = "faults"
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise FaultError(f"not a Fault: {fault!r}")

    @classmethod
    def empty(cls, name: str = "no-faults") -> "FaultSchedule":
        """A schedule with no faults (the nominal-transparency baseline)."""
        return cls(faults=(), name=name)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def last_clearance_s(self) -> float:
        """Time at which the final fault clears (0 for an empty schedule)."""
        return max((fault.end_s for fault in self.faults), default=0.0)

    def kinds(self) -> set[str]:
        """The fault kinds present in the schedule."""
        return {fault.kind for fault in self.faults}

    def active_at(self, time_s: float) -> tuple[Fault, ...]:
        """The faults active at a simulation time."""
        return tuple(f for f in self.faults if f.active_at(time_s))

    def next_boundary(self, after_s: float) -> float:
        """Earliest fault start strictly after ``after_s`` (else ``inf``).

        Faults activate at the first instant with ``start_s <= t``, so
        every time strictly before the returned boundary — given nothing
        is active or pending restoration at ``after_s`` — resolves to no
        effects. The fluid engine's stretch detector uses this to bound
        how far it may advance without consulting :meth:`effects_at`.
        """
        starts = [f.start_s for f in self.faults if f.start_s > after_s]
        return min(starts) if starts else math.inf

    def effects_at(self, time_s: float) -> FaultEffects | None:
        """Combined effects at a time, or ``None`` when nothing is active.

        Returning ``None`` (rather than identity effects) lets injection
        points skip all fault arithmetic, which is what keeps no-fault
        ticks bit-identical to an un-instrumented simulator.
        """
        active = [f.effects() for f in self.faults if f.active_at(time_s)]
        if not active:
            return None
        return _combine(active)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form of the schedule."""
        return {
            "schema": SCHEDULE_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self, indent: int | None = 1) -> str:
        """Serialize to JSON (stable key order, replayable exactly)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultSchedule":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise FaultError("a fault schedule must be a JSON object")
        schema = data.get("schema")
        if schema != SCHEDULE_SCHEMA:
            raise FaultError(
                f"unsupported schedule schema {schema!r} "
                f"(expected {SCHEDULE_SCHEMA!r})"
            )
        raw_faults = data.get("faults")
        if not isinstance(raw_faults, list):
            raise FaultError("schedule 'faults' must be a list")
        seed = data.get("seed")
        return cls(
            faults=tuple(Fault.from_dict(entry) for entry in raw_faults),
            name=str(data.get("name", "faults")),
            seed=None if seed is None else int(seed),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule previously produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"schedule JSON is invalid: {exc}") from exc
        return cls.from_dict(data)


# -- materials/degradation hook ---------------------------------------------


def pcm_degradation_after(
    stability: Stability,
    service_years: float,
    start_s: float,
    end_s: float,
    cycles_per_day: float = 1.0,
) -> Fault:
    """A :data:`PCM_DEGRADATION` fault from a cycling-stability class.

    Computes the remaining latent-capacity fraction after
    ``service_years`` of diurnal cycling through
    :class:`repro.materials.degradation.DegradationModel` — the paper's
    Table 1 stability column turned into a wax-capacity derate the
    simulator can feel.
    """
    if service_years < 0:
        raise FaultError(
            f"service years must be non-negative, got {service_years}"
        )
    model = DegradationModel.for_stability(stability)
    cycles = int(service_years * 365.0 * cycles_per_day)
    remaining = model.remaining_capacity_fraction(cycles)
    return Fault(
        kind=PCM_DEGRADATION,
        start_s=start_s,
        end_s=end_s,
        magnitude=remaining,
    )
