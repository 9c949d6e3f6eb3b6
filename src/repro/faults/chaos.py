"""Chaos harness: seeded random fault schedules run against invariants.

The harness closes the loop on the fault subsystem: it generates
randomized-but-seeded :class:`~repro.faults.schedule.FaultSchedule`
instances, runs each against a small oversubscribed cluster, and checks
the global invariants of :mod:`repro.faults.invariants` after every run.
Any violation is written out as a *failure bundle* — a JSON file holding
the seed, the harness configuration, the exact schedule, and a
fingerprint of the traces — from which :func:`replay_bundle` reproduces
the failing run bit for bit.

Scenario shape: a diurnal day peaking mid-afternoon, then a constant
quiet tail. Faults are confined to a window that ends before the quiet
tail begins, so the monotone-recovery invariant has a clean observation
window (constant low demand, no faults) at the end of every run.

Run from the command line::

    PYTHONPATH=src python -m repro.faults.chaos --seeds 50

which exits non-zero if any seed violates an invariant.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.scenarios import cached_characterization
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import (
    DatacenterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.dcsim.throttling import FaultResponsePolicy, RoomTemperaturePolicy
from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Violation,
    check_energy_balance,
    check_finite,
    check_monotone_recovery,
    check_state_of_charge,
    identical_results,
)
from repro.faults.schedule import (
    COOLING_LOSS,
    FAN_DERATE,
    PCM_DEGRADATION,
    POWER_CAP,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    SERVER_OUTAGE,
    SUPPLY_EXCURSION,
    Fault,
    FaultSchedule,
)
from repro.obs import get_registry
from repro.server.configs import PLATFORM_BUILDERS
from repro.units import hours
from repro.workload.trace import LoadTrace

#: Schema tag of serialized failure bundles; bump on layout changes.
BUNDLE_SCHEMA = "repro.faults.bundle/1"


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of the scenario every chaos seed runs against.

    Frozen and fully scalar so it is hashable (the nominal-baseline
    plant sizing is memoized per config) and trivially serializable into
    failure bundles.
    """

    platform: str = "1u"
    server_count: int = 24
    duration_s: float = hours(36.0)
    tick_interval_s: float = 60.0
    mode: str = "fluid"
    #: Event-mode engine under test; ignored in fluid mode. Defaults to
    #: the simulator's default so bundles written before the field
    #: existed replay with unchanged behaviour.
    engine: str = "batched"
    #: Plant capacity as a fraction of the nominal (unfaulted) peak
    #: cooling load — slightly oversubscribed so faults actually bite.
    oversubscription: float = 0.95
    max_faults: int = 3
    #: Fault windows are drawn inside [fault_start_s, fault_end_s).
    fault_start_s: float = hours(2.0)
    fault_end_s: float = hours(24.0)
    min_fault_s: float = hours(0.5)
    max_fault_s: float = hours(6.0)
    #: The trace holds a constant trough load from here to the end.
    quiet_from_s: float = hours(26.0)
    #: Settling time granted after clearance before monotone recovery
    #: is enforced.
    relax_s: float = hours(4.0)
    trough: float = 0.2

    def __post_init__(self) -> None:
        if self.platform not in PLATFORM_BUILDERS:
            raise FaultError(
                f"unknown platform {self.platform!r}; choose from "
                f"{sorted(PLATFORM_BUILDERS)}"
            )
        if self.server_count < 2:
            raise FaultError("chaos cluster needs at least 2 servers")
        if self.engine not in ("batched", "reference"):
            raise FaultError(
                f"engine must be 'batched' or 'reference', got {self.engine!r}"
            )
        if not 0.0 < self.oversubscription <= 1.0:
            raise FaultError("oversubscription must be in (0, 1]")
        if self.max_faults < 1:
            raise FaultError("max faults must be at least 1")
        if not 0.0 <= self.fault_start_s < self.fault_end_s:
            raise FaultError("fault window must satisfy 0 <= start < end")
        if not 0.0 < self.min_fault_s <= self.max_fault_s:
            raise FaultError("fault durations must satisfy 0 < min <= max")
        if self.fault_end_s - self.max_fault_s <= self.fault_start_s:
            raise FaultError(
                "fault window too narrow for the longest fault duration"
            )
        if not self.fault_end_s <= self.quiet_from_s:
            raise FaultError("faults must clear before the quiet tail")
        if self.quiet_from_s + self.relax_s >= self.duration_s:
            raise FaultError(
                "no recovery observation window: quiet_from_s + relax_s "
                "must leave room before the end of the run"
            )
        if not 0.0 < self.trough < 1.0:
            raise FaultError("trough must be in (0, 1)")


def chaos_trace(config: ChaosConfig) -> LoadTrace:
    """The harness's workload: one diurnal hump, then a quiet tail.

    The hump peaks mid-afternoon (hour 13); from ``quiet_from_s`` the
    load sits at the constant trough so the end of every run is a clean
    recovery-observation window. Deterministic and seed-independent —
    every chaos seed runs the same demand, only the faults differ.
    """
    interval = config.tick_interval_s
    n = int(np.floor(config.duration_s / interval)) + 1
    times = np.arange(n) * interval
    hour_of_day = (times / 3600.0) % 24.0
    phase = 2.0 * np.pi * (hour_of_day - 13.0) / 24.0
    hump = config.trough + (0.95 - config.trough) * np.exp(
        3.0 * (np.cos(phase) - 1.0)
    )
    values = np.where(times >= config.quiet_from_s, config.trough, hump)
    return LoadTrace(times, values, name="chaos-diurnal")


# -- schedule generation -----------------------------------------------------

_CHAOS_KINDS = (
    FAN_DERATE,
    COOLING_LOSS,
    SUPPLY_EXCURSION,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    POWER_CAP,
    SERVER_OUTAGE,
    PCM_DEGRADATION,
)


def _draw_magnitude(kind: str, rng: np.random.Generator) -> float:
    """A magnitude inside the kind's physically interesting range."""
    if kind == FAN_DERATE:
        return float(rng.uniform(0.4, 0.9))
    if kind == COOLING_LOSS:
        return float(rng.uniform(0.1, 0.6))
    if kind == SUPPLY_EXCURSION:
        # Mostly hot excursions (failure direction), occasionally cold.
        sign = 1.0 if rng.random() < 0.75 else -1.0
        return sign * float(rng.uniform(1.0, 8.0))
    if kind == SENSOR_NOISE:
        return float(rng.uniform(0.05, 0.3))
    if kind == POWER_CAP:
        return float(rng.uniform(0.3, 0.8))
    if kind == SERVER_OUTAGE:
        return float(rng.uniform(0.1, 0.5))
    if kind == PCM_DEGRADATION:
        return float(rng.uniform(0.5, 0.95))
    return 0.0  # SENSOR_DROPOUT carries no magnitude


def random_schedule(seed: int, config: ChaosConfig | None = None) -> FaultSchedule:
    """A randomized fault schedule, fully determined by ``seed``.

    Every stochastic choice (fault count, kinds, windows, magnitudes,
    per-fault noise seeds) comes from one ``default_rng(seed)`` stream
    drawn in a fixed order, so the same seed always yields the same
    schedule — the exact-replay guarantee the failure bundles rely on.
    """
    config = config or ChaosConfig()
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, config.max_faults + 1))
    faults = []
    for _ in range(count):
        kind = str(rng.choice(_CHAOS_KINDS))
        duration = float(rng.uniform(config.min_fault_s, config.max_fault_s))
        start = float(
            rng.uniform(config.fault_start_s, config.fault_end_s - duration)
        )
        magnitude = _draw_magnitude(kind, rng)
        fault_seed = int(rng.integers(0, 2**31 - 1))
        faults.append(
            Fault(
                kind=kind,
                start_s=start,
                end_s=start + duration,
                magnitude=magnitude,
                seed=fault_seed,
            )
        )
    faults.sort(key=lambda fault: (fault.start_s, fault.kind))
    return FaultSchedule(
        faults=tuple(faults), name=f"chaos-{seed}", seed=seed
    )


# -- running one schedule ----------------------------------------------------

#: Per-config nominal plant capacity (one unfaulted sizing run per
#: config, shared by every seed).
_CAPACITY_CACHE: dict[ChaosConfig, float] = {}


def _sim_config(config: ChaosConfig, wax_enabled: bool = True) -> SimulationConfig:
    return SimulationConfig(
        mode=config.mode,
        tick_interval_s=config.tick_interval_s,
        wax_enabled=wax_enabled,
        engine=config.engine,
    )


def _plant_capacity_w(config: ChaosConfig) -> float:
    """Plant capacity: ``oversubscription`` x the unconstrained peak.

    Sized from the *no-wax* ideal arm, exactly like
    :class:`~repro.core.scenarios.ThroughputStudy`: sizing against the
    wax-clipped peak would leave the plant unable to carry even the
    fully throttled cluster once the wax saturates, and the room would
    run away with no fault scheduled at all.
    """
    if config not in _CAPACITY_CACHE:
        spec = PLATFORM_BUILDERS[config.platform]()
        nominal = DatacenterSimulator(
            cached_characterization(spec),
            spec.power_model,
            spec.wax_loadout.material,
            chaos_trace(config),
            topology=ClusterTopology(
                server_count=config.server_count,
                servers_per_rack=spec.servers_per_rack,
            ),
            config=_sim_config(config, wax_enabled=False),
        ).run()
        _CAPACITY_CACHE[config] = (
            config.oversubscription * nominal.peak_cooling_load_w
        )
    return _CAPACITY_CACHE[config]


def build_simulator(
    config: ChaosConfig,
    injector: FaultInjector | None = None,
    wax_enabled: bool = True,
    policy_factory=None,
    trace: LoadTrace | None = None,
) -> DatacenterSimulator:
    """The harness's constrained simulator, with or without an injector.

    With ``injector=None`` this is the unfaulted reference arm of the
    transparency check; the two arms differ *only* in the injector and
    the (decision-identical while no fault is active) policy wrapper.
    ``wax_enabled=False`` gives the no-PCM baseline arm of the
    ``fig11_faults`` experiment under the same plant and schedule.

    ``policy_factory``, if given, is called as ``policy_factory(room,
    injector)`` and replaces the default throttling stack — the seam the
    control tournament uses to drop a ``repro.control.ControlLoop`` into
    the harness plant. ``trace`` swaps in an alternative workload (the
    plant stays sized against the chaos nominal peak).
    """
    spec = PLATFORM_BUILDERS[config.platform]()
    room = RoomModel.sized_for_cluster(
        _plant_capacity_w(config), config.server_count
    )
    if policy_factory is not None:
        policy = policy_factory(room, injector)
    else:
        policy = RoomTemperaturePolicy(room)
        if injector is not None:
            policy = FaultResponsePolicy(policy, injector)
    return DatacenterSimulator(
        cached_characterization(spec),
        spec.power_model,
        spec.wax_loadout.material,
        trace if trace is not None else chaos_trace(config),
        topology=ClusterTopology(
            server_count=config.server_count,
            servers_per_rack=spec.servers_per_rack,
        ),
        policy=policy,
        room=room,
        config=_sim_config(config, wax_enabled=wax_enabled),
        fault_injector=injector,
    )


def result_fingerprint(result: SimulationResult) -> str:
    """SHA-256 over every trace's bytes — equal iff bit-identical."""
    digest = hashlib.sha256()
    for name in (
        "times_s",
        "demand",
        "utilization",
        "frequency_ghz",
        "power_w",
        "cooling_load_w",
        "wax_heat_w",
        "melt_fraction",
        "throughput",
        "queue_length",
        "shed_work",
        "room_temperature_c",
        "completed_work_s",
    ):
        trace = getattr(result, name)
        if trace is None:
            digest.update(b"none")
        else:
            digest.update(np.ascontiguousarray(trace).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ChaosRun:
    """One seeded schedule run to completion plus its invariant verdicts."""

    config: ChaosConfig
    schedule: FaultSchedule
    result: SimulationResult
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    @property
    def fingerprint(self) -> str:
        """Trace fingerprint (see :func:`result_fingerprint`)."""
        return result_fingerprint(self.result)

    def describe(self) -> str:
        """One status line for harness output."""
        label = self.schedule.name
        kinds = ",".join(sorted(self.schedule.kinds())) or "none"
        if self.ok:
            return f"{label}: ok ({len(self.schedule)} faults: {kinds})"
        first = self.violations[0]
        return (
            f"{label}: {len(self.violations)} violation(s), first: {first}"
        )


def run_schedule(
    schedule: FaultSchedule, config: ChaosConfig | None = None
) -> ChaosRun:
    """Run one schedule and check every invariant."""
    config = config or ChaosConfig()
    injector = FaultInjector(schedule)
    simulator = build_simulator(config, injector)
    result = simulator.run()
    final_state = simulator.final_state
    violations = list(check_finite(result))
    violations += check_state_of_charge(result, final_state=final_state)
    violations += check_energy_balance(
        result,
        tick_interval_s=config.tick_interval_s,
        initial_enthalpy_j_per_kg=simulator.initial_specific_enthalpy_j_per_kg,
        final_state=final_state,
        wax_mass_kg=final_state.wax_mass_kg,
        # A mid-run wax-capacity change invalidates the simple
        # banked-vs-integrated product (the mass varies over the run).
        check_enthalpy_closure=PCM_DEGRADATION not in schedule.kinds(),
    )
    if config.mode == "fluid":
        # Event mode queues capped work and drains the backlog after
        # clearance, which can legitimately re-heat the room inside the
        # observation window; recovery monotonicity is a fluid-mode
        # invariant.
        violations += check_monotone_recovery(
            result,
            clearance_s=max(schedule.last_clearance_s, config.quiet_from_s),
            relax_s=config.relax_s,
            thermal_mass_j_per_k=simulator.room.thermal_mass_j_per_k,
        )
    obs = get_registry()
    if obs.enabled:
        obs.count("faults.chaos.runs")
        if violations:
            obs.count("faults.chaos.failed_runs")
            obs.count("faults.chaos.violations", len(violations))
    return ChaosRun(
        config=config,
        schedule=schedule,
        result=result,
        violations=tuple(violations),
    )


def check_transparency(config: ChaosConfig | None = None) -> bool:
    """Whether an empty schedule leaves the simulation byte-identical.

    Runs the harness scenario twice — no injector at all vs. an injector
    holding an empty schedule — and compares every trace bitwise. This
    is the nominal-transparency acceptance gate of the fault subsystem.
    """
    config = config or ChaosConfig()
    plain = build_simulator(config, injector=None).run()
    empty = build_simulator(
        config, injector=FaultInjector(FaultSchedule.empty())
    ).run()
    return identical_results(plain, empty)


def check_engine_agreement(
    config: ChaosConfig | None = None,
    seed: int = 0,
    policy_factory=None,
) -> bool:
    """Whether both event engines produce bit-identical faulted runs.

    Runs the harness scenario under a seeded fault schedule twice — once
    on the batched engine, once on the per-event reference — and compares
    every trace bitwise. This is the event-engine equivalence acceptance
    gate under fault injection (offline servers, power caps, and queue
    backlogs all stress the engines' shared dispatch semantics).
    ``policy_factory`` swaps in an alternative policy stack on both arms
    (see :func:`build_simulator`) — the control subsystem uses it to
    prove each planner decides identically on either engine.
    """
    config = config or ChaosConfig(mode="event")
    if config.mode != "event":
        config = replace(config, mode="event")
    schedule = random_schedule(seed, config)
    results = [
        build_simulator(
            replace(config, engine=engine),
            FaultInjector(schedule),
            policy_factory=policy_factory,
        ).run()
        for engine in ("batched", "reference")
    ]
    return identical_results(*results)


# -- failure bundles ---------------------------------------------------------


def write_bundle(run: ChaosRun, directory: Path | str) -> Path:
    """Persist a failing run's reproduction bundle; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BUNDLE_SCHEMA,
        "seed": run.schedule.seed,
        "config": asdict(run.config),
        "schedule": run.schedule.to_dict(),
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in run.violations
        ],
        "fingerprint": run.fingerprint,
    }
    path = directory / f"{run.schedule.name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


def replay_bundle(path: Path | str) -> ChaosRun:
    """Re-run the exact schedule a failure bundle recorded.

    The returned run's :attr:`ChaosRun.fingerprint` must equal the
    bundle's stored fingerprint — anything else means the simulator's
    behaviour changed since the bundle was written.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FaultError(f"cannot read failure bundle {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != BUNDLE_SCHEMA:
        raise FaultError(
            f"not a {BUNDLE_SCHEMA} bundle: {path}"
        )
    config = ChaosConfig(**data["config"])
    schedule = FaultSchedule.from_dict(data["schedule"])
    return run_schedule(schedule, config)


def run_seeds(
    seeds,
    config: ChaosConfig | None = None,
    bundle_dir: Path | str | None = None,
) -> list[ChaosRun]:
    """Run one chaos schedule per seed; bundle any failures."""
    config = config or ChaosConfig()
    runs = []
    for seed in seeds:
        run = run_schedule(random_schedule(seed, config), config)
        if not run.ok and bundle_dir is not None:
            write_bundle(run, bundle_dir)
        runs.append(run)
    return runs


# -- command line ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.faults.chaos``: seeded chaos sweep."""
    parser = argparse.ArgumentParser(
        description="Run seeded chaos fault schedules and check invariants."
    )
    parser.add_argument(
        "--seeds", type=int, default=10, help="number of seeds to run"
    )
    parser.add_argument(
        "--seed-start", type=int, default=0, help="first seed of the range"
    )
    parser.add_argument(
        "--bundle-dir",
        type=Path,
        default=None,
        help="directory for failure-reproduction bundles",
    )
    parser.add_argument(
        "--mode",
        choices=("fluid", "event"),
        default="fluid",
        help="simulator fidelity mode",
    )
    parser.add_argument(
        "--skip-transparency",
        action="store_true",
        help="skip the empty-schedule bit-identity check",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        # An empty seed range would run zero checks yet exit 0, which a
        # CI lane would read as a pass.
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    config = ChaosConfig(mode=args.mode)

    failures = 0
    extra_checks = 0
    if not args.skip_transparency:
        extra_checks += 1
        if check_transparency(config):
            print("transparency: ok (empty schedule is byte-identical)")
        else:
            print("transparency: FAILED (empty schedule altered the run)")
            failures += 1
    if args.mode == "event":
        extra_checks += 1
        if check_engine_agreement(config, seed=args.seed_start):
            print("engine agreement: ok (batched == reference, faulted)")
        else:
            print("engine agreement: FAILED (batched != reference)")
            failures += 1

    seeds = range(args.seed_start, args.seed_start + args.seeds)
    for run in run_seeds(seeds, config, bundle_dir=args.bundle_dir):
        print(run.describe())
        if not run.ok:
            failures += 1
    total = args.seeds + extra_checks
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
