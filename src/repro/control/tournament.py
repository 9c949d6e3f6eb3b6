"""Policy tournament: every planner, same scenarios, one scoreboard.

The tournament races each registered policy over a shared scenario
suite — the chaos harness's diurnal plant (optionally swapped for the
synthetic workloads in :mod:`repro.workload.synthetic`), seeded chaos
fault schedules, and hand-pinned fault scenarios — and scores three
axes per (planner, scenario) cell:

* **energy_kwh** — cooling electricity via
  :func:`repro.tco.energy.cooling_energy_cost` (time-of-use tariff,
  ambient-dependent COP);
* **slo_violations** — ticks where the cluster broke its service
  objective: ran throttled below nominal or shed offered work;
* **recovery_time_s** — time from the last fault clearing until the
  cluster is simultaneously back at nominal frequency and the room is
  comfortably under its limit.

Every cell also records the run's bitwise
:func:`repro.faults.chaos.result_fingerprint`, so a scoreboard doubles
as a regression oracle: :func:`write_bundle` persists a scenario's
scoreboard as a ``repro.control.bundle/1`` JSON bundle and
:func:`replay_bundle` re-runs it and verifies the fingerprints match
(the same replayable-artifact scheme as the faults subsystem's
``repro.faults.bundle/1``).

Run it from the command line::

    python -m repro.control.tournament --quick --chaos-seeds 2 \
        --output scoreboard.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.control.loop import ControlLoop
from repro.control.planners import (
    MPCPolicy,
    NoOpPlanner,
    Planner,
    ScheduledPolicy,
)
from repro.dcsim.simulator import DatacenterSimulator, SimulationResult
from repro.errors import ControlError, FaultError
from repro.faults.chaos import (
    ChaosConfig,
    build_simulator,
    paper_policy,
    random_schedule,
    result_fingerprint,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import COOLING_LOSS, Fault, FaultSchedule
from repro.obs import get_registry
from repro.tco.energy import (
    AmbientAwarePlant,
    AmbientProfile,
    ElectricityTariff,
    cooling_energy_cost,
)
from repro.units import hours
from repro.workload.synthetic import diurnal_trace, double_peak_trace
from repro.workload.trace import LoadTrace

#: Schema tag of serialized tournament bundles; bump on layout changes.
BUNDLE_SCHEMA = "repro.control.bundle/1"

#: Margin under the room limit that counts as "recovered".
RECOVERY_MARGIN_C = 0.5


# -- planner registry --------------------------------------------------------


def _loop(planner: Callable[[], Planner]) -> Callable:
    """``factory(room, injector)``: a fresh ``planner()`` in a control loop."""

    def factory(room, injector) -> ControlLoop:
        return ControlLoop(planner(), room, injector=injector)

    return factory


#: Each entry's ``build_simulator`` policy factory, ``factory(room,
#: injector)``: the paper's throttle stack itself for ``greedy``, a
#: control loop around a planner for the others.
PLANNERS: dict[str, Callable] = {
    "greedy": paper_policy,
    "mpc": _loop(MPCPolicy),
    "scheduled": _loop(ScheduledPolicy),
    "noop": _loop(NoOpPlanner),
}


def control_policy_factory(planner_name: str) -> Callable:
    """The ``build_simulator`` policy factory of one registered entry."""
    if planner_name not in PLANNERS:
        raise ControlError(
            f"unknown planner {planner_name!r}; choose from "
            f"{sorted(PLANNERS)}"
        )
    return PLANNERS[planner_name]


# -- scenarios ---------------------------------------------------------------

WORKLOADS = ("chaos", "diurnal", "double_peak")


@dataclass(frozen=True)
class ControlScenario:
    """One tournament scenario: a plant, a workload, and an adversary.

    Exactly one fault source applies: ``fault_seed`` draws a chaos
    schedule, ``pinned`` injects a hand-written fault tuple, neither
    means a clean run.
    """

    name: str
    chaos: ChaosConfig
    workload: str = "chaos"
    fault_seed: int | None = None
    pinned: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ControlError("scenario name must be non-empty")
        if self.workload not in WORKLOADS:
            raise ControlError(
                f"unknown workload {self.workload!r}; choose from "
                f"{WORKLOADS}"
            )
        if self.fault_seed is not None and self.pinned:
            raise ControlError(
                "a scenario takes either a chaos fault_seed or pinned "
                "faults, not both"
            )

    def schedule(self) -> FaultSchedule:
        """The scenario's fault schedule (empty for clean runs)."""
        if self.fault_seed is not None:
            return random_schedule(self.fault_seed, self.chaos)
        if self.pinned:
            return FaultSchedule(self.pinned, name=f"{self.name}-pinned")
        return FaultSchedule.empty(self.name)

    def trace(self) -> LoadTrace | None:
        """The scenario's workload (``None`` = the chaos default)."""
        if self.workload == "diurnal":
            return diurnal_trace(
                duration_s=self.chaos.duration_s,
                interval_s=self.chaos.tick_interval_s,
            )
        if self.workload == "double_peak":
            return double_peak_trace(
                duration_s=self.chaos.duration_s,
                interval_s=self.chaos.tick_interval_s,
            )
        return None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "chaos": asdict(self.chaos),
            "workload": self.workload,
            "fault_seed": self.fault_seed,
            "pinned": [fault.to_dict() for fault in self.pinned],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ControlScenario":
        try:
            return cls(
                name=str(data["name"]),
                chaos=ChaosConfig(**data["chaos"]),
                workload=str(data["workload"]),
                fault_seed=(
                    None
                    if data["fault_seed"] is None
                    else int(data["fault_seed"])
                ),
                pinned=tuple(
                    Fault.from_dict(f) for f in data["pinned"]
                ),
            )
        except (KeyError, TypeError, ValueError, FaultError) as exc:
            raise ControlError(
                f"malformed scenario payload: {exc}"
            ) from exc


def quick_chaos_config() -> ChaosConfig:
    """The fast-lane plant: small cluster, coarse ticks, 20 h horizon."""
    return ChaosConfig(
        server_count=8,
        duration_s=hours(20.0),
        tick_interval_s=120.0,
        fault_start_s=hours(2.0),
        fault_end_s=hours(14.0),
        max_fault_s=hours(4.0),
        quiet_from_s=hours(16.0),
        relax_s=hours(2.0),
    )


def smoke_chaos_config() -> ChaosConfig:
    """The CI-smoke plant: ~300 ticks, used by the replay fixtures too."""
    return ChaosConfig(
        server_count=8,
        duration_s=hours(10.0),
        tick_interval_s=120.0,
        fault_start_s=hours(1.0),
        fault_end_s=hours(5.0),
        max_fault_s=hours(2.0),
        quiet_from_s=hours(6.0),
        relax_s=hours(2.0),
    )


def pinned_cooling_loss(config: ChaosConfig) -> tuple[Fault, ...]:
    """The acceptance fault: 45% plant capacity lost into the peak.

    The window ends exactly at the demand peak (hour 13 of the chaos
    trace), so at clearance the plant is oversubscribed against peak
    load. A hysteresis latch that insists the *nominal* release fit the
    plant before un-throttling stays pinned for hours after the fault is
    gone; a replanning controller releases as soon as the restored
    plant has pulled the room down — which is the recovery-time gap the
    tournament measures.
    """
    end_s = min(hours(13.0), config.quiet_from_s)
    return (Fault(COOLING_LOSS, end_s - hours(4.0), end_s, 0.45),)


def default_scenarios(
    quick: bool = False, chaos_seeds: int = 1
) -> list[ControlScenario]:
    """The shared suite every planner is scored against."""
    config = quick_chaos_config() if quick else ChaosConfig()
    scenarios = [
        ControlScenario(name="diurnal_clean", chaos=config),
        ControlScenario(
            name="double_peak_clean", chaos=config, workload="double_peak"
        ),
        ControlScenario(
            name="pinned_cooling_loss",
            chaos=config,
            pinned=pinned_cooling_loss(config),
        ),
    ]
    for seed in range(chaos_seeds):
        scenarios.append(
            ControlScenario(
                name=f"chaos_{seed}", chaos=config, fault_seed=seed
            )
        )
    return scenarios


def build_scenario_simulator(
    scenario: ControlScenario, planner_name: str
) -> DatacenterSimulator:
    """The scenario's plant wired to one registered entry's policy."""
    schedule = scenario.schedule()
    injector = FaultInjector(schedule) if len(schedule) else None
    return build_simulator(
        scenario.chaos,
        injector,
        policy_factory=control_policy_factory(planner_name),
        trace=scenario.trace(),
    )


# -- scoring -----------------------------------------------------------------


def recovery_time_s(
    result: SimulationResult,
    schedule: FaultSchedule,
    room_max_c: float,
) -> float:
    """Seconds from the last fault clearing to full recovery.

    Recovered means simultaneously back at nominal frequency and with
    the room at least :data:`RECOVERY_MARGIN_C` under its limit. A run
    that never recovers scores the full remaining horizon — worst
    possible, so it still ranks.
    """
    if not schedule.faults:
        return 0.0
    clearance = max(fault.end_s for fault in schedule.faults)
    times = result.times_s
    nominal = result.nominal_frequency_ghz
    after = times >= clearance - 1e-9
    recovered = (
        after
        & (result.frequency_ghz >= nominal - 1e-9)
        & (result.room_temperature_c <= room_max_c - RECOVERY_MARGIN_C)
    )
    hits = np.flatnonzero(recovered)
    if len(hits) == 0:
        return float(times[-1] - clearance)
    return float(times[hits[0]] - clearance)


@dataclass(frozen=True)
class PlannerScore:
    """One (planner, scenario) cell of the scoreboard."""

    planner: str
    scenario: str
    energy_kwh: float
    throttle_ticks: int
    shed_ticks: int
    recovery_time_s: float
    fingerprint: str

    @property
    def slo_violations(self) -> int:
        """Ticks that broke the service objective (throttled or shed)."""
        return self.throttle_ticks + self.shed_ticks


@dataclass
class Scoreboard:
    """All (planner, scenario) scores from one tournament.

    ``results`` keeps each cell's scored run by ``(planner, scenario)``;
    :meth:`to_dict` and :meth:`fingerprint` do not read it.
    """

    scores: list[PlannerScore] = field(default_factory=list)
    results: dict[tuple[str, str], SimulationResult] = field(
        default_factory=dict, repr=False, compare=False
    )

    def cell(self, planner: str, scenario: str) -> PlannerScore:
        for score in self.scores:
            if score.planner == planner and score.scenario == scenario:
                return score
        raise ControlError(
            f"no score for planner {planner!r} on scenario {scenario!r}"
        )

    def planners(self) -> list[str]:
        return sorted({score.planner for score in self.scores})

    def scenarios(self) -> list[str]:
        return sorted({score.scenario for score in self.scores})

    def to_dict(self) -> dict[str, object]:
        rows = sorted(
            self.scores, key=lambda s: (s.scenario, s.planner)
        )
        return {
            "schema": BUNDLE_SCHEMA,
            "scores": [
                {**asdict(score), "slo_violations": score.slo_violations}
                for score in rows
            ],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form — equal iff identical."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Scoreboard":
        try:
            scores = [
                PlannerScore(
                    planner=str(row["planner"]),
                    scenario=str(row["scenario"]),
                    energy_kwh=float(row["energy_kwh"]),
                    throttle_ticks=int(row["throttle_ticks"]),
                    shed_ticks=int(row["shed_ticks"]),
                    recovery_time_s=float(row["recovery_time_s"]),
                    fingerprint=str(row["fingerprint"]),
                )
                for row in data["scores"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ControlError(
                f"malformed scoreboard payload: {exc}"
            ) from exc
        return cls(scores=scores)


def score_run(
    planner_name: str,
    scenario: ControlScenario,
    result: SimulationResult,
    room_max_c: float,
    tariff: ElectricityTariff | None = None,
    ambient: AmbientProfile | None = None,
    plant: AmbientAwarePlant | None = None,
) -> PlannerScore:
    """Score one finished run on the tournament's three axes."""
    cost = cooling_energy_cost(
        result,
        tariff=tariff or ElectricityTariff(),
        ambient=ambient or AmbientProfile(),
        plant=plant or AmbientAwarePlant(),
    )
    return PlannerScore(
        planner=planner_name,
        scenario=scenario.name,
        energy_kwh=cost.cooling_energy_kwh,
        throttle_ticks=int(np.sum(result.throttled_mask())),
        shed_ticks=int(np.sum(result.shed_work > 1e-9)),
        recovery_time_s=recovery_time_s(
            result, scenario.schedule(), room_max_c
        ),
        fingerprint=result_fingerprint(result),
    )


def run_tournament(
    scenarios: Sequence[ControlScenario] | None = None,
    planners: Sequence[str] | None = None,
    quick: bool = False,
    chaos_seeds: int = 1,
) -> Scoreboard:
    """Race every planner over every scenario; returns the scoreboard."""
    if scenarios is None:
        scenarios = default_scenarios(quick=quick, chaos_seeds=chaos_seeds)
    if planners is None:
        planners = [name for name in PLANNERS if name != "noop"]
    for name in planners:
        if name not in PLANNERS:
            raise ControlError(
                f"unknown planner {name!r}; choose from {sorted(PLANNERS)}"
            )
    if not scenarios or not planners:
        raise ControlError("a tournament needs >= 1 scenario and planner")
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) < len(names) or len(set(planners)) < len(planners):
        raise ControlError("a cell's planner and scenario names must be unique")

    registry = get_registry()
    board = Scoreboard()
    for scenario in scenarios:
        for name in planners:
            sim = build_scenario_simulator(scenario, name)
            with registry.timer(f"control.tournament.{name}"):
                result = sim.run()
            board.scores.append(
                score_run(
                    name, scenario, result, sim.room.max_temperature_c
                )
            )
            board.results[(name, scenario.name)] = result
            registry.count("control.tournament.cells")
    return board


# -- replayable bundles ------------------------------------------------------


@dataclass
class TournamentRun:
    """One scenario's scoreboard slice plus everything to replay it."""

    scenario: ControlScenario
    planners: tuple[str, ...]
    scoreboard: Scoreboard

    @property
    def fingerprint(self) -> str:
        return self.scoreboard.fingerprint()


def run_scenario(
    scenario: ControlScenario, planners: Sequence[str]
) -> TournamentRun:
    """Run one scenario under the given planners (bundle granularity)."""
    board = run_tournament(scenarios=[scenario], planners=list(planners))
    return TournamentRun(
        scenario=scenario, planners=tuple(planners), scoreboard=board
    )


def write_bundle(run: TournamentRun, directory: Path | str) -> Path:
    """Persist a scenario's replayable bundle; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BUNDLE_SCHEMA,
        "scenario": run.scenario.to_dict(),
        "planners": list(run.planners),
        "scoreboard": run.scoreboard.to_dict(),
        "fingerprint": run.fingerprint,
    }
    path = directory / f"{run.scenario.name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


def read_bundle(path: Path | str) -> dict[str, object]:
    """Load and validate a bundle's JSON payload."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ControlError(f"unreadable bundle {path}: {exc}") from exc
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ControlError(f"bundle {path} has no schema tag")
    if payload["schema"] != BUNDLE_SCHEMA:
        raise ControlError(
            f"bundle {path} has schema {payload['schema']!r}, expected "
            f"{BUNDLE_SCHEMA!r}"
        )
    for key in ("scenario", "planners", "fingerprint"):
        if key not in payload:
            raise ControlError(f"bundle {path} is missing {key!r}")
    if not isinstance(payload["planners"], list):
        raise ControlError(f"bundle {path} has no 'planners' list")
    return payload


def replay_bundle(path: Path | str) -> TournamentRun:
    """Re-run the exact scenario a bundle recorded.

    The returned run's fingerprint must equal the bundle's stored
    ``fingerprint`` on a healthy tree — the replay test asserts exactly
    that.
    """
    payload = read_bundle(path)
    scenario = ControlScenario.from_dict(payload["scenario"])
    planners = tuple(str(name) for name in payload["planners"])
    return run_scenario(scenario, planners)


# -- command line ------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the tournament and print / persist the scoreboard."""
    parser = argparse.ArgumentParser(
        prog="repro-control-tournament", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--quick", action="store_true", help="small cluster, 20 h horizon"
    )
    parser.add_argument(
        "--chaos-seeds",
        type=int,
        default=1,
        help="number of seeded chaos-adversary scenarios (default 1)",
    )
    parser.add_argument(
        "--planners",
        default=None,
        help="comma-separated planner subset (default: all but noop)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the scoreboard JSON here",
    )
    args = parser.parse_args(argv)
    if args.chaos_seeds < 0:
        parser.error("--chaos-seeds must be >= 0")
    planners = (
        [name for name in args.planners.split(",") if name]
        if args.planners is not None
        else None
    )

    try:
        board = run_tournament(
            planners=planners,
            quick=args.quick,
            chaos_seeds=args.chaos_seeds,
        )
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = (
        f"{'scenario':<22} {'planner':<10} {'kWh':>9} {'slo':>6} "
        f"{'recovery_s':>11}"
    )
    print(header)
    for score in sorted(
        board.scores, key=lambda s: (s.scenario, s.planner)
    ):
        print(
            f"{score.scenario:<22} {score.planner:<10} "
            f"{score.energy_kwh:>9.3f} {score.slo_violations:>6d} "
            f"{score.recovery_time_s:>11.0f}"
        )
    print(f"fingerprint: {board.fingerprint()}")
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(board.to_dict(), indent=1, sort_keys=True)
        )
        print(f"scoreboard written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
