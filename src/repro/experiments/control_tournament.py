"""Control-policy tournament: closed-loop planners racing on one plant.

Not a paper figure — the control-subsystem extension study. Every
registered entry (the paper's own hysteresis throttle as ``greedy``,
receding-horizon MPC, time-of-day schedule) drives the chaos harness's
oversubscribed plant through the shared scenario suite, and the
scoreboard compares cooling energy, SLO violations (throttled or shed
ticks), and post-fault recovery time.

The headline cells reproduce the control claim: on the pinned
cooling-loss scenario (45% of plant capacity lost for the four hours
into the demand peak) the MPC planner spends less cooling energy than
the open-loop schedule *and* recovers faster than the greedy
hysteresis latch, which stays throttled long after the fault clears
because the nominal release does not fit the just-restored plant at
peak load.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult
from repro.control.tournament import run_tournament

#: The scenario the acceptance orderings are asserted on.
PINNED_SCENARIO = "pinned_cooling_loss"


def run(quick: bool = False) -> ExperimentResult:
    """Run the tournament and compare its pinned-scenario room traces."""
    board = run_tournament(quick=quick, chaos_seeds=1)

    headers = [
        "scenario",
        "planner",
        "cooling kWh",
        "throttle ticks",
        "shed ticks",
        "SLO violations",
        "recovery (s)",
    ]
    rows = [
        [
            score.scenario,
            score.planner,
            f"{score.energy_kwh:.4f}",
            score.throttle_ticks,
            score.shed_ticks,
            score.slo_violations,
            f"{score.recovery_time_s:.0f}",
        ]
        for score in sorted(
            board.scores, key=lambda s: (s.scenario, s.planner)
        )
    ]

    # Room-temperature traces on the acceptance scenario, one per
    # planner, read off the scored runs.
    series: dict[str, np.ndarray] = {}
    for name in ("greedy", "mpc", "scheduled"):
        result = board.results[(name, PINNED_SCENARIO)]
        series[f"pinned_room_{name}_c"] = result.room_temperature_c
        if "times_h" not in series:
            series["times_h"] = result.times_s / 3600.0

    mpc = board.cell("mpc", PINNED_SCENARIO)
    greedy = board.cell("greedy", PINNED_SCENARIO)
    scheduled = board.cell("scheduled", PINNED_SCENARIO)
    summary = {
        "mpc_energy_kwh": mpc.energy_kwh,
        "scheduled_energy_kwh": scheduled.energy_kwh,
        "energy_advantage_kwh": scheduled.energy_kwh - mpc.energy_kwh,
        "mpc_recovery_s": mpc.recovery_time_s,
        "greedy_recovery_s": greedy.recovery_time_s,
        "recovery_advantage_s": greedy.recovery_time_s - mpc.recovery_time_s,
        "mpc_slo_violations": float(mpc.slo_violations),
        "greedy_slo_violations": float(greedy.slo_violations),
    }

    return ExperimentResult(
        experiment_id="control_tournament",
        title="Closed-loop control policy tournament",
        tables={"Tournament scoreboard": (headers, rows)},
        series=series,
        summary=summary,
    )
