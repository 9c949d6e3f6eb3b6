"""Figure 7: server temperatures as airflow is progressively blocked.

For each platform, a uniform grille blocks 0-90% of the airflow at
constant full load (the paper maintains "constant frequency and power
consumption to maintain parity across configurations"); the steady outlet
and CPU temperatures are recorded.

Paper shape anchors:

* 1U — CPU temperatures rise less than 2 degC below 50% blockage, and the
  outlet rises ~14 degC at 90%; no unsafe temperatures at any blockage.
* 2U — stable below ~50-60%, rising steeply above 70%.
* Open Compute — already hot at zero blockage; temperatures climb
  steeply as soon as almost any airflow is obstructed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult
from repro.runner.pool import sweep
from repro.server.chassis import constant_utilization
from repro.server.configs import PLATFORM_BUILDERS
from repro.thermal.steady_state import solve_steady_state_batch


def blockage_sweep(platform: str, fractions: np.ndarray) -> dict[str, np.ndarray]:
    """Steady outlet and (hottest) CPU temperatures across a grille sweep.

    One :func:`~repro.thermal.steady_state.solve_steady_state_batch`
    call (bit-identical to point-by-point solves); chassis networks are
    far below the sparse thresholds, so ``"auto"`` keeps the dict sweep.
    """
    spec = PLATFORM_BUILDERS[platform]()
    networks = [
        spec.chassis.with_grille_blockage(float(fraction)).build_network(
            constant_utilization(1.0)
        )
        for fraction in fractions
    ]
    outlet: list[float] = []
    cpu: list[float] = []
    for steady in solve_steady_state_batch(networks):
        outlet.append(steady.outlet_temperature_c())
        cpu.append(
            max(
                value
                for name, value in steady.temperatures_c.items()
                if name.startswith("cpu")
            )
        )
    return {
        "blockage": fractions,
        "outlet_c": np.array(outlet),
        "cpu_c": np.array(cpu),
    }


def _solve_platform(
    task: tuple[str, tuple[float, ...]],
) -> dict[str, np.ndarray]:
    """Sweep worker: one platform's whole grid as one :func:`blockage_sweep`."""
    platform, fractions = task
    return blockage_sweep(platform, np.array(fractions))


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """Sweep grille blockage for all three platforms.

    Each platform's whole fraction grid is solved as one batch; with
    ``jobs > 1`` the three platform batches fan out over the pool.
    """
    step = 0.15 if quick else 0.05
    fractions = np.arange(0.0, 0.90 + 1e-9, step)
    platforms = ("1u", "2u", "ocp")

    result = ExperimentResult(
        experiment_id="fig7",
        title="Server temperatures vs airflow blockage",
    )
    grid = [
        (platform, tuple(float(fraction) for fraction in fractions))
        for platform in platforms
    ]
    points = sweep(
        _solve_platform, grid, jobs=jobs, label="runner.fig7_blockage"
    )

    sweeps = dict(zip(platforms, points))
    for platform, curve in sweeps.items():
        result.series[f"{platform}_blockage"] = curve["blockage"]
        result.series[f"{platform}_outlet_c"] = curve["outlet_c"]
        result.series[f"{platform}_cpu_c"] = curve["cpu_c"]
        rows = [
            [f"{b:.0%}", f"{o:.1f}", f"{c:.1f}"]
            for b, o, c in zip(
                curve["blockage"], curve["outlet_c"], curve["cpu_c"]
            )
        ]
        result.tables[f"Fig 7 ({platform}): temperatures vs blockage"] = (
            ["blocked", "outlet degC", "hottest CPU degC"],
            rows,
        )

    def rise(curve: dict[str, np.ndarray], key: str, fraction: float) -> float:
        index = int(np.argmin(np.abs(curve["blockage"] - fraction)))
        return float(curve[key][index] - curve[key][0])

    result.summary = {
        "1u_outlet_rise_at_90pct_c": rise(sweeps["1u"], "outlet_c", 0.90),
        "1u_cpu_rise_at_50pct_c": rise(sweeps["1u"], "cpu_c", 0.50),
        "2u_outlet_rise_at_50pct_c": rise(sweeps["2u"], "outlet_c", 0.50),
        "2u_outlet_rise_at_69pct_c": rise(sweeps["2u"], "outlet_c", 0.69),
        "2u_outlet_rise_at_90pct_c": rise(sweeps["2u"], "outlet_c", 0.90),
        "ocp_outlet_rise_at_30pct_c": rise(sweeps["ocp"], "outlet_c", 0.30),
        "ocp_outlet_at_0pct_c": float(sweeps["ocp"]["outlet_c"][0]),
    }
    result.paper = {
        "1u_outlet_rise_at_90pct_c": 14.0,
        "1u_cpu_rise_at_50pct_c": 2.0,
        "2u_outlet_rise_at_69pct_c": 6.0,
        "ocp_outlet_rise_at_30pct_c": 30.0,
    }
    return result
