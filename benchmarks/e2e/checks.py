"""Output checks for every call the benchmark makes.

* The experiments pinned in ``tests/golden/`` (quick mode) are compared
  with their golden files, using the golden test's own fingerprint
  helper and tolerances.
* Every other output is compared with a reference fingerprint under
  ``reference/``, written by ``run.py --write-reference``.
* Every event-mode simulator run, on any seed, must also satisfy the
  :mod:`repro.faults.invariants` finite, state-of-charge and
  energy-balance checks.

A check returns a list of mismatch messages; empty means correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from tests.test_golden_figures import (
    ABS_TOL,
    GOLDEN_DIR,
    GOLDEN_EXPERIMENTS,
    REL_TOL,
    _fingerprint,
    _series_stats,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: SimulationResult traces fingerprinted by their series statistics.
SIMULATION_SERIES = (
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
)


def _plain(value: object) -> object:
    """The value as JSON reads it back (tuples become lists, and so on)."""
    return json.loads(json.dumps(value))


def experiment_fingerprint(result, quick: bool) -> dict:
    fingerprint = _fingerprint(result)
    fingerprint["quick"] = quick
    return _plain(fingerprint)


def simulation_fingerprint(result) -> dict:
    return _plain(
        {
            "server_count": result.server_count,
            "series": {
                name: _series_stats(getattr(result, name))
                for name in SIMULATION_SERIES
            },
            "summary": {
                "energy_kwh": result.energy_kwh(),
                "peak_cooling_load_w": result.peak_cooling_load_w,
                "peak_power_w": result.peak_power_w,
            },
        }
    )


def experiment_expected(experiment_id: str, quick: bool) -> tuple[Path, bool]:
    """Where an experiment's expected fingerprint lives, and if it is golden."""
    if quick and experiment_id in GOLDEN_EXPERIMENTS:
        return GOLDEN_DIR / f"{experiment_id}.json", True
    mode = "quick" if quick else "full"
    return REFERENCE_DIR / f"{experiment_id}-{mode}.json", False


def simulation_expected(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def write_reference(path: Path, fingerprint: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True) + "\n")


def compare(measured: object, expected: object, where: str = "") -> list[str]:
    """Mismatches between two fingerprints; numbers at the golden tolerances."""
    if isinstance(expected, dict) and isinstance(measured, dict):
        if set(measured) != set(expected):
            return [
                f"{where or '.'}: keys differ (added "
                f"{sorted(set(measured) - set(expected))}, removed "
                f"{sorted(set(expected) - set(measured))})"
            ]
        return [
            problem
            for key in expected
            for problem in compare(measured[key], expected[key], f"{where}.{key}")
        ]
    if isinstance(expected, list) and isinstance(measured, list):
        if len(measured) != len(expected):
            return [f"{where}: length {len(measured)} != {len(expected)}"]
        return [
            problem
            for index, (got, want) in enumerate(zip(measured, expected))
            for problem in compare(got, want, f"{where}[{index}]")
        ]
    numbers = (int, float)
    if (
        isinstance(expected, numbers)
        and isinstance(measured, numbers)
        and not isinstance(expected, bool)
        and not isinstance(measured, bool)
    ):
        if math.isnan(expected) and math.isnan(measured):
            return []
        if math.isclose(measured, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {measured!r} != {expected!r}"]
    if measured != expected:
        return [f"{where}: {measured!r} != {expected!r}"]
    return []


def check_against(path: Path, fingerprint: dict) -> list[str]:
    """Compare a fingerprint with the file holding its expected value."""
    if not path.exists():
        return [f"no expected fingerprint {path.name}"]
    try:
        expected = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        return [f"{path.name} is not valid JSON: {error}"]
    return compare(fingerprint, expected)


def simulation_invariants(simulator, result) -> list[str]:
    """The fault-invariant checks every simulator run must pass."""
    from repro.faults.invariants import (
        check_energy_balance,
        check_finite,
        check_state_of_charge,
    )

    final = simulator.final_state
    violations = check_finite(result)
    violations += check_state_of_charge(result, final_state=final)
    violations += check_energy_balance(
        result,
        tick_interval_s=simulator.config.tick_interval_s,
        initial_enthalpy_j_per_kg=simulator.initial_specific_enthalpy_j_per_kg,
        final_state=final,
        wax_mass_kg=final.wax_mass_kg,
    )
    return [str(v) for v in violations]


def paper_error_pct(results) -> float | None:
    """Mean absolute relative error, in percent, over every experiment/key
    pair that has both a measured and a paper value (paper value nonzero)."""
    errors = [
        abs(result.summary[key] - paper) / abs(paper)
        for result in results
        for key, paper in result.paper.items()
        if key in result.summary and paper != 0
    ]
    return 100.0 * sum(errors) / len(errors) if errors else None
