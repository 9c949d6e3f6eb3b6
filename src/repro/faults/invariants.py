"""Global invariants every faulted simulation run must satisfy.

The chaos harness (:mod:`repro.faults.chaos`) checks these after every
run. They are chosen to be *global*: true for any schedule the
generator can produce, not just for nominal operation —

* every recorded trace is finite (no NaN/inf temperatures or powers);
* the PCM state of charge (melt fraction) stays in [0, 1] and the wax
  temperature stays physically plausible;
* energy is conserved: per tick, release = power - wax absorption, and
  over the run the wax enthalpy delta equals the integrated wax heat
  flow;
* after the last fault clears (plus a relaxation window), the room
  temperature recovers monotonically — it sets no new peak.

Each check returns a list of :class:`Violation` (empty = invariant
holds) rather than raising, so the harness can report every broken
invariant of a failing seed at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dcsim.simulator import SimulationResult
from repro.units import hours


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to triage."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


def check_finite(result: SimulationResult) -> list[Violation]:
    """Every recorded trace must be finite everywhere."""
    violations: list[Violation] = []
    traces: dict[str, np.ndarray | None] = {
        "demand": result.demand,
        "utilization": result.utilization,
        "frequency_ghz": result.frequency_ghz,
        "power_w": result.power_w,
        "cooling_load_w": result.cooling_load_w,
        "wax_heat_w": result.wax_heat_w,
        "melt_fraction": result.melt_fraction,
        "throughput": result.throughput,
        "queue_length": result.queue_length,
        "shed_work": result.shed_work,
        "room_temperature_c": result.room_temperature_c,
    }
    for name, trace in traces.items():
        if trace is None:
            continue
        bad = ~np.isfinite(trace)
        if np.any(bad):
            index = int(np.argmax(bad))
            violations.append(
                Violation(
                    "finite",
                    f"{name}[{index}] = {trace[index]!r} at "
                    f"t={result.times_s[index]:.0f}s",
                )
            )
    return violations


def check_state_of_charge(
    result: SimulationResult,
    final_state=None,
    temperature_bounds_c: tuple[float, float] = (-40.0, 150.0),
) -> list[Violation]:
    """PCM state of charge in [0, 1]; wax and zone temperatures sane."""
    violations: list[Violation] = []
    melt = result.melt_fraction
    if np.any(melt < -1e-12) or np.any(melt > 1.0 + 1e-12):
        violations.append(
            Violation(
                "state_of_charge",
                f"melt fraction left [0, 1]: range "
                f"[{np.min(melt):.6g}, {np.max(melt):.6g}]",
            )
        )
    if final_state is not None:
        enthalpy = np.asarray(final_state.specific_enthalpy_j_per_kg)
        if not np.all(np.isfinite(enthalpy)):
            violations.append(
                Violation("state_of_charge", "final wax enthalpy is not finite")
            )
        else:
            low, high = temperature_bounds_c
            for label, temps in (
                ("wax", np.asarray(final_state.wax_temperature_c)),
                ("zone", np.asarray(final_state.zone_temperature_c)),
            ):
                if np.any(temps < low) or np.any(temps > high):
                    violations.append(
                        Violation(
                            "state_of_charge",
                            f"final {label} temperature outside "
                            f"[{low}, {high}] C: range "
                            f"[{np.min(temps):.3f}, {np.max(temps):.3f}]",
                        )
                    )
    return violations


def check_energy_balance(
    result: SimulationResult,
    tick_interval_s: float,
    initial_enthalpy_j_per_kg: np.ndarray | None = None,
    final_state=None,
    wax_mass_kg: float | None = None,
    check_enthalpy_closure: bool = True,
) -> list[Violation]:
    """Energy conservation, per tick and over the whole run.

    Per tick the simulator computes ``release = power - wax`` directly,
    so the recorded cluster sums must close to floating-point noise. Over
    the run, the integrated wax heat flow must equal the enthalpy the wax
    actually banked. The closure check is skipped when a PCM-degradation
    fault varies the effective wax mass mid-run (pass
    ``check_enthalpy_closure=False``), since the simple product no longer
    describes the integral.
    """
    violations: list[Violation] = []
    residual = result.power_w - result.cooling_load_w - result.wax_heat_w
    scale = max(1.0, float(np.max(np.abs(result.power_w), initial=0.0)))
    worst = float(np.max(np.abs(residual), initial=0.0))
    if worst > 1e-9 * scale:
        index = int(np.argmax(np.abs(residual)))
        violations.append(
            Violation(
                "energy_balance",
                f"power - release - wax = {residual[index]:.6g} W at "
                f"t={result.times_s[index]:.0f}s (tolerance "
                f"{1e-9 * scale:.3g} W)",
            )
        )

    if (
        check_enthalpy_closure
        and initial_enthalpy_j_per_kg is not None
        and final_state is not None
        and wax_mass_kg is not None
    ):
        delta_h = (
            np.asarray(final_state.specific_enthalpy_j_per_kg, dtype=float)
            - np.asarray(initial_enthalpy_j_per_kg, dtype=float)
        )
        banked_j = float(np.sum(delta_h)) * wax_mass_kg
        integrated_j = float(np.sum(result.wax_heat_w)) * tick_interval_s
        budget = max(
            1.0, float(np.sum(np.abs(result.wax_heat_w))) * tick_interval_s
        )
        if abs(banked_j - integrated_j) > 1e-6 * budget:
            violations.append(
                Violation(
                    "energy_balance",
                    f"wax enthalpy closure failed: banked {banked_j:.6g} J "
                    f"vs integrated {integrated_j:.6g} J",
                )
            )
    return violations


def check_monotone_recovery(
    result: SimulationResult,
    clearance_s: float,
    relax_s: float = hours(4.0),
    tolerance_c: float = 0.05,
    *,
    thermal_mass_j_per_k: float,
) -> list[Violation]:
    """After faults clear and the system relaxes, no new thermal peak.

    From ``clearance_s + relax_s`` onward the room temperature must never
    exceed its value at the start of that window by more than
    ``tolerance_c`` — a recovering system cannot climb to a fresh peak.
    The wax may still be refreezing, though, and the heat it releases
    legitimately warms the room: given the room's
    ``thermal_mass_j_per_k``, each sample's allowance grows by the
    refreeze heat released since the window opened (the integral of
    ``max(-wax_heat_w, 0)``) divided by that mass. That credit can lift
    the allowance back toward the room's peak before the window, never
    past it, so a true new peak always fails. Vacuously true when the
    run has no room model or the window is empty.
    """
    room = result.room_temperature_c
    if room is None:
        return []
    window = result.times_s >= clearance_s + relax_s
    if not np.any(window):
        return []
    temps = room[window]
    start = float(temps[0])
    refreeze_w = np.maximum(-np.asarray(result.wax_heat_w)[window], 0.0)
    released_j = np.concatenate(
        ([0.0], np.cumsum(refreeze_w[1:] * np.diff(result.times_s[window])))
    )
    base = start + tolerance_c
    earlier_peak = float(room[~window].max()) if not np.all(window) else start
    allowance = np.minimum(
        base + released_j / thermal_mass_j_per_k, max(earlier_peak, base)
    )
    excess = temps - allowance
    index = int(np.argmax(excess))
    if excess[index] > 0.0:
        when = result.times_s[window][index]
        return [
            Violation(
                "monotone_recovery",
                f"room reached {temps[index]:.3f} C at t={when:.0f}s, above "
                f"the recovery-window start {start:.3f} C + {tolerance_c} C "
                f"+ refreeze credit {allowance[index] - base:.3f} C",
            )
        ]
    return []


def identical_results(a: SimulationResult, b: SimulationResult) -> bool:
    """Whether two runs produced byte-identical traces."""

    def bytes_of(array: np.ndarray | None) -> bytes | None:
        return None if array is None else np.ascontiguousarray(array).tobytes()

    fields = (
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
    )
    return all(
        bytes_of(getattr(a, name)) == bytes_of(getattr(b, name))
        for name in fields
    )
