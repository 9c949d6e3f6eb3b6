"""Time-of-day energy economics of thermal time shifting.

Figure 1 of the paper lists two additional advantages of releasing the
stored heat at night: "Nighttime: lower ambient temperature, more natural
cooling opportunities" and "Off-peak time: power is cheaper". Section 4.3
supplies the rates: "a peak electricity cost of $0.13 per kWh and an
off-peak electricity cost of $0.08 per kWh".

This module monetizes both effects for a simulated cluster run:

* a two-rate :class:`ElectricityTariff` (peak window configurable);
* a sinusoidal :class:`AmbientProfile` of outdoor temperature;
* an :class:`AmbientAwarePlant` whose coefficient of performance falls as
  the outdoor temperature rises (condenser-side penalty — the standard
  chiller behaviour that makes night-time heat rejection cheaper);
* :func:`cooling_energy_cost`, which integrates a cooling-load trace
  against the tariff and the ambient-dependent COP.

PCM does not reduce the total heat that must be rejected — it moves it
from expensive, inefficient afternoon hours into cheap, efficient night
hours, and these functions measure exactly that arbitrage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dcsim.simulator import SimulationResult
from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class ElectricityTariff:
    """A two-rate time-of-use tariff (the paper's $0.13 / $0.08 per kWh).

    The peak window is [peak_start_hour, peak_end_hour) in local hours;
    wrap-around windows (e.g. 22 -> 6) are supported.
    """

    peak_usd_per_kwh: float = 0.13
    offpeak_usd_per_kwh: float = 0.08
    peak_start_hour: float = 7.0
    peak_end_hour: float = 23.0

    def __post_init__(self) -> None:
        # In-range tests, so that NaN (every comparison false) fails them.
        if not all(
            0.0 < rate < math.inf
            for rate in (self.peak_usd_per_kwh, self.offpeak_usd_per_kwh)
        ):
            raise ConfigurationError("electricity rates must be finite and positive")
        if self.peak_usd_per_kwh < self.offpeak_usd_per_kwh:
            raise ConfigurationError(
                "peak rate must be at least the off-peak rate"
            )
        for label, hour in (
            ("peak start", self.peak_start_hour),
            ("peak end", self.peak_end_hour),
        ):
            if not 0.0 <= hour <= 24.0:
                raise ConfigurationError(f"{label} hour must be in [0, 24]")

    def is_peak(self, time_s: float | np.ndarray) -> np.ndarray:
        """Whether a time (seconds from local midnight) is in the peak
        window."""
        hour = (np.asarray(time_s, dtype=float) / SECONDS_PER_HOUR) % 24.0
        if self.peak_start_hour <= self.peak_end_hour:
            return (hour >= self.peak_start_hour) & (hour < self.peak_end_hour)
        return (hour >= self.peak_start_hour) | (hour < self.peak_end_hour)

    def price_usd_per_kwh(self, time_s: float | np.ndarray) -> np.ndarray:
        """Rate in effect at a time."""
        return np.where(
            self.is_peak(time_s), self.peak_usd_per_kwh, self.offpeak_usd_per_kwh
        )


@dataclass(frozen=True)
class AmbientProfile:
    """Sinusoidal daily outdoor temperature.

    Peaks at ``peak_hour`` (mid-afternoon by default) — the worst moment
    for heat rejection and, without PCM, also the moment of peak cooling
    load.
    """

    mean_c: float = 20.0
    amplitude_c: float = 8.0
    peak_hour: float = 15.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_c):
            raise ConfigurationError("mean temperature must be finite")
        if not 0.0 <= self.amplitude_c < math.inf:
            raise ConfigurationError("amplitude must be finite and non-negative")
        if not 0.0 <= self.peak_hour < 24.0:
            raise ConfigurationError("peak hour must be in [0, 24)")

    def temperature_c(self, time_s: float | np.ndarray) -> np.ndarray:
        """Outdoor temperature at a time (seconds from local midnight)."""
        hour = (np.asarray(time_s, dtype=float) / SECONDS_PER_HOUR) % 24.0
        phase = 2.0 * np.pi * (hour - self.peak_hour) / 24.0
        return self.mean_c + self.amplitude_c * np.cos(phase)


@dataclass(frozen=True)
class AmbientAwarePlant:
    """A cooling plant whose COP degrades with outdoor temperature.

    ``cop = cop_reference - cop_slope_per_k * (T_out - reference_c)``,
    floored at ``min_cop``. Typical water-cooled chillers lose roughly
    2-3% of COP per Kelvin of condenser-side temperature.
    """

    cop_reference: float = 4.5
    reference_ambient_c: float = 20.0
    cop_slope_per_k: float = 0.10
    min_cop: float = 1.5

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (
                self.cop_reference,
                self.reference_ambient_c,
                self.cop_slope_per_k,
                self.min_cop,
            )
        ):
            raise ConfigurationError("plant parameters must be finite")
        if self.cop_reference <= 0 or self.min_cop <= 0:
            raise ConfigurationError("COP values must be positive")
        if self.cop_slope_per_k < 0:
            raise ConfigurationError("COP slope must be non-negative")
        if self.min_cop > self.cop_reference:
            raise ConfigurationError("min COP cannot exceed the reference COP")

    def cop(self, ambient_c: float | np.ndarray) -> np.ndarray:
        """Coefficient of performance at an outdoor temperature."""
        value = self.cop_reference - self.cop_slope_per_k * (
            np.asarray(ambient_c, dtype=float) - self.reference_ambient_c
        )
        return np.clip(value, self.min_cop, None)

    def electrical_power_w(
        self, heat_load_w: np.ndarray, ambient_c: np.ndarray
    ) -> np.ndarray:
        """Electricity drawn to remove a heat load at an outdoor temp."""
        load = np.asarray(heat_load_w, dtype=float)
        if np.any(load < -1e-9):
            raise ConfigurationError("heat load must be non-negative")
        return np.clip(load, 0.0, None) / self.cop(ambient_c)


@dataclass(frozen=True)
class CoolingEnergyCost:
    """Integrated cooling-electricity economics of one simulation run."""

    cooling_energy_kwh: float
    peak_energy_kwh: float
    offpeak_energy_kwh: float
    total_usd: float

    @property
    def offpeak_share(self) -> float:
        """Fraction of cooling electricity consumed at the off-peak rate."""
        total = self.cooling_energy_kwh
        if total <= 0:
            return 0.0
        return self.offpeak_energy_kwh / total


def cooling_energy_cost(
    result: SimulationResult,
    tariff: ElectricityTariff | None = None,
    ambient: AmbientProfile | None = None,
    plant: AmbientAwarePlant | None = None,
) -> CoolingEnergyCost:
    """Price the cooling electricity of a simulated cluster run.

    The simulation's cooling-load trace (heat the plant must remove) is
    divided by the instantaneous ambient-dependent COP to get electrical
    power, then integrated against the time-of-use tariff.
    """
    tariff = tariff or ElectricityTariff()
    ambient = ambient or AmbientProfile()
    plant = plant or AmbientAwarePlant()

    times = result.times_s
    if len(times) < 2:
        raise ConfigurationError("simulation result is too short to price")
    dt = np.diff(times, prepend=times[0])
    ambient_c = ambient.temperature_c(times)
    electrical_w = plant.electrical_power_w(result.cooling_load_w, ambient_c)
    energy_kwh = electrical_w * dt / 3.6e6

    peak_mask = tariff.is_peak(times)
    peak_kwh = float(np.sum(energy_kwh[peak_mask]))
    offpeak_kwh = float(np.sum(energy_kwh[~peak_mask]))
    cost = (
        peak_kwh * tariff.peak_usd_per_kwh
        + offpeak_kwh * tariff.offpeak_usd_per_kwh
    )
    return CoolingEnergyCost(
        cooling_energy_kwh=peak_kwh + offpeak_kwh,
        peak_energy_kwh=peak_kwh,
        offpeak_energy_kwh=offpeak_kwh,
        total_usd=cost,
    )


@dataclass(frozen=True)
class EnergyShiftComparison:
    """With/without-PCM cooling-energy economics."""

    baseline: CoolingEnergyCost
    with_pcm: CoolingEnergyCost

    @property
    def cost_savings_usd(self) -> float:
        """Cooling-electricity saved by time shifting."""
        return self.baseline.total_usd - self.with_pcm.total_usd

    @property
    def cost_savings_fraction(self) -> float:
        """Savings relative to the baseline bill."""
        if self.baseline.total_usd <= 0:
            return 0.0
        return self.cost_savings_usd / self.baseline.total_usd

    @property
    def offpeak_shift(self) -> float:
        """Increase in the off-peak share of cooling electricity."""
        return self.with_pcm.offpeak_share - self.baseline.offpeak_share


def compare_energy_shift(
    baseline: SimulationResult,
    with_pcm: SimulationResult,
    tariff: ElectricityTariff | None = None,
    ambient: AmbientProfile | None = None,
    plant: AmbientAwarePlant | None = None,
) -> EnergyShiftComparison:
    """Price both arms of a cooling-load study under one tariff/climate."""
    return EnergyShiftComparison(
        baseline=cooling_energy_cost(baseline, tariff, ambient, plant),
        with_pcm=cooling_energy_cost(with_pcm, tariff, ambient, plant),
    )
