"""Server electrical power model.

The paper measures the RD330 at 90 W idle and 185 W fully loaded at the
wall, with per-socket CPU power rising 7.7x from 6 W to 46 W, and a PSU at
80% efficiency idle / 90% under load. The standard WSC abstraction (Fan et
al., Barroso & Hoelzle) is an affine utilization-to-power map:

    P_dc(u) = P_idle + (P_peak - P_idle) * u

We extend it with DVFS: the utilization-proportional (dynamic) term scales
with ``(f / f_nominal)^alpha``; throughput scales linearly with frequency.
This is what lets the thermally-constrained experiments trade clock speed
for heat (paper Section 5.2 downclocks 2.4 GHz parts to 1.6 GHz).

The default exponent is 1.0: the paper's parts run with TurboBoost off at
operating points where the voltage floor dominates, so the 2.4 -> 1.6 GHz
downclock scales dynamic power essentially linearly with frequency.
Voltage-scaling-capable deployments can raise the exponent (an ablation
benchmark sweeps it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Frequency exponent for dynamic power under DVFS (voltage pinned).
DEFAULT_DVFS_EXPONENT = 1.0

#: Frequency exponent for throughput. 1.0 = frequency-proportional service
#: rate (the paper's normalization); lower values model memory-bound work
#: that loses less than the frequency ratio (an ablation sweeps this).
DEFAULT_THROUGHPUT_EXPONENT = 1.0


@dataclass(frozen=True)
class ServerPowerModel:
    """Utilization- and frequency-dependent wall power of one server.

    Parameters
    ----------
    idle_power_w / peak_power_w:
        Wall power at zero and full utilization at nominal frequency.
    nominal_frequency_ghz:
        The frequency at which idle/peak power were measured.
    min_frequency_ghz:
        Lowest DVFS state (the paper's downclock target is 1.6 GHz).
    dvfs_exponent:
        Exponent on ``f / f_nominal`` applied to the dynamic power term.
    psu_efficiency_idle / psu_efficiency_loaded:
        PSU efficiency at idle and at full load; interpolated linearly in
        utilization. Wall power already includes PSU loss; the split is
        used by the chassis model to place PSU heat at the PSU node.
    """

    idle_power_w: float
    peak_power_w: float
    nominal_frequency_ghz: float = 2.4
    min_frequency_ghz: float = 1.6
    dvfs_exponent: float = DEFAULT_DVFS_EXPONENT
    throughput_exponent: float = DEFAULT_THROUGHPUT_EXPONENT
    psu_efficiency_idle: float = 0.80
    psu_efficiency_loaded: float = 0.90

    def __post_init__(self) -> None:
        """Every test is an in-range comparison that NaN fails."""
        if not 0 <= self.idle_power_w < math.inf:
            raise ConfigurationError(
                f"idle power must be non-negative and finite, got "
                f"{self.idle_power_w}"
            )
        if not self.idle_power_w < self.peak_power_w < math.inf:
            raise ConfigurationError(
                f"peak power ({self.peak_power_w}) must be finite and exceed "
                f"idle power ({self.idle_power_w})"
            )
        if not (
            0 < self.nominal_frequency_ghz < math.inf
            and 0 < self.min_frequency_ghz < math.inf
        ):
            raise ConfigurationError("frequencies must be positive and finite")
        if self.min_frequency_ghz > self.nominal_frequency_ghz:
            raise ConfigurationError(
                "minimum frequency cannot exceed nominal frequency"
            )
        if not 0 < self.throughput_exponent < math.inf:
            raise ConfigurationError(
                f"throughput exponent must be positive and finite, got "
                f"{self.throughput_exponent}"
            )
        for label, eff in (
            ("idle", self.psu_efficiency_idle),
            ("loaded", self.psu_efficiency_loaded),
        ):
            if not 0.0 < eff <= 1.0:
                raise ConfigurationError(
                    f"PSU {label} efficiency must be in (0, 1], got {eff}"
                )

    @property
    def dynamic_range_w(self) -> float:
        """Utilization-proportional power span at nominal frequency."""
        return self.peak_power_w - self.idle_power_w

    def frequency_factor(self, frequency_ghz: float) -> float:
        """Dynamic-power scale factor for a DVFS frequency."""
        if not self.min_frequency_ghz <= frequency_ghz <= self.nominal_frequency_ghz:
            raise ConfigurationError(
                f"frequency {frequency_ghz} GHz outside DVFS range "
                f"[{self.min_frequency_ghz}, {self.nominal_frequency_ghz}]"
            )
        return (frequency_ghz / self.nominal_frequency_ghz) ** self.dvfs_exponent

    def wall_power_w(
        self, utilization: float, frequency_ghz: float | None = None
    ) -> float:
        """Total wall power at a utilization and DVFS frequency."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        if frequency_ghz is None:
            frequency_ghz = self.nominal_frequency_ghz
        factor = self.frequency_factor(frequency_ghz)
        return self.idle_power_w + self.dynamic_range_w * utilization * factor

    def throughput_factor(self, frequency_ghz: float) -> float:
        """Relative per-core service rate at a DVFS frequency.

        Sub-linear in frequency (``throughput_exponent``): memory-bound
        phases are unaffected by the core clock, so downclocking costs
        less throughput than the frequency ratio.
        """
        self.frequency_factor(frequency_ghz)  # range check
        return (
            frequency_ghz / self.nominal_frequency_ghz
        ) ** self.throughput_exponent

    def psu_efficiency(self, utilization: float) -> float:
        """PSU efficiency at a utilization (linear interpolation)."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        return self.psu_efficiency_idle + utilization * (
            self.psu_efficiency_loaded - self.psu_efficiency_idle
        )

    def psu_loss_w(
        self, utilization: float, frequency_ghz: float | None = None
    ) -> float:
        """Heat dissipated inside the PSU at an operating point."""
        wall = self.wall_power_w(utilization, frequency_ghz)
        return wall * (1.0 - self.psu_efficiency(utilization))

    def dc_power_w(
        self, utilization: float, frequency_ghz: float | None = None
    ) -> float:
        """Power delivered to the components (wall minus PSU loss)."""
        wall = self.wall_power_w(utilization, frequency_ghz)
        return wall - self.psu_loss_w(utilization, frequency_ghz)
