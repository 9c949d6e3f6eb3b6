"""Chip-scale sprint thermal model on the shared RC substrate.

The sprinting literature's canonical setup (Raghavan et al., HPCA'12 /
ISCA'13): a dark-silicon chip whose sustainable cooling supports ~1 W
continuously sprints at an order of magnitude more power for as long as
its thermal capacitance allows, then must drop back and cool off. A few
grams of eicosane on the package extend the sprint by absorbing the burst
at the melting plateau.

The model is three nodes of the same :class:`~repro.thermal.network`
machinery the datacenter study uses — die, heat spreader (with the PCM
layer attached), and a weak path to ambient — integrated with the same
RK4 solver. What changes between this and the warehouse study is only
scale: joules instead of megajoules, seconds instead of hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.materials.library import EICOSANE
from repro.materials.pcm import PCMMaterial, PCMSample
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import TransientResult, simulate_transient
from repro.thermal.solver import simulate_transient_batch


@dataclass(frozen=True)
class SprintChip:
    """A dark-silicon chip package for sprint experiments.

    Defaults follow the sprinting literature's testbed scale: ~1 W
    sustainable, ~16 W sprints, a 75 degC junction limit, and a package
    able to carry a few tens of grams of PCM.
    """

    die_heat_capacity_j_per_k: float = 2.0
    spreader_heat_capacity_j_per_k: float = 8.0
    die_to_spreader_w_per_k: float = 2.5
    spreader_to_ambient_w_per_k: float = 0.045
    pcm_to_spreader_w_per_k: float = 3.0
    ambient_c: float = 25.0
    junction_limit_c: float = 75.0
    idle_power_w: float = 0.1
    sustainable_power_w: float = 1.0

    def __post_init__(self) -> None:
        # In-range comparisons that NaN fails.
        for name in (
            "die_heat_capacity_j_per_k",
            "spreader_heat_capacity_j_per_k",
            "die_to_spreader_w_per_k",
            "spreader_to_ambient_w_per_k",
            "pcm_to_spreader_w_per_k",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}"
                )
        for name in (
            "ambient_c",
            "junction_limit_c",
            "idle_power_w",
            "sustainable_power_w",
        ):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.junction_limit_c <= self.ambient_c:
            raise ConfigurationError("junction limit must exceed ambient")
        if self.sustainable_power_w <= self.idle_power_w:
            raise ConfigurationError(
                "sustainable power must exceed idle power"
            )

    def steady_junction_c(self, power_w: float) -> float:
        """Steady die temperature at a continuous power (no PCM effect —
        at steady state the wax is saturated)."""
        if not 0 <= power_w < math.inf:
            raise ConfigurationError(
                f"power_w must be finite and non-negative, got {power_w}"
            )
        spreader = self.ambient_c + power_w / self.spreader_to_ambient_w_per_k
        return spreader + power_w / self.die_to_spreader_w_per_k

    def build_network(
        self,
        sprint_power_w: float,
        pcm_grams: float = 0.0,
        material: PCMMaterial = EICOSANE,
        initial_temperature_c: float | None = None,
    ) -> ThermalNetwork:
        """Assemble the package network, optionally with on-package PCM."""
        if not 0 < sprint_power_w < math.inf:
            raise ConfigurationError(
                f"sprint_power_w must be positive and finite, got {sprint_power_w}"
            )
        if not 0 <= pcm_grams < math.inf:
            raise ConfigurationError(
                f"pcm_grams must be finite and non-negative, got {pcm_grams}"
            )
        start = (
            initial_temperature_c
            if initial_temperature_c is not None
            else self.steady_junction_c(self.idle_power_w)
        )
        network = ThermalNetwork("sprint package")
        network.add_boundary_node("ambient", self.ambient_c)
        network.add_capacitive_node(
            "die", self.die_heat_capacity_j_per_k, start, power_w=sprint_power_w
        )
        network.add_capacitive_node(
            "spreader", self.spreader_heat_capacity_j_per_k, start
        )
        network.add_conductance("die", "spreader", self.die_to_spreader_w_per_k)
        network.add_conductance(
            "spreader", "ambient", self.spreader_to_ambient_w_per_k
        )
        if pcm_grams > 0:
            sample = PCMSample(
                material=material, mass_kg=pcm_grams / 1000.0
            )
            sample.set_temperature(start)
            network.add_pcm_node("pcm", sample)
            network.add_conductance(
                "pcm", "spreader", self.pcm_to_spreader_w_per_k
            )
        return network


@dataclass(frozen=True)
class SprintResult:
    """Outcome of one sprint-to-thermal-limit run."""

    sprint_power_w: float
    pcm_grams: float
    duration_s: float
    hit_limit: bool
    final_melt_fraction: float


def _sprint_outcome(
    chip: SprintChip,
    result: TransientResult,
    sprint_power_w: float,
    pcm_grams: float,
    horizon_s: float,
) -> SprintResult:
    """Condense one transient trace into a sprint outcome."""
    die = result.temperatures_c["die"]
    over = die >= chip.junction_limit_c
    if np.any(over):
        duration = float(result.times_s[int(np.argmax(over))])
        hit = True
    else:
        duration = horizon_s
        hit = False
    melt = 0.0
    if pcm_grams > 0:
        index = int(np.argmax(over)) if hit else -1
        melt = float(result.melt_fractions["pcm"][index])
    return SprintResult(
        sprint_power_w=sprint_power_w,
        pcm_grams=pcm_grams,
        duration_s=duration,
        hit_limit=hit,
        final_melt_fraction=melt,
    )


def run_sprint(
    chip: SprintChip,
    sprint_power_w: float,
    pcm_grams: float = 0.0,
    material: PCMMaterial = EICOSANE,
    horizon_s: float = 600.0,
    output_interval_s: float = 0.05,
) -> SprintResult:
    """Sprint from the idle steady state until the junction limit.

    Returns the sprint duration (time to the junction limit, or the full
    horizon if the chip never hits it — i.e. the power was sustainable).
    The run stops at the first sample at the limit, all the outcome reads.
    """
    if horizon_s <= 0:
        raise ConfigurationError("horizon must be positive")
    network = chip.build_network(sprint_power_w, pcm_grams, material)
    result = simulate_transient(
        network, horizon_s, output_interval_s=output_interval_s,
        stop_at=("die", chip.junction_limit_c),
    )
    return _sprint_outcome(chip, result, sprint_power_w, pcm_grams, horizon_s)


def run_sprint_batch(
    chip: SprintChip,
    sprint_powers_w: list[float],
    pcm_grams: float = 0.0,
    material: PCMMaterial = EICOSANE,
    horizon_s: float = 600.0,
    output_interval_s: float = 0.05,
) -> list[SprintResult]:
    """Sprint a whole power sweep at one PCM loadout.

    Every network is built before any runs, and
    :func:`repro.thermal.solver.simulate_transient_batch` runs each power
    as :func:`run_sprint` would, to its own first sample at the junction
    limit, so each outcome equals that power's :func:`run_sprint`.
    """
    if horizon_s <= 0:
        raise ConfigurationError("horizon must be positive")
    networks = [
        chip.build_network(float(power), pcm_grams, material)
        for power in sprint_powers_w
    ]
    batch = simulate_transient_batch(
        networks, horizon_s, output_interval_s=output_interval_s,
        stop_at=("die", chip.junction_limit_c),
    )
    return [
        _sprint_outcome(chip, result, float(power), pcm_grams, horizon_s)
        for power, result in zip(sprint_powers_w, batch.require_all())
    ]


def sprint_extension_ratio(
    chip: SprintChip,
    sprint_power_w: float,
    pcm_grams: float,
    material: PCMMaterial = EICOSANE,
    horizon_s: float = 600.0,
) -> float:
    """How many times longer the PCM lets the chip sprint."""
    bare = run_sprint(chip, sprint_power_w, 0.0, material, horizon_s)
    with_pcm = run_sprint(chip, sprint_power_w, pcm_grams, material, horizon_s)
    if bare.duration_s <= 0:
        raise ConfigurationError("bare sprint duration is zero; model broken")
    return with_pcm.duration_s / bare.duration_s
