"""Sealed aluminum wax containers placed inside servers.

The paper's deployments fill aluminum boxes with commercial paraffin (with
~10% headspace for expansion) and place them downwind of the CPU sockets:
1.2 L in the 1U server (70% of downstream airflow blocked), 4x 1 L boxes in
the 2U server (69% blocked), and 0.5-1.5 L in the Open Compute blade
(replacing the plastic airflow inserts, so no *added* blockage).

A :class:`WaxBox` models one container: wax volume, exterior surface area
exposed to the airstream, the series thermal resistance from air to the wax
bulk (convection film + aluminum wall + internal wax conduction), and the
fraction of the duct cross-section it blocks. The paper notes that using
several containers rather than one maximizes surface area in contact with
moving air "in order to speed melting" — captured here by per-box area and
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial, PCMSample
from repro.units import ALUMINUM_CONDUCTIVITY


@dataclass(frozen=True)
class WaxBox:
    """One sealed aluminum container of wax.

    Parameters
    ----------
    wax_volume_m3:
        Volume of wax (solid fill, headspace excluded).
    exterior_area_m2:
        Surface area in contact with moving air.
    wall_thickness_m:
        Aluminum wall thickness.
    air_film_coefficient_w_per_m2_k:
        Convective film coefficient at the chassis reference flow.
    internal_path_length_m:
        Characteristic conduction depth from the wall into the wax bulk
        (roughly half the smallest box dimension). Paraffin conducts poorly
        (~0.21 W/mK), so this term usually dominates the series resistance;
        flat, thin boxes melt faster than cubes of equal volume.
    fin_area_multiplier:
        External-fin area gain applied to the air-film resistance only
        (the aluminum fins are nearly isothermal with the wall, but the
        conduction path into the wax is unchanged). 1.0 means a plain box;
        deployed containers use modest finning, the cheap alternative the
        paper prefers over the embedded metal mesh of the computational
        sprinting work.
    """

    wax_volume_m3: float
    exterior_area_m2: float
    wall_thickness_m: float = 1.5e-3
    air_film_coefficient_w_per_m2_k: float = 25.0
    internal_path_length_m: float = 0.01
    fin_area_multiplier: float = 1.0

    def __post_init__(self) -> None:
        """Every test is an in-range comparison that NaN and inf fail."""
        for label, value in (
            ("wax volume", self.wax_volume_m3),
            ("exterior area", self.exterior_area_m2),
            ("wall thickness", self.wall_thickness_m),
            ("air film coefficient", self.air_film_coefficient_w_per_m2_k),
            ("internal path length", self.internal_path_length_m),
        ):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{label} must be positive and finite, got {value}"
                )
        if not 1.0 <= self.fin_area_multiplier < math.inf:
            raise ConfigurationError(
                f"fin area multiplier must be >= 1 and finite, got "
                f"{self.fin_area_multiplier}"
            )

    @classmethod
    def rectangular(
        cls,
        wax_volume_m3: float,
        length_m: float,
        width_m: float,
        height_m: float,
        **kwargs: float,
    ) -> "WaxBox":
        """Box from outer dimensions; area and conduction depth derived.

        The box interior is assumed full of wax up to the stated volume;
        callers are responsible for leaving headspace by passing a wax
        volume smaller than ``length * width * height``.
        """
        if min(length_m, width_m, height_m) <= 0:
            raise ConfigurationError("box dimensions must be positive")
        interior = length_m * width_m * height_m
        if wax_volume_m3 > interior:
            raise ConfigurationError(
                f"wax volume {wax_volume_m3} m^3 exceeds box interior "
                f"{interior:.4g} m^3"
            )
        area = 2.0 * (
            length_m * width_m + length_m * height_m + width_m * height_m
        )
        depth = 0.5 * min(length_m, width_m, height_m)
        return cls(
            wax_volume_m3=wax_volume_m3,
            exterior_area_m2=area,
            internal_path_length_m=depth,
            **kwargs,
        )

    def conductance_w_per_k(
        self, wax_conductivity_w_per_m_k: float = 0.21
    ) -> float:
        """Effective air-to-wax-bulk conductance at the reference flow.

        Three resistances in series over the exterior area: the air film,
        the aluminum wall, and conduction into the wax bulk over the
        characteristic internal path (halved to represent the mean
        absorption depth of the distributed phase front).
        """
        if wax_conductivity_w_per_m_k <= 0:
            raise ConfigurationError("wax conductivity must be positive")
        area = self.exterior_area_m2
        r_film = 1.0 / (
            self.air_film_coefficient_w_per_m2_k * area * self.fin_area_multiplier
        )
        r_wall = self.wall_thickness_m / (ALUMINUM_CONDUCTIVITY * area)
        r_wax = (0.5 * self.internal_path_length_m) / (
            wax_conductivity_w_per_m_k * area
        )
        return 1.0 / (r_film + r_wall + r_wax)

    def frontal_blockage_m2(self, frontal_fraction: float = 0.35) -> float:
        """Approximate duct cross-section the box obstructs.

        Estimated from the exterior area assuming roughly ``frontal_fraction``
        of it faces the flow; platform configs override with measured
        blockage fractions where the paper states them.
        """
        if not 0.0 < frontal_fraction <= 1.0:
            raise ConfigurationError(
                f"frontal fraction must be in (0, 1], got {frontal_fraction}"
            )
        return frontal_fraction * self.exterior_area_m2 / 2.0


@dataclass(frozen=True)
class WaxLoadout:
    """A platform's full wax installation: boxes, material, placement zone.

    ``blockage_fraction`` is the fraction of downstream duct cross-section
    the boxes obstruct, as the paper states per platform (70% for the 1U,
    69% for the 2U, 0% added for the Open Compute insert swap).
    """

    boxes: tuple[WaxBox, ...]
    material: PCMMaterial
    zone: str
    blockage_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ConfigurationError("a wax loadout needs at least one box")
        if not 0.0 <= self.blockage_fraction < 1.0:
            raise ConfigurationError(
                f"blockage fraction must be in [0, 1), got "
                f"{self.blockage_fraction}"
            )

    @property
    def total_volume_m3(self) -> float:
        """Total wax volume across boxes."""
        return sum(box.wax_volume_m3 for box in self.boxes)

    @property
    def total_mass_kg(self) -> float:
        """Total wax mass across boxes."""
        return self.material.mass_for_volume(self.total_volume_m3)

    @property
    def latent_capacity_j(self) -> float:
        """Total latent heat the loadout can absorb from fully solid."""
        return self.material.latent_capacity_j(self.total_volume_m3)

    def total_conductance_w_per_k(self) -> float:
        """Aggregate air-to-wax conductance of all boxes."""
        return sum(
            box.conductance_w_per_k(self.material.thermal_conductivity_w_per_m_k)
            for box in self.boxes
        )

    def make_samples(self, initial_temperature_c: float) -> list[PCMSample]:
        """Fresh equilibrium PCM samples, one per box."""
        return [
            PCMSample.from_volume(
                self.material, box.wax_volume_m3, initial_temperature_c
            )
            for box in self.boxes
        ]

    def with_material(self, material: PCMMaterial) -> "WaxLoadout":
        """Same boxes and placement, different wax blend.

        Used by the melting-temperature optimizer, which sweeps commercial
        paraffin blends across their available 40-60 degC window.
        """
        return WaxLoadout(
            boxes=self.boxes,
            material=material,
            zone=self.zone,
            blockage_fraction=self.blockage_fraction,
        )
