"""The three server platforms of the paper's scale-out study (Section 4.1).

Each builder returns a :class:`PlatformSpec` bundling the chassis thermal
construction, the wall-power model, the wax loadout, and the deployment
economics (unit cost, rack density, clusters per 10 MW datacenter).

Published calibration anchors (paper Sections 3-4):

* **1U low-power commodity (Lenovo RD330 class)** — 90 W idle / 185 W
  loaded at the wall; two 6-core Sandy Bridge sockets at 2.4 GHz drawing
  6 W idle / 46 W loaded each; ten DDR3 DIMMs; one 2.5" HDD; six fans;
  PSU 80 % efficient idle, 90 % loaded; ~$2,000. Deployed wax: 1.2 L
  blocking 70 % of the downstream airflow; a 90 %-blockage grille raises
  the outlet only 14 degC.
* **2U high-throughput commodity (Sun X4470 class)** — four 8-core E7-4800
  sockets, 32 GB in two DIMM packages per socket, 500 W peak after the
  PSU, 20 per rack, ~$7,000. Deployed wax: 4x 1 L boxes blocking 69 % with
  <6 degC rise; temperatures stable below ~50-60 % blockage, rising
  steeply above 70 %.
* **Open Compute blade (Microsoft)** — 1U sub-half-width, two 6-core
  sockets, 64 GB, two PCIe SSDs (enterprise parts that "can exceed 85 degC
  even with proper cooling"), four redundant 3.5" HDDs, 100 W idle /
  300 W peak, 24 blades per quarter-height chassis with six shared fans
  (<200 LFM at the blade rear, 68 degC behind socket 2), ~$4,000. Wax:
  0.5 L by swapping the plastic airflow inserts, or 1.5 L in the
  reconfigured (CPU/SSD swap + HDDs-to-SSDs) blade — both with no *added*
  blockage; any extra obstruction is immediately harmful.

The duct cross-section of each platform is *calibrated* (via
:func:`calibrate_duct_area`) so that the orifice blockage model reproduces
the platform's published blockage response — the same role the paper's
grille experiments play for its Icepak models.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError, SolverError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMMaterial
from repro.server.chassis import ServerChassis
from repro.server.components import Component
from repro.server.power import ServerPowerModel
from repro.server.wax_box import WaxBox, WaxLoadout
from repro.thermal.airflow import (
    FanBank,
    FanCurve,
    SystemImpedance,
    blockage_impedance_coefficient,
    operating_flow,
)
from repro.units import AIR_VOLUMETRIC_HEAT_CAPACITY, liters


@dataclass(frozen=True)
class PlatformSpec:
    """A deployable server platform plus its datacenter economics."""

    chassis: ServerChassis
    cost_usd: float
    servers_per_rack: int
    clusters_per_10mw: int
    cluster_size: int = 1008
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.cost_usd < math.inf:
            raise ConfigurationError(
                f"server cost must be positive and finite, got {self.cost_usd}"
            )
        if self.servers_per_rack <= 0 or self.clusters_per_10mw <= 0:
            raise ConfigurationError("rack and cluster counts must be positive")
        if self.cluster_size <= 0:
            raise ConfigurationError("cluster size must be positive")

    @property
    def name(self) -> str:
        """Platform name (delegates to the chassis)."""
        return self.chassis.name

    @property
    def power_model(self) -> ServerPowerModel:
        """Wall-power model (delegates to the chassis)."""
        return self.chassis.power_model

    @property
    def wax_loadout(self) -> WaxLoadout | None:
        """Deployed wax configuration, if any."""
        return self.chassis.wax_loadout

    @property
    def datacenter_servers(self) -> int:
        """Server count of the platform's 10 MW datacenter."""
        return self.clusters_per_10mw * self.cluster_size

    def with_wax_material(self, material: PCMMaterial) -> "PlatformSpec":
        """Same platform with a different wax blend (melting-point sweeps)."""
        if self.chassis.wax_loadout is None:
            raise ConfigurationError(f"{self.name}: platform has no wax loadout")
        loadout = self.chassis.wax_loadout.with_material(material)
        return replace(self, chassis=self.chassis.with_wax_loadout(loadout))


# SciPy's ``brentq`` defaults: a relative tolerance of four machine
# epsilons and at most 100 iterations.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent_root(
    f: Callable[[float], float], low: float, high: float, xtol: float
) -> float:
    """Root of ``f`` between ``low`` and ``high`` by Brent's method.

    A line-for-line port of SciPy's ``brentq.c``: the same IEEE operations
    in the same order, so it evaluates ``f`` at the same points and
    returns the same bits as ``scipy.optimize.brentq(f, low, high,
    xtol=xtol)``. The bracket may be given in either order; ``f`` must
    not return NaN (SciPy raises there, the port does not check).
    """
    xpre, xcur = low, high
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConfigurationError(
            f"f({low}) and f({high}) must have different signs"
        )
    for _ in range(_BRENT_MAXITER):
        if (
            fpre != 0
            and fcur != 0
            and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre))
                )
            # C's MIN(a, b) is ``a < b ? a : b``.
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise SolverError(
        f"root-find failed to converge after {_BRENT_MAXITER} iterations, "
        f"value is {xcur}"
    )


def calibrate_duct_area(
    fans: FanBank,
    base_impedance: SystemImpedance,
    advected_power_w: float,
    blockage_fraction: float,
    target_outlet_rise_c: float,
) -> float:
    """Duct cross-section reproducing a published blockage response.

    Finds the duct area A such that blocking ``blockage_fraction`` of it
    raises the bulk outlet temperature by ``target_outlet_rise_c`` relative
    to the unblocked chassis, where the outlet rise is the advected-heat
    estimate ``P / (rho * cp * Q)`` at the blockage-dependent operating
    flow. A small duct is badly hurt by blockage; a large one shrugs it
    off; the mapping is monotonic, so a bracketing root-find suffices.
    """
    if not 0.0 < advected_power_w < math.inf:
        raise ConfigurationError(
            f"advected power must be positive and finite, got {advected_power_w}"
        )
    if not 0.0 < target_outlet_rise_c < math.inf:
        raise ConfigurationError(
            "target outlet rise must be positive and finite, got "
            f"{target_outlet_rise_c}"
        )
    if not 0.0 < blockage_fraction < 1.0:
        raise ConfigurationError(
            f"blockage fraction must be in (0, 1), got {blockage_fraction}"
        )

    def rise_delta(area_m2: float) -> float:
        unblocked = operating_flow(fans, base_impedance)
        extra = blockage_impedance_coefficient(area_m2, blockage_fraction)
        blocked = operating_flow(fans, base_impedance.with_added(extra))
        rise = advected_power_w / AIR_VOLUMETRIC_HEAT_CAPACITY
        return (rise / blocked - rise / unblocked) - target_outlet_rise_c

    low, high = 1e-4, 1.0
    if rise_delta(high) > 0:
        raise ConfigurationError(
            "target rise unreachable: even a huge duct exceeds it"
        )
    if rise_delta(low) < 0:
        raise ConfigurationError(
            "target rise unreachable: even a tiny duct falls short of it"
        )
    return _brent_root(rise_delta, low, high, xtol=1e-8)


def _default_wax() -> PCMMaterial:
    """The wax the paper purchased and measured: commercial paraffin that
    melts at 39 degC."""
    return commercial_paraffin_with_melting_point(39.0)


# ---------------------------------------------------------------------------
# 1U low-power commodity server (validated platform)
# ---------------------------------------------------------------------------

def one_u_commodity(
    wax_material: PCMMaterial | None = None,
    with_wax_loadout: bool = True,
) -> PlatformSpec:
    """The validated 1U low-power commodity server (Lenovo RD330 class)."""
    material = wax_material or _default_wax()
    power_model = ServerPowerModel(
        idle_power_w=90.0,
        peak_power_w=185.0,
        nominal_frequency_ghz=2.4,
        min_frequency_ghz=1.6,
        psu_efficiency_idle=0.80,
        psu_efficiency_loaded=0.90,
    )
    components = [
        Component(
            name="hdd", zone="front", heat_capacity_j_per_k=160.0,
            idle_power_w=4.0, peak_power_w=6.0,
            reference_conductance_w_per_k=1.5,
        ),
        Component(
            name="front_panel", zone="front", heat_capacity_j_per_k=120.0,
            idle_power_w=2.0, peak_power_w=3.0,
            reference_conductance_w_per_k=1.2,
        ),
        Component(
            name="cpu", zone="cpu", count=2, heat_capacity_j_per_k=450.0,
            idle_power_w=6.0, peak_power_w=46.0,
            reference_conductance_w_per_k=2.2, scales_with_frequency=True,
        ),
        Component(
            name="dimm", zone="cpu", count=10, heat_capacity_j_per_k=40.0,
            idle_power_w=1.2, peak_power_w=2.0,
            reference_conductance_w_per_k=0.5,
        ),
    ]
    fans = FanBank(
        curve=FanCurve(max_pressure_pa=60.0, max_flow_m3_s=0.004),
        count=6,
        power_per_fan_w=17.0,
    )
    base_impedance = SystemImpedance(935_000.0)
    duct_area = calibrate_duct_area(
        fans,
        base_impedance,
        advected_power_w=185.0,
        blockage_fraction=0.90,
        target_outlet_rise_c=14.0,
    )
    # Four thin boxes rather than one brick: the paper notes melting speed
    # "can be sufficiently improved by placing the paraffin in multiple
    # containers to maximize surface area". The film coefficient credits
    # the locally accelerated flow through the 30% free area around the
    # boxes.
    boxes = tuple(
        WaxBox.rectangular(
            wax_volume_m3=liters(0.3),
            length_m=0.19, width_m=0.13, height_m=0.014,
            air_film_coefficient_w_per_m2_k=60.0,
            fin_area_multiplier=2.5,
        )
        for _ in range(4)
    )
    loadout = WaxLoadout(
        boxes=boxes, material=material, zone="wax", blockage_fraction=0.70
    )
    chassis = ServerChassis(
        name="1U low power",
        power_model=power_model,
        components=components,
        zone_order=["front", "cpu", "wax", "rear"],
        fans=fans,
        base_impedance=base_impedance,
        duct_area_m2=duct_area,
        psu_zone="rear",
        board_zone="cpu",
        # The RD330's fans idle fast relative to their loaded speed, so the
        # internal air swing between idle and load is carried mostly by
        # power, reproducing the wide idle-to-loaded outlet swing measured
        # in Section 3.
        idle_fan_fraction=0.95,
        wax_loadout=loadout if with_wax_loadout else None,
    )
    return PlatformSpec(
        chassis=chassis,
        cost_usd=2_000.0,
        servers_per_rack=40,
        clusters_per_10mw=55,
        description=(
            "Validated 1U commodity server; 1.2 L wax downstream of the "
            "CPUs blocking 70% of airflow"
        ),
    )


# ---------------------------------------------------------------------------
# 2U high-throughput commodity server
# ---------------------------------------------------------------------------

def two_u_commodity(
    wax_material: PCMMaterial | None = None,
    with_wax_loadout: bool = True,
) -> PlatformSpec:
    """The 2U high-throughput commodity server (Sun X4470 class)."""
    material = wax_material or _default_wax()
    power_model = ServerPowerModel(
        idle_power_w=180.0,
        peak_power_w=555.6,  # 500 W after a 90%-efficient PSU
        nominal_frequency_ghz=2.4,
        min_frequency_ghz=1.6,
        psu_efficiency_idle=0.80,
        psu_efficiency_loaded=0.90,
    )
    components = [
        Component(
            name="hdd", zone="front", heat_capacity_j_per_k=200.0,
            idle_power_w=4.0, peak_power_w=6.0,
            reference_conductance_w_per_k=1.5,
        ),
        Component(
            name="dimm", zone="ram", count=8, heat_capacity_j_per_k=45.0,
            idle_power_w=1.5, peak_power_w=2.5,
            reference_conductance_w_per_k=0.6,
        ),
        Component(
            name="cpu", zone="cpu", count=4, heat_capacity_j_per_k=550.0,
            idle_power_w=10.0, peak_power_w=75.0,
            reference_conductance_w_per_k=3.0, scales_with_frequency=True,
        ),
    ]
    fans = FanBank(
        curve=FanCurve(max_pressure_pa=90.0, max_flow_m3_s=0.009),
        count=8,
        power_per_fan_w=20.0,
    )
    base_impedance = SystemImpedance(260_000.0)
    duct_area = calibrate_duct_area(
        fans,
        base_impedance,
        advected_power_w=555.6,
        blockage_fraction=0.69,
        target_outlet_rise_c=5.5,
    )
    # The paper's "4 one liter aluminum boxes", shaped flat to keep the
    # conduction path into the wax short; accelerated local flow through
    # the 31% free area raises the film coefficient.
    boxes = tuple(
        WaxBox.rectangular(
            wax_volume_m3=liters(1.0),
            length_m=0.27, width_m=0.22, height_m=0.018,
            air_film_coefficient_w_per_m2_k=60.0,
            fin_area_multiplier=2.5,
        )
        for _ in range(4)
    )
    loadout = WaxLoadout(
        boxes=boxes, material=material, zone="pcie", blockage_fraction=0.69
    )
    chassis = ServerChassis(
        name="2U high throughput",
        power_model=power_model,
        components=components,
        zone_order=["front", "ram", "cpu", "pcie", "rear"],
        fans=fans,
        base_impedance=base_impedance,
        duct_area_m2=duct_area,
        psu_zone="rear",
        board_zone="cpu",
        psu_heat_capacity_j_per_k=1200.0,
        board_heat_capacity_j_per_k=900.0,
        idle_fan_fraction=0.90,
        wax_loadout=loadout if with_wax_loadout else None,
    )
    return PlatformSpec(
        chassis=chassis,
        cost_usd=7_000.0,
        servers_per_rack=20,
        clusters_per_10mw=19,
        description=(
            "Four-socket 2U commodity server; 4x 1 L wax boxes in the "
            "vacant PCIe bay blocking 69% of airflow"
        ),
    )


# ---------------------------------------------------------------------------
# Open Compute blade
# ---------------------------------------------------------------------------

def open_compute_blade(
    wax_material: PCMMaterial | None = None,
    with_wax_loadout: bool = True,
    reconfigured: bool = True,
) -> PlatformSpec:
    """The Microsoft Open Compute blade (high density).

    ``reconfigured=True`` models the paper's Figure 9(c) blade: CPUs and
    SSDs swapped and redundant HDDs replaced by SSDs, making room for 1.5 L
    of wax with no added blockage. ``reconfigured=False`` models the
    insert-swap variant of Figure 9(b) with 0.5 L.
    """
    material = wax_material or _default_wax()
    power_model = ServerPowerModel(
        idle_power_w=100.0,
        peak_power_w=300.0,
        nominal_frequency_ghz=2.4,
        min_frequency_ghz=1.6,
        psu_efficiency_idle=0.94,
        psu_efficiency_loaded=0.95,
    )
    components = [
        Component(
            name="ssd", zone="storage", count=2, heat_capacity_j_per_k=90.0,
            idle_power_w=6.0, peak_power_w=12.0,
            # Enterprise PCIe SSDs run very hot (paper cites >85 degC even
            # with proper cooling): weak coupling to the airstream.
            reference_conductance_w_per_k=0.35,
        ),
        Component(
            name="hdd", zone="storage", count=4, heat_capacity_j_per_k=350.0,
            idle_power_w=5.0, peak_power_w=8.0,
            reference_conductance_w_per_k=1.2,
        ),
        Component(
            name="cpu", zone="cpu", count=2, heat_capacity_j_per_k=420.0,
            idle_power_w=8.0, peak_power_w=55.0,
            reference_conductance_w_per_k=2.0, scales_with_frequency=True,
        ),
        Component(
            name="dimm", zone="cpu", count=4, heat_capacity_j_per_k=45.0,
            idle_power_w=2.0, peak_power_w=4.0,
            reference_conductance_w_per_k=0.5,
        ),
    ]
    # Six chassis fans shared by 24 blades: a weak per-blade equivalent,
    # sized so the loaded CPU-zone air lands near the paper's measured
    # 68 degC behind socket 2.
    fans = FanBank(
        curve=FanCurve(max_pressure_pa=45.0, max_flow_m3_s=0.0045),
        count=2,
        power_per_fan_w=5.0,
    )
    base_impedance = SystemImpedance(275_000.0)
    duct_area = calibrate_duct_area(
        fans,
        base_impedance,
        advected_power_w=300.0,
        blockage_fraction=0.30,
        target_outlet_rise_c=30.0,
    )
    if reconfigured:
        boxes = tuple(
            WaxBox.rectangular(
                wax_volume_m3=liters(0.5),
                length_m=0.21, width_m=0.14, height_m=0.018,
                air_film_coefficient_w_per_m2_k=45.0,
                fin_area_multiplier=2.0,
            )
            for _ in range(3)
        )
    else:
        boxes = tuple(
            WaxBox.rectangular(
                wax_volume_m3=liters(0.25),
                length_m=0.12, width_m=0.10, height_m=0.024,
                air_film_coefficient_w_per_m2_k=35.0,
            )
            for _ in range(2)
        )
    loadout = WaxLoadout(
        boxes=boxes, material=material, zone="wax", blockage_fraction=0.0
    )
    chassis = ServerChassis(
        name="Open Compute",
        power_model=power_model,
        components=components,
        zone_order=["storage", "cpu", "wax", "rear"],
        fans=fans,
        base_impedance=base_impedance,
        duct_area_m2=duct_area,
        psu_zone="rear",
        board_zone="cpu",
        psu_heat_capacity_j_per_k=400.0,
        idle_fan_fraction=0.90,
        wax_loadout=loadout if with_wax_loadout else None,
    )
    return PlatformSpec(
        chassis=chassis,
        cost_usd=4_000.0,
        servers_per_rack=96,
        clusters_per_10mw=29,
        description=(
            "Microsoft Open Compute blade; reconfigured layout fits 1.5 L "
            "of wax with no added airflow blockage"
        ),
    )


#: Builders keyed by the short platform names used in experiments.
PLATFORM_BUILDERS: dict[str, Callable[..., PlatformSpec]] = {
    "1u": one_u_commodity,
    "2u": two_u_commodity,
    "ocp": open_compute_blade,
}


def platform_by_name(name: str, **kwargs: object) -> PlatformSpec:
    """Build a platform from its short name (``1u``, ``2u``, ``ocp``)."""
    try:
        builder = PLATFORM_BUILDERS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform {name!r}; choose from "
            f"{sorted(PLATFORM_BUILDERS)}"
        ) from None
    return builder(**kwargs)
