"""Geographic load balancing between thermally constrained sites.

The paper's Section 5.2 names two escape valves for an oversubscribed
datacenter: "downclocking/DVFS or relocating work to other datacenters
[18-20]". The main simulator implements the first; this module implements
the second, so the two can be composed with PCM and compared.

A :class:`GeoPair` couples two sites — typically the same platform in
time zones several hours apart, so their diurnal peaks do not coincide —
and runs them in lock-step fluid mode. Each site is a single-site
:class:`~repro.dcsim.simulator.DatacenterSimulator` plant (its room,
throttled by :class:`~repro.dcsim.throttling.RoomTemperaturePolicy`), so
it shares the simulator's per-tick body. Each tick:

1. each site's throttling policy picks its operating point for its local
   demand;
2. work a site cannot serve (shed by its policy, or beyond its busy
   ceiling) is *offered* to the other site;
3. the receiving site accepts up to its spare busy capacity, provided its
   own policy is not currently limiting it and the added heat still fits
   under its plant capacity (relocated work must not push the remote room
   over its limit — that would just move the problem);
4. both rooms integrate their heat balance.

Relocated work pays a WAN/latency tax: a configurable fraction of it is
lost (request hedging, egress overheads), so relocation is not free the
way locally-banked wax heat is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig, _Plant
from repro.dcsim.throttling import (
    RoomTemperaturePolicy,
    ThrottleDecision,
    bisect_max,
    shared_busy_fits,
)
from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel
from repro.workload.trace import LoadTrace


def route_unserved(
    unserved,
    spare,
    online=None,
    loss_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedily route each site's unserved work onto others' spare capacity.

    Pure and deterministic: senders are visited in index order, and each
    offers its remaining unserved work to receivers in index order
    (skipping itself and offline sites) until its backlog or the pool of
    spare capacity runs out. An offline site still *offers* its demand —
    failover is the point of geo balancing — but receives nothing and
    contributes no spare.

    Returns ``(moved, delivered)``, both shaped ``(n, n)``:
    ``moved[i, j]`` is the work sender ``i`` hands to receiver ``j``,
    ``delivered[i, j]`` the part that survives the relocation loss.
    Invariants (the property suite asserts them): row sums of ``moved``
    never exceed ``unserved``, column sums never exceed ``spare``,
    offline columns and the diagonal are zero, and a single site routes
    nothing.
    """
    unserved = [float(u) for u in unserved]
    remaining_spare = [float(s) for s in spare]
    n = len(unserved)
    if len(remaining_spare) != n:
        raise ConfigurationError(
            "unserved and spare must have one entry per site"
        )
    if online is None:
        online = [True] * n
    online = [bool(o) for o in online]
    if len(online) != n:
        raise ConfigurationError("online must have one entry per site")
    if not 0.0 <= loss_fraction < 1.0:
        raise ConfigurationError(
            "relocation loss must be a fraction in [0, 1)"
        )
    # In-range tests, so that NaN (every comparison false) fails them too.
    if not all(0.0 <= x < math.inf for x in unserved + remaining_spare):
        raise ConfigurationError(
            "unserved and spare must be finite and non-negative"
        )

    moved = np.zeros((n, n))
    delivered = np.zeros((n, n))
    for i in range(n):
        left = unserved[i]
        if left <= 0.0:
            continue
        for j in range(n):
            if j == i or not online[j]:
                continue
            capacity = remaining_spare[j]
            if capacity <= 0.0:
                continue
            amount = min(left, capacity)
            moved[i, j] = amount
            delivered[i, j] = amount * (1.0 - loss_fraction)
            left -= amount
            remaining_spare[j] = capacity - amount
            if left <= 0.0:
                break
    return moved, delivered


@dataclass
class GeoSite:
    """One datacenter of a geographically balanced pair."""

    name: str
    characterization: PlatformCharacterization
    power_model: ServerPowerModel
    material: PCMMaterial
    trace: LoadTrace
    room: RoomModel
    topology: ClusterTopology
    wax_enabled: bool = True
    inlet_temperature_c: float = 25.0
    #: An offline site serves nothing, offers no spare capacity, and
    #: idles at its minimum DVFS state; its whole demand is offered to
    #: the other site (minus the relocation tax).
    online: bool = True


class _Offline:
    """The policy of an offline site: minimum DVFS, serving nothing."""

    def decide(self, state, work_rate) -> ThrottleDecision:
        return ThrottleDecision(
            frequency_ghz=state.power_model.min_frequency_ghz,
            utilization_cap=0.0,
            limited=True,
        )


@dataclass
class GeoSiteTraces:
    """Per-tick traces of one site in a geo-balanced run."""

    times_s: np.ndarray
    demand: np.ndarray
    served_local: np.ndarray
    accepted_remote: np.ndarray
    relocated_out: np.ndarray
    lost: np.ndarray
    frequency_ghz: np.ndarray
    room_temperature_c: np.ndarray
    cooling_load_w: np.ndarray

    @property
    def throughput(self) -> np.ndarray:
        """Work completed at this site (local + accepted remote)."""
        return self.served_local + self.accepted_remote


@dataclass
class GeoResult:
    """Outcome of a geo-balanced pair run."""

    site_a: GeoSiteTraces
    site_b: GeoSiteTraces

    @property
    def total_throughput(self) -> np.ndarray:
        """Pair-wide completed work per tick (normalized per-site units)."""
        return self.site_a.throughput + self.site_b.throughput

    @property
    def total_demand(self) -> np.ndarray:
        """Pair-wide offered work per tick."""
        return self.site_a.demand + self.site_b.demand

    @property
    def served_fraction(self) -> float:
        """Fraction of all offered work completed somewhere."""
        demand = float(np.sum(self.total_demand))
        if demand <= 0:
            return 1.0
        return float(np.sum(self.total_throughput)) / demand

    @property
    def relocated_fraction(self) -> float:
        """Fraction of all offered work served at the remote site."""
        demand = float(np.sum(self.total_demand))
        if demand <= 0:
            return 0.0
        accepted = float(
            np.sum(self.site_a.accepted_remote + self.site_b.accepted_remote)
        )
        return accepted / demand


class GeoPair:
    """Two thermally constrained sites balancing work between them."""

    def __init__(
        self,
        site_a: GeoSite,
        site_b: GeoSite,
        tick_interval_s: float = 60.0,
        relocation_loss_fraction: float = 0.05,
    ) -> None:
        if not 0.0 < tick_interval_s < math.inf:
            raise ConfigurationError(
                f"tick interval must be positive and finite, got "
                f"{tick_interval_s}"
            )
        if not 0.0 <= relocation_loss_fraction < 1.0:
            raise ConfigurationError(
                "relocation loss must be a fraction in [0, 1)"
            )
        if abs(site_a.trace.duration_s - site_b.trace.duration_s) > 1e-6:
            raise ConfigurationError("site traces must share a horizon")
        self.site_a = site_a
        self.site_b = site_b
        self.tick_interval_s = tick_interval_s
        self.relocation_loss_fraction = relocation_loss_fraction

    def _plant(self, site: GeoSite) -> _Plant:
        """A fresh single-site plant: the site's room, throttled on it."""
        return _Plant(
            DatacenterSimulator(
                site.characterization,
                site.power_model,
                site.material,
                site.trace,
                topology=site.topology,
                policy=RoomTemperaturePolicy(site.room)
                if site.online
                else _Offline(),
                config=SimulationConfig(
                    tick_interval_s=self.tick_interval_s,
                    inlet_temperature_c=site.inlet_temperature_c,
                    wax_enabled=site.wax_enabled,
                ),
                room=site.room,
            )
        )

    @staticmethod
    def _site_tick(
        plant: _Plant, t: float, demand: float
    ) -> tuple[float, float, float, float, ThrottleDecision]:
        """One site's local decision at its offered load ``demand``:
        (demand, served, unserved, spare, decision)."""
        n = plant.n_servers
        decision = plant.decide(t, np.full(n, demand))
        tf = plant.sim.power_model.throughput_factor(decision.frequency_ghz)
        busy = min(demand / tf, 1.0, decision.utilization_cap)
        served = busy * tf
        unserved = max(demand - served, 0.0)

        # Spare capacity this site could sell: extra busy fraction up to
        # 1.0 (or its cap) while keeping the projected release under its
        # own plant capacity — only meaningful when unthrottled.
        spare = 0.0
        if not decision.limited:
            busy_ceiling = min(1.0, decision.utilization_cap)
            headroom = max(busy_ceiling - busy, 0.0)
            if headroom > 0:
                # Bisect the largest extra busy fraction whose release
                # fits; each round's work (busy + mid) * tf becomes a busy
                # fraction by busy_fraction's clip arithmetic.
                fits = shared_busy_fits(
                    plant.state,
                    decision.frequency_ghz,
                    plant.room.cooling_capacity_w,
                )
                extra = bisect_max(
                    lambda mid: fits(min(max((busy + mid) * tf / tf, 0.0), 1.0)),
                    headroom,
                    rounds=20,
                )
                spare = extra * tf
        return demand, served, unserved, spare, decision

    def run(self) -> GeoResult:
        """Run both sites in lock step over the shared horizon."""
        sites = (self.site_a, self.site_b)
        plants = [self._plant(site) for site in sites]
        ticks = plants[0].ticks
        if len(plants[1].ticks) != len(ticks):
            raise ConfigurationError("site traces must share a horizon")
        loss = self.relocation_loss_fraction
        accepted = np.zeros((2, len(ticks)))
        relocated = np.zeros((2, len(ticks)))
        lost = np.zeros((2, len(ticks)))
        demands = [plant.demand_series().tolist() for plant in plants]

        for i, t in enumerate(ticks):
            locals_ = [
                self._site_tick(plant, t, demand[i])
                for plant, demand in zip(plants, demands)
            ]
            # Offer each site's unserved work to the other through the
            # shared router (index order = (site_a, site_b), which for a
            # pair of online sites reduces to the symmetric swap).
            moved, delivered = route_unserved(
                [local[2] for local in locals_],
                [local[3] for local in locals_],
                [site.online for site in sites],
                loss,
            )
            # Advance each site with its final busy level.
            for k, plant in enumerate(plants):
                demand, served, _, _, decision = locals_[k]
                moved_out = float(np.sum(moved[k]))
                taken_in = float(np.sum(delivered[:, k]))
                tf = plant.sim.power_model.throughput_factor(
                    decision.frequency_ghz
                )
                extra_busy = (
                    taken_in / (1.0 - loss) / tf if taken_in > 0 else 0.0
                )
                busy_total = min(served / tf + extra_busy, 1.0)
                plant.step(
                    i,
                    t,
                    busy_total,
                    decision.frequency_ghz,
                    demand=demand,
                    utilization=busy_total,
                    throughput=served,
                    queue_length=0.0,
                    shed_work=0.0,
                )
                accepted[k, i] = taken_in
                relocated[k, i] = moved_out
                lost[k, i] = (
                    max(demand - served - moved_out, 0.0) + moved_out * loss
                )

        traces = []
        for k, plant in enumerate(plants):
            result = plant.finish(initial_power_w=None)
            traces.append(
                GeoSiteTraces(
                    times_s=result.times_s,
                    demand=result.demand,
                    served_local=result.throughput,
                    accepted_remote=accepted[k],
                    relocated_out=relocated[k],
                    lost=lost[k],
                    frequency_ghz=result.frequency_ghz,
                    room_temperature_c=result.room_temperature_c,
                    cooling_load_w=result.cooling_load_w,
                )
            )
        return GeoResult(*traces)
