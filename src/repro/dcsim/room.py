"""Room-air thermal model of an oversubscribed machine room (Section 5.2).

In the fully subscribed datacenter of Section 5.1 the CRAC holds the cold
aisle at its setpoint and the cooling load simply equals the heat the
servers release. In the *oversubscribed* datacenter of Section 5.2 the
plant cannot remove the peak heat output: the surplus accumulates in the
room air (and the building's near-air thermal mass), the cold-aisle
temperature climbs, and once it reaches the operating limit the cluster
must downclock "to prevent the datacenter from overheating".

This closes the loop that makes PCM effective in the constrained case:
server inlet temperature follows the room, the wax zone follows the
inlet, and a warming room drives the wax harder — the system settles
where wax absorption balances the surplus, holding the room below its
limit until the latent capacity is spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Default near-air thermal mass per cluster (J/K): the few hundred cubic
#: meters of air the CRAC loop actively recirculates for ~1000 servers.
#: Sets the minutes-scale lag between overload and over-temperature.
DEFAULT_ROOM_THERMAL_MASS_J_PER_K = 5.0e5

#: Near-air thermal mass per server (J/K): the room's recirculated air
#: volume scales with the fleet it serves, so smaller simulated clusters
#: should carry proportionally smaller rooms (same lag per unit of heat).
ROOM_THERMAL_MASS_PER_SERVER_J_PER_K = 500.0


@dataclass
class RoomModel:
    """Cold-aisle air temperature under a capacity-limited CRAC.

    Parameters
    ----------
    cooling_capacity_w:
        Maximum heat the plant can remove continuously (per cluster).
    thermal_mass_j_per_k:
        Near-air thermal mass of the room.
    setpoint_c:
        CRAC setpoint; the room never cools below it.
    max_temperature_c:
        Operating limit at which thermal management must intervene
        (default 35 degC, the ASHRAE A2 allowable cold-aisle maximum).
    """

    cooling_capacity_w: float
    thermal_mass_j_per_k: float = DEFAULT_ROOM_THERMAL_MASS_J_PER_K
    setpoint_c: float = 25.0
    max_temperature_c: float = 35.0
    temperature_c: float = field(init=False)

    def __post_init__(self) -> None:
        # In-range tests, so that NaN (every comparison false) fails them.
        if not self.cooling_capacity_w > 0:
            raise ConfigurationError("cooling capacity must be positive")
        if not self.thermal_mass_j_per_k > 0:
            raise ConfigurationError("room thermal mass must be positive")
        if not self.max_temperature_c > self.setpoint_c:
            raise ConfigurationError(
                f"max temperature ({self.max_temperature_c}) must exceed the "
                f"setpoint ({self.setpoint_c})"
            )
        self.temperature_c = self.setpoint_c

    @classmethod
    def sized_for_cluster(
        cls, cooling_capacity_w: float, server_count: int, **kwargs: float
    ) -> "RoomModel":
        """A room whose air mass scales with the cluster it serves.

        Keeps the overload-to-over-temperature lag per unit of heat
        independent of how many servers a study chooses to simulate, so
        miniaturized clusters reproduce full-scale thermal dynamics.
        """
        if server_count <= 0:
            raise ConfigurationError("server count must be positive")
        return cls(
            cooling_capacity_w=cooling_capacity_w,
            thermal_mass_j_per_k=(
                ROOM_THERMAL_MASS_PER_SERVER_J_PER_K * server_count
            ),
            **kwargs,
        )

    @property
    def headroom_c(self) -> float:
        """Degrees of room-temperature margin left before the limit."""
        return self.max_temperature_c - self.temperature_c

    @property
    def over_limit(self) -> bool:
        """Whether the room has reached its operating limit."""
        return self.temperature_c >= self.max_temperature_c

    def removal_w(self, release_w: float) -> float:
        """Heat the CRAC removes this instant.

        At or below the setpoint the CRAC modulates to match the load (it
        will not subcool the room); above the setpoint it runs flat out at
        capacity.
        """
        # In-range tests, so that NaN (every comparison false) fails them.
        if not 0.0 <= release_w < math.inf:
            raise ConfigurationError(
                f"heat release must be finite and non-negative, got {release_w}"
            )
        if self.temperature_c > self.setpoint_c + 1e-9:
            return self.cooling_capacity_w
        return min(release_w, self.cooling_capacity_w)

    def step(self, dt_s: float, release_w: float) -> float:
        """Advance the room temperature one tick; returns heat removed (W)."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(
                f"tick must be positive and finite, got {dt_s}"
            )
        removed = self.removal_w(release_w)
        self.temperature_c += dt_s * (release_w - removed) / self.thermal_mass_j_per_k
        if self.temperature_c < self.setpoint_c:
            self.temperature_c = self.setpoint_c
        return removed

    def reset(self) -> None:
        """Return the room to its setpoint (between simulation runs)."""
        self.temperature_c = self.setpoint_c
