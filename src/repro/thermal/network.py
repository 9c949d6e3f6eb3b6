"""Lumped thermal-RC network of a server chassis.

Nodes
-----
* :class:`CapacitiveNode` — a solid component with heat capacity and an
  optional time-varying power dissipation (CPU package, DIMM, drive, PSU).
* :class:`BoundaryNode` — a fixed- or scheduled-temperature boundary (the
  cold-aisle inlet air, the chassis skin to ambient).
* :class:`PCMNode` — a wax container integrated by the enthalpy method; its
  state variable is total enthalpy rather than temperature.

Edges
-----
* :class:`Conductance` — a constant conductive link between two nodes
  (heat-sink joint, board spreading, container wall).
* Convective links to the air are *not* edges of this graph: they live on
  the :class:`~repro.thermal.airflow.AirSegment` objects of the chassis
  :class:`~repro.thermal.airflow.AirPath` because their conductance depends
  on the operating flow and their far side (segment air temperature) is
  algebraic, not a state.

The network assembles the packed ODE state vector
``y = [T_1..T_n, H_1..H_m]`` (capacitive temperatures then PCM enthalpies)
and evaluates its right-hand side; integration lives in
:mod:`repro.thermal.solver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, NetworkError
from repro.materials.pcm import PCMSample
from repro.thermal.airflow import AirPath
from repro.units import AIR_VOLUMETRIC_HEAT_CAPACITY

PowerFunction = Callable[[float], float]
TemperatureFunction = Callable[[float], float]


def _as_time_function(value: float | Callable[[float], float]) -> Callable[[float], float]:
    """Wrap a constant as a function of time; pass callables through.

    The wrapper is tagged with ``constant_value`` so the compiled solver
    can hoist it out of the right-hand side entirely (see
    :func:`constant_value_of`).
    """
    if callable(value):
        return value
    constant = float(value)

    def constant_function(_time: float) -> float:
        return constant

    constant_function.constant_value = constant
    return constant_function


def constant_value_of(func: Callable[[float], float]) -> float | None:
    """The constant a time function always returns, or ``None``.

    Only functions created by :func:`_as_time_function` from a plain
    number carry the tag; arbitrary callables are (soundly) treated as
    time-varying.
    """
    return getattr(func, "constant_value", None)


def breakpoints_of(*funcs: Callable[[float], object]) -> tuple[float, ...] | None:
    """Sorted times at which the functions' values may change, or ``None``.

    A function tagged ``breakpoints`` (see :func:`tag_breakpoints`) is
    constant on each half-open interval ``[b_k, b_{k+1})`` between
    consecutive breakpoints, before the first and from the last, as
    :func:`~repro.server.chassis.step_utilization` is on
    ``start_s <= t < end_s``. A constant from :func:`_as_time_function`
    gives ``()``. An untagged callable gives ``None``: it may change at
    any time. Several functions give the sorted union of their tags, or
    ``None`` when any of them is untagged.
    """
    merged: set[float] = set()
    for func in funcs:
        if constant_value_of(func) is not None:
            continue
        breakpoints = getattr(func, "breakpoints", None)
        if breakpoints is None:
            return None
        merged.update(breakpoints)
    return tuple(sorted(merged))


def tag_breakpoints(func: Callable, breakpoints: tuple[float, ...] | None) -> Callable:
    """Tag ``func`` with the times at which its value may change.

    The tag promises :func:`breakpoints_of`'s half-open intervals, so the
    times must be ordered reals (no NaN). ``None`` leaves ``func``
    untagged. Returns ``func``.
    """
    if breakpoints is not None:
        func.breakpoints = breakpoints
    return func


def affine_power_vector(
    network: ThermalNetwork,
    affine: dict[str, tuple[float, float, bool]],
    custom: dict[str, Callable[[float], float]],
    utilization: Callable[[float], float],
    dvfs_factor: Callable[[float], float],
) -> Callable[[float], np.ndarray]:
    """All-node power evaluation sharing one schedule lookup per step.

    Builders that drive every node from one utilization schedule install
    the result as ``network.power_vector_fn``. ``affine`` maps a node to
    ``(idle, span, scales_with_frequency)``, its power being
    ``idle + (span * u) * f`` (``f`` is exactly 1.0 for a node that does
    not scale); ``custom`` maps the few non-affine nodes (a PSU loss
    curve) to their closures; any other node dissipates nothing. The
    per-node closures each re-evaluate the schedules; this vector form
    evaluates them once, with the same arithmetic, so it is bit-identical
    to the closures (``x * 1.0 == x``). Results are memoized on the
    ``(u, f)`` pair, so every ``custom`` closure must be a function of
    those two values; the schedules are piecewise constant in time. For
    the same reason the vector carries the union of the two schedules'
    breakpoints (see :func:`breakpoints_of`).
    """
    names = network.capacitive_names
    idle_vec = np.array([affine.get(name, (0.0, 0.0, False))[0] for name in names])
    span_vec = np.array([affine.get(name, (0.0, 0.0, False))[1] for name in names])
    factor_mask = np.array(
        [affine.get(name, (0.0, 0.0, False))[2] for name in names]
    )
    custom_slots = [
        (index, custom[name]) for index, name in enumerate(names) if name in custom
    ]

    cache: dict[str, object] = {"key": None, "powers": None}

    def power_vector(time_s: float) -> np.ndarray:
        u = utilization(time_s)
        f = dvfs_factor(time_s)
        if (u, f) == cache["key"]:
            return cache["powers"]
        powers = idle_vec + (span_vec * u) * np.where(factor_mask, f, 1.0)
        for index, func in custom_slots:
            powers[index] = func(time_s)
        cache["key"] = (u, f)
        cache["powers"] = powers
        return powers

    return tag_breakpoints(power_vector, breakpoints_of(utilization, dvfs_factor))


@dataclass
class CapacitiveNode:
    """A solid node with thermal mass and optional power dissipation."""

    name: str
    heat_capacity_j_per_k: float
    initial_temperature_c: float
    power_w: PowerFunction

    def __post_init__(self) -> None:
        if not 0 < self.heat_capacity_j_per_k < math.inf:
            raise ConfigurationError(
                f"node {self.name!r}: heat_capacity_j_per_k must be positive "
                f"and finite, got {self.heat_capacity_j_per_k}"
            )
        if not math.isfinite(self.initial_temperature_c):
            raise ConfigurationError(
                f"node {self.name!r}: initial_temperature_c must be finite, "
                f"got {self.initial_temperature_c}"
            )


@dataclass
class BoundaryNode:
    """A node held at a prescribed (possibly time-varying) temperature."""

    name: str
    temperature_c: TemperatureFunction


@dataclass
class PCMNode:
    """A wax container node carrying a :class:`PCMSample` enthalpy state."""

    name: str
    sample: PCMSample


@dataclass(frozen=True)
class Conductance:
    """A constant conductive link between two named nodes."""

    node_a: str
    node_b: str
    conductance_w_per_k: float

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ConfigurationError(
                f"conductance endpoints must differ, got {self.node_a!r} twice"
            )
        if not 0 < self.conductance_w_per_k < math.inf:
            raise ConfigurationError(
                f"conductance {self.node_a!r}-{self.node_b!r}: "
                f"conductance_w_per_k must be positive and finite, got "
                f"{self.conductance_w_per_k}"
            )


@dataclass
class NetworkState:
    """Unpacked view of the ODE state at one instant."""

    temperatures_c: dict[str, float]
    pcm_enthalpies_j: dict[str, float]


class ThermalNetwork:
    """A chassis thermal network: nodes, conductances, and one air path."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._capacitive: dict[str, CapacitiveNode] = {}
        self._boundary: dict[str, BoundaryNode] = {}
        self._pcm: dict[str, PCMNode] = {}
        self._conductances: list[Conductance] = []
        self.air_path: AirPath | None = None
        #: Optional fast path for the compiled solver: a function of time
        #: returning the power of every capacitive node (state order) as
        #: one array. Builders that drive many nodes from one shared
        #: schedule (a chassis utilization trace) install
        #: :func:`affine_power_vector` here so the solver evaluates the
        #: schedule once per step instead of once per node. Must agree
        #: with the per-node ``power_w`` callables, which remain the
        #: readable reference.
        self.power_vector_fn: Callable[[float], np.ndarray] | None = None

    # -- construction -----------------------------------------------------

    def _check_new_name(self, name: str) -> None:
        if name in self._capacitive or name in self._boundary or name in self._pcm:
            raise NetworkError(f"duplicate node name {name!r}")

    def add_capacitive_node(
        self,
        name: str,
        heat_capacity_j_per_k: float,
        initial_temperature_c: float,
        power_w: float | PowerFunction = 0.0,
    ) -> CapacitiveNode:
        """Add a solid node with thermal mass.

        ``power_w`` may be a constant or a function of simulation time,
        letting callers drive CPUs with utilization-derived power traces.
        """
        self._check_new_name(name)
        node = CapacitiveNode(
            name=name,
            heat_capacity_j_per_k=heat_capacity_j_per_k,
            initial_temperature_c=initial_temperature_c,
            power_w=_as_time_function(power_w),
        )
        self._capacitive[name] = node
        return node

    def add_boundary_node(
        self, name: str, temperature_c: float | TemperatureFunction
    ) -> BoundaryNode:
        """Add a prescribed-temperature boundary node."""
        self._check_new_name(name)
        node = BoundaryNode(name=name, temperature_c=_as_time_function(temperature_c))
        self._boundary[name] = node
        return node

    def add_pcm_node(self, name: str, sample: PCMSample) -> PCMNode:
        """Add a wax container node. The sample's current enthalpy becomes
        the initial condition."""
        self._check_new_name(name)
        node = PCMNode(name=name, sample=sample)
        self._pcm[name] = node
        return node

    def add_conductance(
        self, node_a: str, node_b: str, conductance_w_per_k: float
    ) -> None:
        """Add a constant conductive link between two existing nodes."""
        for endpoint in (node_a, node_b):
            if not self.has_node(endpoint):
                raise NetworkError(
                    f"conductance references unknown node {endpoint!r}"
                )
        self._conductances.append(
            Conductance(node_a=node_a, node_b=node_b, conductance_w_per_k=conductance_w_per_k)
        )

    def set_air_path(self, air_path: AirPath) -> None:
        """Attach the chassis air path; couplings must reference known nodes."""
        for segment in air_path.segments:
            for coupling in segment.couplings:
                if coupling.node_name not in self._capacitive and (
                    coupling.node_name not in self._pcm
                ):
                    raise NetworkError(
                        f"air segment {segment.name!r} couples unknown or "
                        f"non-state node {coupling.node_name!r}"
                    )
        self.air_path = air_path

    # -- introspection ------------------------------------------------------

    def has_node(self, name: str) -> bool:
        """Whether a node of any kind exists with this name."""
        return name in self._capacitive or name in self._boundary or name in self._pcm

    @property
    def capacitive_names(self) -> list[str]:
        """Capacitive node names in state-vector order."""
        return list(self._capacitive)

    @property
    def pcm_names(self) -> list[str]:
        """PCM node names in state-vector order."""
        return list(self._pcm)

    @property
    def boundary_names(self) -> list[str]:
        """Boundary node names."""
        return list(self._boundary)

    @property
    def conductances(self) -> list[Conductance]:
        """All conductive links."""
        return list(self._conductances)

    def capacitive_node(self, name: str) -> CapacitiveNode:
        """Look up a capacitive node."""
        try:
            return self._capacitive[name]
        except KeyError:
            raise NetworkError(f"no capacitive node named {name!r}") from None

    def pcm_node(self, name: str) -> PCMNode:
        """Look up a PCM node."""
        try:
            return self._pcm[name]
        except KeyError:
            raise NetworkError(f"no PCM node named {name!r}") from None

    def boundary_node(self, name: str) -> BoundaryNode:
        """Look up a boundary node."""
        try:
            return self._boundary[name]
        except KeyError:
            raise NetworkError(f"no boundary node named {name!r}") from None

    def total_power_w(self, time_s: float) -> float:
        """Total dissipated power across all capacitive nodes at a time."""
        return sum(node.power_w(time_s) for node in self._capacitive.values())

    # -- state packing -----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Packed initial ODE state ``[T_cap..., H_pcm...]``."""
        temps = [node.initial_temperature_c for node in self._capacitive.values()]
        enthalpies = [node.sample.enthalpy_j for node in self._pcm.values()]
        return np.array(temps + enthalpies, dtype=float)

    def unpack_state(self, state: np.ndarray, time_s: float) -> NetworkState:
        """Expand a packed state vector into named temperatures/enthalpies.

        Boundary temperatures (evaluated at ``time_s``) and PCM-implied
        temperatures are included in ``temperatures_c`` so downstream code
        can treat every node uniformly.
        """
        n_cap = len(self._capacitive)
        expected = n_cap + len(self._pcm)
        if state.shape != (expected,):
            raise NetworkError(
                f"state vector has shape {state.shape}, expected ({expected},)"
            )
        temperatures = dict(zip(self._capacitive, state[:n_cap]))
        enthalpies = dict(zip(self._pcm, state[n_cap:]))
        for name, node in self._pcm.items():
            specific = enthalpies[name] / node.sample.mass_kg
            temperatures[name] = node.sample.material.temperature_at_enthalpy(specific)
        for name, node in self._boundary.items():
            temperatures[name] = node.temperature_c(time_s)
        return NetworkState(temperatures_c=temperatures, pcm_enthalpies_j=enthalpies)

    # -- physics -----------------------------------------------------------

    def air_temperatures(
        self,
        node_temperatures: dict[str, float],
        time_s: float,
        inlet_override_c: float | None = None,
    ) -> tuple[dict[str, float], float]:
        """Quasi-steady segment air temperatures and the operating flow.

        Marches front-to-rear: each segment's well-mixed temperature follows
        from its inlet temperature (the previous segment's mixed outlet) and
        the coupled component temperatures. The chassis inlet temperature
        comes from a boundary node named ``"inlet"`` unless overridden.
        """
        if self.air_path is None:
            raise NetworkError(f"network {self.name!r} has no air path")
        if inlet_override_c is not None:
            inlet = inlet_override_c
        else:
            inlet = self.boundary_node("inlet").temperature_c(time_s)
        flow = self.air_path.flow_at_time(time_s)
        capacity_rate = AIR_VOLUMETRIC_HEAT_CAPACITY * flow
        air_temps: dict[str, float] = {}
        upstream = inlet
        for segment in self.air_path.segments:
            mixed = segment.mixed_temperature(
                upstream, node_temperatures, flow, capacity_rate
            )
            air_temps[segment.name] = mixed
            upstream = mixed
        return air_temps, flow

    def heat_flows_w(
        self, state: NetworkState, time_s: float
    ) -> tuple[dict[str, float], dict[str, float], float]:
        """Net heat flow into every state node (W), segment air temps, flow.

        Returns ``(flows, air_temperatures, flow_m3_s)`` where ``flows`` maps
        capacitive and PCM node names to net incoming heat including power
        dissipation, conduction, and convection to the air stream.
        """
        temps = state.temperatures_c
        flows = {name: 0.0 for name in self._capacitive}
        flows.update({name: 0.0 for name in self._pcm})

        for name, node in self._capacitive.items():
            flows[name] += node.power_w(time_s)

        for edge in self._conductances:
            delta = temps[edge.node_a] - temps[edge.node_b]
            heat = edge.conductance_w_per_k * delta
            if edge.node_a in flows:
                flows[edge.node_a] -= heat
            if edge.node_b in flows:
                flows[edge.node_b] += heat

        air_temps: dict[str, float] = {}
        flow = 0.0
        if self.air_path is not None:
            air_temps, flow = self.air_temperatures(temps, time_s)
            for segment in self.air_path.segments:
                segment_temp = air_temps[segment.name]
                for coupling in segment.couplings:
                    conductance = coupling.conductance_at_flow(flow)
                    flows[coupling.node_name] += conductance * (
                        segment_temp - temps[coupling.node_name]
                    )
        return flows, air_temps, flow

    def state_derivative(self, state_vector: np.ndarray, time_s: float) -> np.ndarray:
        """Right-hand side of the packed ODE system."""
        state = self.unpack_state(state_vector, time_s)
        flows, _air, _flow = self.heat_flows_w(state, time_s)
        derivative = np.empty_like(state_vector)
        for index, (name, node) in enumerate(self._capacitive.items()):
            derivative[index] = flows[name] / node.heat_capacity_j_per_k
        offset = len(self._capacitive)
        for index, name in enumerate(self._pcm):
            derivative[offset + index] = flows[name]
        return derivative

    def min_time_constant_s(self, flow_m3_s: float) -> float:
        """Smallest node time constant, used to bound explicit step sizes.

        Conservatively sums every conductance touching a node (constant
        edges plus convective couplings evaluated at the given flow).
        """
        totals: dict[str, float] = {name: 0.0 for name in self._capacitive}
        totals.update({name: 0.0 for name in self._pcm})
        for edge in self._conductances:
            if edge.node_a in totals:
                totals[edge.node_a] += edge.conductance_w_per_k
            if edge.node_b in totals:
                totals[edge.node_b] += edge.conductance_w_per_k
        if self.air_path is not None:
            for segment in self.air_path.segments:
                for coupling in segment.couplings:
                    totals[coupling.node_name] += coupling.conductance_at_flow(
                        flow_m3_s
                    )
        smallest = np.inf
        for name, node in self._capacitive.items():
            if totals[name] > 0:
                smallest = min(smallest, node.heat_capacity_j_per_k / totals[name])
        for name, node in self._pcm.items():
            if totals[name] > 0:
                capacity = node.sample.mass_kg * min(
                    node.sample.material.specific_heat_solid_j_per_kg_k,
                    node.sample.material.specific_heat_liquid_j_per_kg_k,
                )
                smallest = min(smallest, capacity / totals[name])
        if not np.isfinite(smallest):
            raise NetworkError(
                f"network {self.name!r} has no thermal links; nothing to solve"
            )
        return float(smallest)

    def validate(self) -> None:
        """Check the network is solvable: nodes exist, everything is linked."""
        if not self._capacitive and not self._pcm:
            raise NetworkError(f"network {self.name!r} has no state nodes")
        linked: set[str] = set()
        for edge in self._conductances:
            linked.add(edge.node_a)
            linked.add(edge.node_b)
        if self.air_path is not None:
            for segment in self.air_path.segments:
                for coupling in segment.couplings:
                    linked.add(coupling.node_name)
        orphans = [
            name
            for name in list(self._capacitive) + list(self._pcm)
            if name not in linked
        ]
        if orphans:
            raise NetworkError(
                f"network {self.name!r} has thermally isolated nodes: {orphans}"
            )
