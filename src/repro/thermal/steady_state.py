"""Steady-state solution of a chassis thermal network.

Used for the paper's Figure 7 experiments (temperatures after 12 h at
constant load, as a function of airflow blockage) and for the steady-state
columns of the Figure 4 validation. Rather than integrating to equilibrium,
the solver damps a fixed-point iteration on the energy balance:

    T_i = (P_i + sum_j G_ij * T_j) / sum_j G_ij

with the quasi-steady segment air temperatures recomputed each sweep. PCM
nodes at steady state carry no latent flux, so they behave as ordinary
temperature nodes (their steady temperature determines whether the wax
ends the period molten, frozen, or pinned inside the melting interval —
pinning cannot persist at a true steady state unless the node temperature
equals the mushy-zone temperature exactly, so the fixed point treats them
as sensible nodes and reports the implied phase).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.obs import get_registry, timed
from repro.thermal.network import ThermalNetwork
from repro.units import AIR_VOLUMETRIC_HEAT_CAPACITY


@dataclass
class SteadyStateResult:
    """Converged steady-state operating point of a network."""

    temperatures_c: dict[str, float]
    air_temperatures_c: dict[str, float]
    flow_m3_s: float
    iterations: int

    def outlet_temperature_c(self) -> float:
        """Temperature of the last (rear-most) air segment."""
        if not self.air_temperatures_c:
            raise KeyError("network has no air path")
        return list(self.air_temperatures_c.values())[-1]


def _validate_sweep_args(tolerance_c: float, max_iterations: int) -> None:
    """Reject sweep limits that no sweep could meet, before the first.

    Both tests are in-range comparisons that NaN fails.
    """
    if not tolerance_c > 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance_c}")
    if not max_iterations >= 1:
        raise ConfigurationError(
            f"max_iterations must be at least 1, got {max_iterations}"
        )


@timed("solver.steady_state")
def solve_steady_state(
    network: ThermalNetwork,
    time_s: float = 0.0,
    tolerance_c: float = 1e-6,
    max_iterations: int = 20_000,
    relaxation: float = 0.8,
) -> SteadyStateResult:
    """Solve for the network's steady temperatures at a frozen time.

    Power schedules, boundary temperatures, and fan speeds are evaluated at
    ``time_s`` and held constant.

    Parameters
    ----------
    tolerance_c:
        Convergence criterion on the largest temperature update per sweep.
    relaxation:
        Under-relaxation factor in (0, 1]; 1.0 is plain Gauss-Seidel-style
        fixed point, smaller is more robust for strongly-coupled networks.
    """
    network.validate()
    if not 0 < relaxation <= 1.0:
        raise SolverError(f"relaxation must be in (0, 1], got {relaxation}")
    _validate_sweep_args(tolerance_c, max_iterations)

    cap_names = network.capacitive_names
    pcm_names = network.pcm_names
    state_names = cap_names + pcm_names

    temps: dict[str, float] = {}
    for name in cap_names:
        temps[name] = network.capacitive_node(name).initial_temperature_c
    for name in pcm_names:
        temps[name] = network.pcm_node(name).sample.temperature_c
    for name in network.boundary_names:
        temps[name] = network.boundary_node(name).temperature_c(time_s)

    powers = {
        name: network.capacitive_node(name).power_w(time_s) for name in cap_names
    }

    air_temps: dict[str, float] = {}
    flow = 0.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if network.air_path is not None:
            air_temps, flow = network.air_temperatures(temps, time_s)

        # Accumulate, per state node, the conductance-weighted neighbour sum.
        weighted_sum = {name: 0.0 for name in state_names}
        conductance_sum = {name: 0.0 for name in state_names}
        for edge in network.conductances:
            if edge.node_a in weighted_sum:
                weighted_sum[edge.node_a] += edge.conductance_w_per_k * temps[edge.node_b]
                conductance_sum[edge.node_a] += edge.conductance_w_per_k
            if edge.node_b in weighted_sum:
                weighted_sum[edge.node_b] += edge.conductance_w_per_k * temps[edge.node_a]
                conductance_sum[edge.node_b] += edge.conductance_w_per_k
        if network.air_path is not None:
            for segment in network.air_path.segments:
                segment_temp = air_temps[segment.name]
                for coupling in segment.couplings:
                    g = coupling.conductance_at_flow(flow)
                    weighted_sum[coupling.node_name] += g * segment_temp
                    conductance_sum[coupling.node_name] += g

        worst_update = 0.0
        for name in state_names:
            if conductance_sum[name] <= 0:
                raise SolverError(
                    f"node {name!r} has no conductance at steady state"
                )
            power = powers.get(name, 0.0)
            target = (power + weighted_sum[name]) / conductance_sum[name]
            update = relaxation * (target - temps[name])
            temps[name] += update
            worst_update = max(worst_update, abs(update))

        if worst_update < tolerance_c:
            break
    else:
        raise SolverError(
            f"steady state failed to converge within {max_iterations} sweeps "
            f"(last update {worst_update:.3g} degC)"
        )

    if network.air_path is not None:
        air_temps, flow = network.air_temperatures(temps, time_s)

    if not all(np.isfinite(list(temps.values()))):
        raise SolverError("steady state produced non-finite temperatures")

    obs = get_registry()
    if obs.enabled:
        obs.count("solver.steady_solves")
        obs.count("solver.steady_sweeps", iterations)
        obs.count("solver.path.dict")

    return SteadyStateResult(
        temperatures_c=dict(temps),
        air_temperatures_c=dict(air_temps),
        flow_m3_s=flow,
        iterations=iterations,
    )


def _steady_structure(network: ThermalNetwork) -> tuple:
    """Structural signature a steady-state batch must share."""
    air = None
    if network.air_path is not None:
        air = tuple(
            (segment.name, tuple(c.node_name for c in segment.couplings))
            for segment in network.air_path.segments
        )
    return (
        tuple(network.capacitive_names),
        tuple(network.pcm_names),
        tuple(network.boundary_names),
        tuple((e.node_a, e.node_b) for e in network.conductances),
        air,
    )


@timed("solver.steady_state_batch")
def solve_steady_state_batch(
    networks: list[ThermalNetwork],
    time_s: float = 0.0,
    tolerance_c: float = 1e-6,
    max_iterations: int = 20_000,
    relaxation: float = 0.8,
) -> list[SteadyStateResult]:
    """Solve many structurally-identical networks' steady states at once.

    Every per-member arithmetic step mirrors :func:`solve_steady_state`
    exactly — the same conductance accumulations in the same order, the
    same damped update, and per-member freezing once a member converges —
    but performed elementwise across a member axis, so each member's
    result is bit-identical to a serial solve of that network alone.

    Node values (conductances, powers, wax mass, fan speed, ...) may vary
    between members; only the structure (node names, edge endpoints, air
    segments) must match, otherwise :class:`ConfigurationError` is raised
    naming the mismatching member.
    """
    if not networks:
        raise SolverError("steady-state batch needs at least one network")
    if not 0 < relaxation <= 1.0:
        raise SolverError(f"relaxation must be in (0, 1], got {relaxation}")
    _validate_sweep_args(tolerance_c, max_iterations)
    for network in networks:
        network.validate()
    first = networks[0]
    signature = _steady_structure(first)
    for member, network in enumerate(networks[1:], start=1):
        if _steady_structure(network) != signature:
            raise ConfigurationError(
                f"batch member {member} ({network.name!r}) does not share "
                f"the structure of member 0 ({first.name!r})"
            )

    n_members = len(networks)
    cap_names = first.capacitive_names
    pcm_names = first.pcm_names
    state_names = cap_names + pcm_names

    temps: dict[str, np.ndarray] = {}
    for name in cap_names:
        temps[name] = np.array(
            [net.capacitive_node(name).initial_temperature_c for net in networks]
        )
    for name in pcm_names:
        temps[name] = np.array(
            [net.pcm_node(name).sample.temperature_c for net in networks]
        )
    for name in first.boundary_names:
        temps[name] = np.array(
            [net.boundary_node(name).temperature_c(time_s) for net in networks]
        )

    powers = {
        name: np.array(
            [net.capacitive_node(name).power_w(time_s) for net in networks]
        )
        for name in cap_names
    }

    # Time is frozen, so flows — and therefore coupling conductances — are
    # fixed for the whole solve. Evaluate them once with the same scalar
    # code path the serial solver uses.
    has_air = first.air_path is not None
    flows = np.zeros(n_members)
    capacity_rate = np.zeros(n_members)
    inlet = np.zeros(n_members)
    segment_couplings: list[tuple[str, list[tuple[str, np.ndarray]]]] = []
    if has_air:
        flows = np.array(
            [net.air_path.flow_at_time(time_s) for net in networks]
        )
        capacity_rate = AIR_VOLUMETRIC_HEAT_CAPACITY * flows
        inlet = np.array(
            [net.boundary_node("inlet").temperature_c(time_s) for net in networks]
        )
        for s, segment in enumerate(first.air_path.segments):
            per_coupling: list[tuple[str, np.ndarray]] = []
            for c, coupling in enumerate(segment.couplings):
                conductances = np.array(
                    [
                        net.air_path.segments[s]
                        .couplings[c]
                        .conductance_at_flow(float(flow))
                        for net, flow in zip(networks, flows)
                    ]
                )
                per_coupling.append((coupling.node_name, conductances))
            segment_couplings.append((segment.name, per_coupling))

    edges = [
        (
            edge.node_a,
            edge.node_b,
            np.array(
                [net.conductances[e].conductance_w_per_k for net in networks]
            ),
        )
        for e, edge in enumerate(first.conductances)
    ]

    def march_air(current: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Front-to-rear quasi-steady air march, all members at once."""
        air: dict[str, np.ndarray] = {}
        upstream = inlet
        for segment_name, per_coupling in segment_couplings:
            numerator = capacity_rate * upstream
            denominator = capacity_rate.copy()
            for node_name, conductances in per_coupling:
                numerator = numerator + conductances * current[node_name]
                denominator = denominator + conductances
            mixed = numerator / denominator
            air[segment_name] = mixed
            upstream = mixed
        return air

    active = np.ones(n_members, dtype=bool)
    iterations = np.zeros(n_members, dtype=np.intp)
    worst_update = np.zeros(n_members)
    air_temps: dict[str, np.ndarray] = {}
    for sweep in range(1, max_iterations + 1):
        if has_air:
            air_temps = march_air(temps)

        weighted_sum = {name: np.zeros(n_members) for name in state_names}
        conductance_sum = {name: np.zeros(n_members) for name in state_names}
        for node_a, node_b, conductances in edges:
            if node_a in weighted_sum:
                weighted_sum[node_a] += conductances * temps[node_b]
                conductance_sum[node_a] += conductances
            if node_b in weighted_sum:
                weighted_sum[node_b] += conductances * temps[node_a]
                conductance_sum[node_b] += conductances
        if has_air:
            for segment_name, per_coupling in segment_couplings:
                segment_temp = air_temps[segment_name]
                for node_name, conductances in per_coupling:
                    weighted_sum[node_name] += conductances * segment_temp
                    conductance_sum[node_name] += conductances

        worst_update[:] = 0.0
        for name in state_names:
            if np.any(conductance_sum[name] <= 0):
                raise SolverError(
                    f"node {name!r} has no conductance at steady state"
                )
            power = powers.get(name, 0.0)
            target = (power + weighted_sum[name]) / conductance_sum[name]
            update = relaxation * (target - temps[name])
            # Converged members are frozen: their update is suppressed so
            # they stay exactly at the value a serial solve would return.
            temps[name] = temps[name] + np.where(active, update, 0.0)
            np.maximum(worst_update, np.abs(update), out=worst_update)

        iterations[active] = sweep
        active &= worst_update >= tolerance_c
        if not active.any():
            break
    if active.any():
        unconverged = ", ".join(
            f"{m} ({networks[m].name!r})" for m in np.nonzero(active)[0]
        )
        raise SolverError(
            f"steady state failed to converge within {max_iterations} sweeps "
            f"for batch members {unconverged}"
        )

    if has_air:
        air_temps = march_air(temps)

    for name in state_names:
        if not np.all(np.isfinite(temps[name])):
            raise SolverError("steady state produced non-finite temperatures")

    obs = get_registry()
    if obs.enabled:
        obs.count("solver.steady_solves", n_members)
        obs.count("solver.steady_sweeps", int(iterations.sum()))
        obs.count("solver.path.batched", n_members)

    return [
        SteadyStateResult(
            temperatures_c={
                name: float(temps[name][m]) for name in temps
            },
            air_temperatures_c={
                name: float(values[m]) for name, values in air_temps.items()
            },
            flow_m3_s=float(flows[m]),
            iterations=int(iterations[m]),
        )
        for m in range(n_members)
    ]
