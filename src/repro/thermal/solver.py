"""Transient integration of a chassis thermal network.

The solver advances the packed state ``[T_cap..., H_pcm...]`` with a
fixed-step classical Runge-Kutta (RK4) scheme. The step size is derived
from the smallest node time constant (a Gershgorin-style stability bound),
so callers choose only an *output* resolution; accuracy at the hour-scale
transients the paper studies is limited by the model, not the integrator.

The network's dictionary-based physics
(:meth:`~repro.thermal.network.ThermalNetwork.heat_flows_w`) is the
readable reference implementation; for the long (25 h) simulations and
parameter sweeps this module compiles the network into a vectorized
kernel once — conductance edges become a dense Laplacian matvec, boundary
couplings a second (usually constant-folded) matvec, air-path couplings a
single gather/scatter over all couplings with per-segment ``reduceat``
sums, and the PCM enthalpy→temperature map a piecewise evaluation over
all PCM nodes at once. Tests assert the paths agree.

:func:`simulate_transient_batch` goes one step further and packs N
structurally-identical networks into one ``(N, n_state)`` state array
advanced by a single RK4 loop, with per-member divergence isolation.
See ``docs/SOLVER.md`` for the three evaluation paths and measured
speedups.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.obs import ObsRegistry, get_registry
from repro.thermal.network import ThermalNetwork, breakpoints_of, constant_value_of
from repro.units import AIR_VOLUMETRIC_HEAT_CAPACITY

#: Default fraction of the minimum time constant used as the RK4 step.
DEFAULT_STEP_SAFETY = 0.5


@dataclass
class TransientResult:
    """Sampled trajectory of a transient simulation.

    Attributes
    ----------
    times_s:
        Sample times, seconds.
    temperatures_c:
        Node name -> temperature trace (capacitive, PCM, and boundary nodes).
    air_temperatures_c:
        Air segment name -> well-mixed temperature trace.
    flow_m3_s:
        Operating airflow trace.
    melt_fractions:
        PCM node name -> melt fraction trace.
    pcm_enthalpies_j:
        PCM node name -> total enthalpy trace.
    power_w:
        Total dissipated electrical power trace.
    """

    times_s: np.ndarray
    temperatures_c: dict[str, np.ndarray]
    air_temperatures_c: dict[str, np.ndarray]
    flow_m3_s: np.ndarray
    melt_fractions: dict[str, np.ndarray]
    pcm_enthalpies_j: dict[str, np.ndarray]
    power_w: np.ndarray

    def temperature(self, name: str) -> np.ndarray:
        """Temperature trace of a node or air segment."""
        if name in self.temperatures_c:
            return self.temperatures_c[name]
        if name in self.air_temperatures_c:
            return self.air_temperatures_c[name]
        raise KeyError(name)

    @property
    def times_hours(self) -> np.ndarray:
        """Sample times in hours."""
        return self.times_s / 3600.0

    def final_temperatures(self) -> dict[str, float]:
        """Temperatures of every node at the last sample."""
        return {name: float(trace[-1]) for name, trace in self.temperatures_c.items()}

    def heat_stored_in_pcm_j(self) -> np.ndarray:
        """Total PCM enthalpy (relative to the solidus datum) over time."""
        if not self.pcm_enthalpies_j:
            return np.zeros_like(self.times_s)
        return np.sum(
            [trace for trace in self.pcm_enthalpies_j.values()], axis=0
        )

    def heat_release_to_air_w(self) -> np.ndarray:
        """Instantaneous heat the chassis hands to the airstream.

        Energy balance: electrical power minus the rate of change of energy
        stored in PCM (sensible storage in component masses is neglected at
        this reporting level; it is small and zero-mean over a cycle). This
        is the quantity the datacenter cooling system must remove.
        """
        stored = self.heat_stored_in_pcm_j()
        storage_rate = np.gradient(stored, self.times_s)
        return self.power_w - storage_rate


@dataclass
class BatchTransientResult:
    """Trajectories of a batched transient simulation.

    ``results[i]`` is the :class:`TransientResult` of the i-th input
    network, or ``None`` if that member diverged; ``failures`` maps the
    index of each diverged member to its error message. A diverging member
    is frozen at its last finite state and excluded from further updates,
    so one unstable network cannot poison the rest of the batch.
    """

    results: list[TransientResult | None]
    failures: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> TransientResult | None:
        return self.results[index]

    def require_all(self) -> list[TransientResult]:
        """All member results, raising if any member diverged."""
        if self.failures:
            detail = "; ".join(
                f"[{index}] {message}" for index, message in sorted(self.failures.items())
            )
            raise SolverError(f"{len(self.failures)} batch member(s) diverged: {detail}")
        return list(self.results)


def _sample_times(duration_s: float, output_interval_s: float) -> np.ndarray:
    """Output sample times: interval multiples plus the horizon itself.

    Always includes ``duration_s`` as the final sample, so short runs
    (``duration_s < output_interval_s``) integrate instead of silently
    returning the initial condition, and non-multiple durations keep their
    final partial interval instead of truncating the trace one interval
    early. Exact-multiple durations produce the same grid as before.
    """
    n_whole = int(np.floor(duration_s / output_interval_s + 1e-9))
    times = np.arange(n_whole + 1) * output_interval_s
    if duration_s - times[-1] > 1e-9 * output_interval_s:
        times = np.append(times, duration_s)
    return times


class _CompiledNetwork:
    """Vectorized flat-array evaluator of a network's right-hand side.

    Compilation hoists everything that does not change during a run:

    * conductance edges become a dense state-state Laplacian ``L`` and a
      state-boundary matrix ``B``;
    * boundary temperatures and node powers that are constants (tagged by
      ``_as_time_function``) are folded into a per-time ``base_flows``
      vector; only genuine schedules stay as per-call function slots, and
      a chassis-provided ``power_vector_fn`` replaces per-node power
      calls entirely;
    * air-path couplings across *all* segments become one concatenated
      index/parameter array — per-segment sums come from
      ``np.add.reduceat`` and only the short upstream-to-downstream
      mixing chain stays a (scalar) loop. Flow-dependent conductances
      are cached on the flow value, which fan schedules keep piecewise
      constant;
    * time-dependent inputs are cached per evaluation time — RK4
      evaluates ``t + dt/2`` twice per step — and the constants are
      rebuilt only when the evaluated inputs change (see
      :meth:`_constants_at`). When every input schedule publishes its
      breakpoints, :attr:`breakpoints` certifies that the inputs are
      constant between them, and no schedule is called inside an
      interval.
    """

    def __init__(self, network: ThermalNetwork) -> None:
        self.network = network
        self.cap_names = network.capacitive_names
        self.pcm_names = network.pcm_names
        self.n_cap = len(self.cap_names)
        self.n_pcm = len(self.pcm_names)
        self.n_state = self.n_cap + self.n_pcm

        index: dict[str, int] = {}
        for i, name in enumerate(self.cap_names):
            index[name] = i
        for i, name in enumerate(self.pcm_names):
            index[name] = self.n_cap + i
        self.state_index = index

        self.capacities = np.array(
            [
                network.capacitive_node(name).heat_capacity_j_per_k
                for name in self.cap_names
            ]
        )

        # -- node powers: constant part + schedule slots (or the chassis's
        #    all-node fast path when available) --------------------------------
        self.power_vector_fn = getattr(network, "power_vector_fn", None)
        power_functions = [
            network.capacitive_node(name).power_w for name in self.cap_names
        ]
        self.power_const = np.zeros(self.n_cap)
        self.power_slots: list[tuple[int, object]] = []
        for i, func in enumerate(power_functions):
            constant = constant_value_of(func)
            if constant is not None:
                self.power_const[i] = constant
            else:
                self.power_slots.append((i, func))

        # -- PCM enthalpy map parameters --------------------------------------
        self.pcm_samples = [network.pcm_node(name).sample for name in self.pcm_names]
        self.pcm_masses = np.array([s.mass_kg for s in self.pcm_samples])
        materials = [s.material for s in self.pcm_samples]
        self.pcm_solidus = np.array([m.solidus_c for m in materials])
        self.pcm_liquidus = np.array([m.liquidus_c for m in materials])
        self.pcm_fusion = np.array([m.heat_of_fusion_j_per_kg for m in materials])
        self.pcm_c_solid = np.array(
            [m.specific_heat_solid_j_per_kg_k for m in materials]
        )
        self.pcm_c_liquid = np.array(
            [m.specific_heat_liquid_j_per_kg_k for m in materials]
        )
        self.pcm_melt_range = np.array([m.melting_range_c for m in materials])

        # -- boundary temperatures: constant part + schedule slots -------------
        self.boundary_names = list(network.boundary_names)
        self.boundary_functions = {
            name: network.boundary_node(name).temperature_c
            for name in self.boundary_names
        }
        boundary_index = {name: j for j, name in enumerate(self.boundary_names)}
        self.n_boundary = len(self.boundary_names)
        self.boundary_const = np.zeros(self.n_boundary)
        self.boundary_slots: list[tuple[int, object]] = []
        for name, func in self.boundary_functions.items():
            constant = constant_value_of(func)
            j = boundary_index[name]
            if constant is not None:
                self.boundary_const[j] = constant
            else:
                self.boundary_slots.append((j, func))

        # -- conductance edges as Laplacian + boundary-coupling matrices -------
        self.laplacian = np.zeros((self.n_state, self.n_state))
        self.boundary_matrix = np.zeros((self.n_state, self.n_boundary))
        self.edge_struct: list[tuple[int, int]] = []
        for edge in network.conductances:
            g = edge.conductance_w_per_k
            ia = index.get(edge.node_a, -1)
            ib = index.get(edge.node_b, -1)
            self.edge_struct.append(
                (
                    ia if ia >= 0 else -1 - boundary_index[edge.node_a],
                    ib if ib >= 0 else -1 - boundary_index[edge.node_b],
                )
            )
            # heat = g * (T_a - T_b); flows[a] -= heat, flows[b] += heat.
            if ia >= 0:
                self.laplacian[ia, ia] -= g
                if ib >= 0:
                    self.laplacian[ia, ib] += g
                else:
                    self.boundary_matrix[ia, boundary_index[edge.node_b]] += g
            if ib >= 0:
                self.laplacian[ib, ib] -= g
                if ia >= 0:
                    self.laplacian[ib, ia] += g
                else:
                    self.boundary_matrix[ib, boundary_index[edge.node_a]] += g

        # When every boundary temperature is constant the whole boundary
        # matvec collapses to one precomputed flow vector.
        self.static_boundary_flows: np.ndarray | None = None
        if not self.boundary_slots:
            self.static_boundary_flows = self.boundary_matrix @ self.boundary_const

        # -- air path: one concatenated coupling array across segments ---------
        self.air_path = network.air_path
        self.segments: list[tuple[np.ndarray, list]] = []
        self.inlet_index = -1
        self.n_couplings = 0
        if self.air_path is not None:
            self.inlet_index = boundary_index["inlet"]
            ref_g: list[float] = []
            ref_flow: list[float] = []
            exponent: list[float] = []
            stagnant: list[float] = []
            for segment in self.air_path.segments:
                idx = np.array(
                    [index[c.node_name] for c in segment.couplings], dtype=np.intp
                )
                self.segments.append((idx, list(segment.couplings)))
                for coupling in segment.couplings:
                    ref_g.append(coupling.reference_conductance_w_per_k)
                    ref_flow.append(coupling.reference_flow_m3_s)
                    exponent.append(coupling.exponent)
                    stagnant.append(
                        coupling.stagnant_fraction
                        * coupling.reference_conductance_w_per_k
                    )
            self.n_couplings = len(ref_g)
            self.air_ref_g = np.array(ref_g)
            self.air_ref_flow = np.array(ref_flow)
            self.air_exponent = np.array(exponent)
            self.air_stagnant = np.array(stagnant)
        # -- capacity scaling folded into the operator -------------------------
        # Capacitive rows divide by heat capacity; PCM rows integrate raw
        # enthalpy flow. Folding the division into the compiled operator
        # turns the whole right-hand side into one matvec plus one add.
        self.inv_capacity = np.concatenate(
            [1.0 / self.capacities, np.ones(self.n_pcm)]
        )
        self.inv_capacity_rows = self.inv_capacity[:, None]

        # Precomputed liquid-branch intercept and mushy-zone slope for the
        # two-op form of the T(h) map used in the hot path.
        if self.n_pcm:
            self.pcm_liquid_intercept = (
                self.pcm_liquidus - self.pcm_fusion / self.pcm_c_liquid
            )
            self.pcm_mushy_slope = self.pcm_melt_range / self.pcm_fusion
        # Scalar parameters for the single-PCM-node fast path: with one wax
        # node (the common chassis layout) plain Python floats beat the
        # ~12 tiny-array ufunc dispatches of the vector branch.
        self._pcm_scalar: tuple[float, ...] | None = None
        if self.n_pcm == 1:
            self._pcm_scalar = (
                float(self.pcm_masses[0]),
                float(self.pcm_solidus[0]),
                float(self.pcm_fusion[0]),
                float(self.pcm_c_solid[0]),
                float(self.pcm_c_liquid[0]),
                float(self.pcm_liquid_intercept[0]),
                float(self.pcm_mushy_slope[0]),
            )

        # -- input breakpoints: the certificate ---------------------------------
        # The sorted times at which any input (powers, fan speed, boundary
        # temperatures) may change, or None when some schedule is untagged.
        input_schedules = (
            [self.power_vector_fn]
            if self.power_vector_fn is not None
            else [func for _, func in self.power_slots]
        )
        input_schedules += [func for _, func in self.boundary_slots]
        if self.air_path is not None and self.air_path.fan_speed_schedule is not None:
            input_schedules.append(self.air_path.fan_speed_schedule)
        self.breakpoints = breakpoints_of(*input_schedules)

        # -- per-run caches ----------------------------------------------------
        self._input_cache_time: float | None = None
        self._input_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._inputs_key: tuple | None = None
        #: ``bisect_right(breakpoints, t)`` of the cached pair's inputs.
        self._input_interval: int | None = None
        #: Input evaluations that rebuilt the constants / reused them.
        self.inputs_computed = 0
        self.inputs_reused = 0
        self._g_cache_flow: float | None = None
        self._g_cache: np.ndarray | None = None
        self._op_cache_flow: float | None = None
        self._op_cache: tuple[np.ndarray, np.ndarray] | None = None
        if self.air_path is None:
            self._op_cache_flow = 0.0
            self._op_cache = (
                self.laplacian * self.inv_capacity_rows,
                np.zeros(self.n_state),
            )

    # -- structural signature (batched solves require identical structure) ----

    def structure(self) -> tuple:
        """Hashable description of everything a batch must share."""
        return (
            tuple(self.cap_names),
            tuple(self.pcm_names),
            tuple(self.boundary_names),
            tuple(self.edge_struct),
            tuple(tuple(idx.tolist()) for idx, _ in self.segments),
            self.air_path is not None,
        )

    # -- state expansion ---------------------------------------------------

    def temperatures(
        self, state: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Temperatures of all state nodes (PCM via the enthalpy map).

        The piecewise branches follow
        :meth:`PCMMaterial.temperature_at_enthalpy`, vectorized over every
        PCM node at once with the liquid intercept and mushy slope
        precomputed at compile time. Written into ``out`` when given,
        which may be ``state`` itself: each enthalpy is read before its
        slot is overwritten.
        """
        if out is None:
            out = state.copy()
        elif out is not state:
            np.copyto(out, state)
        if self._pcm_scalar is not None:
            mass, solidus, fusion, c_solid, c_liquid, intercept, slope = (
                self._pcm_scalar
            )
            specific = state[self.n_cap] / mass
            if specific <= 0.0:
                out[self.n_cap] = solidus + specific / c_solid
            elif specific >= fusion:
                out[self.n_cap] = intercept + specific / c_liquid
            else:
                out[self.n_cap] = solidus + specific * slope
            return out
        if self.n_pcm:
            specific = state[self.n_cap :] / self.pcm_masses
            solid = self.pcm_solidus + specific / self.pcm_c_solid
            liquid = self.pcm_liquid_intercept + specific / self.pcm_c_liquid
            mushy = self.pcm_solidus + specific * self.pcm_mushy_slope
            out[self.n_cap :] = np.where(
                specific <= 0.0,
                solid,
                np.where(specific >= self.pcm_fusion, liquid, mushy),
            )
        return out

    # -- time-dependent inputs ---------------------------------------------

    def _powers_at(self, time_s: float) -> np.ndarray:
        if self.power_vector_fn is not None:
            return self.power_vector_fn(time_s)
        if not self.power_slots:
            return self.power_const
        powers = self.power_const.copy()
        for i, func in self.power_slots:
            powers[i] = func(time_s)
        return powers

    def _boundaries_at(self, time_s: float) -> np.ndarray:
        if not self.boundary_slots:
            return self.boundary_const
        boundary = self.boundary_const.copy()
        for j, func in self.boundary_slots:
            boundary[j] = func(time_s)
        return boundary

    def _coupling_conductances(self, flow: float) -> np.ndarray:
        """Concatenated coupling conductances (all segments) at a flow.

        Mirrors :func:`repro.thermal.convection.flow_scaled_conductance`
        elementwise; cached on the flow value because fan schedules are
        piecewise constant.
        """
        if flow == self._g_cache_flow and self._g_cache is not None:
            return self._g_cache
        g = np.maximum(
            self.air_ref_g * (flow / self.air_ref_flow) ** self.air_exponent,
            self.air_stagnant,
        )
        self._g_cache_flow = flow
        self._g_cache = g
        return g

    def _air_operator(self, flow: float) -> tuple[np.ndarray, np.ndarray]:
        """Air-path heat flows as an affine map of state temperatures.

        For a fixed flow the quasi-steady mixing chain is *linear*: each
        segment's mixed temperature is a conductance-weighted mean of the
        upstream air (itself linear in everything upstream) and the coupled
        node temperatures. Unrolling the chain gives

            air_flows = M @ temps + v * T_inlet

        with ``M`` and ``v`` depending only on the flow. ``upstream`` is
        tracked through the chain as the row vector + inlet coefficient of
        that affine form.
        """
        n = self.n_state
        matrix = np.zeros((n, n))
        inlet_vector = np.zeros(n)
        g_all = self._coupling_conductances(flow)
        capacity_rate = AIR_VOLUMETRIC_HEAT_CAPACITY * flow
        upstream_row = np.zeros(n)
        upstream_inlet = 1.0
        position = 0
        for idx, couplings in self.segments:
            count = len(couplings)
            g = g_all[position : position + count]
            position += count
            denominator = capacity_rate + g.sum()
            alpha = capacity_rate / denominator
            mixed_row = alpha * upstream_row
            if count:
                mixed_row[idx] += g / denominator
            mixed_inlet = alpha * upstream_inlet
            if count:
                # flows[idx_j] += g_j * (mixed - T_j)
                matrix[idx, :] += g[:, None] * mixed_row[None, :]
                matrix[idx, idx] -= g
                inlet_vector[idx] += g * mixed_inlet
            upstream_row = mixed_row
            upstream_inlet = mixed_inlet
        return matrix, inlet_vector

    def _operator_for_flow(self, flow: float) -> tuple[np.ndarray, np.ndarray]:
        """Capacity-scaled state operator and inlet vector at a flow.

        ``derivative = K @ temps + constants`` where ``K`` folds the edge
        Laplacian, the air-path affine map, and the per-row capacity
        division into one matrix. Cached on the flow value.
        """
        if flow == self._op_cache_flow and self._op_cache is not None:
            return self._op_cache
        matrix, inlet_vector = self._air_operator(flow)
        matrix += self.laplacian
        matrix *= self.inv_capacity_rows
        self._op_cache_flow = flow
        self._op_cache = (matrix, inlet_vector)
        return self._op_cache

    def _inputs_at(self, time_s: float) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The inputs at a time: their ``(flow, powers bytes, boundary
        bytes)`` key, the node powers and the boundary temperatures."""
        if self.static_boundary_flows is not None:
            boundary = self.boundary_const
        else:
            boundary = self._boundaries_at(time_s)
        powers = self._powers_at(time_s)
        flow = 0.0
        if self.air_path is not None:
            flow = self.air_path.flow_at_time(time_s)
        return (flow, powers.tobytes(), boundary.tobytes()), powers, boundary

    def _constants_at(self, time_s: float) -> tuple[np.ndarray, np.ndarray]:
        """(K, state-independent derivative terms) at a time.

        The constant vector collects node powers, boundary-edge flows, and
        the air path's inlet contribution, already divided by capacity. RK4
        evaluates the midpoint twice per step, so a repeated time returns
        the cached pair at once. A certified network (see
        :attr:`breakpoints`) whose time falls in the cached inputs'
        interval ``[b_k, b_{k+1})`` reuses the pair without calling a
        schedule. Otherwise the inputs are evaluated. The pair is a pure
        function of them, and the flow enters only through the operator
        caches, which compare flows with ``==``. So when the powers and
        boundary temperatures are bit-equal (``tobytes()``) to the
        previous evaluation's and the flow is equal, as piecewise-constant
        schedules make them almost always, the previous pair is returned
        without a rebuild. Either reuse counts in :attr:`inputs_reused`.
        """
        if time_s == self._input_cache_time and self._input_cache is not None:
            return self._input_cache
        interval = None
        if self.breakpoints is not None:
            interval = bisect_right(self.breakpoints, time_s)
            if interval == self._input_interval:
                self.inputs_reused += 1
                self._input_cache_time = time_s
                return self._input_cache
        key, powers, boundary = self._inputs_at(time_s)
        flow = key[0]
        if key == self._inputs_key:
            self.inputs_reused += 1
        else:
            self.inputs_computed += 1
            if self.static_boundary_flows is not None:
                base = self.static_boundary_flows.copy()
            else:
                base = self.boundary_matrix @ boundary
            base[: self.n_cap] += powers
            operator, inlet_vector = self._operator_for_flow(flow)
            if self.air_path is not None:
                base += inlet_vector * boundary[self.inlet_index]
            base *= self.inv_capacity
            self._inputs_key = key
            self._input_cache = (operator, base)
        self._input_interval = interval
        self._input_cache_time = time_s
        return self._input_cache

    def _holds_at(self, time_s: float) -> bool:
        """Whether the inputs at a time are the cached pair's; changes and
        counts nothing."""
        if self.breakpoints is not None:
            return bisect_right(self.breakpoints, time_s) == self._input_interval
        return self._inputs_at(time_s)[0] == self._inputs_key

    def holds_through(self, time_now: float, dt: float) -> bool:
        """Whether an RK4 step from ``time_now``, the time of the last
        evaluation, reads only the cached pair.

        When the inputs at ``time_now + dt/2`` and ``time_now + dt`` are
        the pair's, both evaluations are counted and recorded as
        :meth:`_constants_at` would, and the answer is True. Otherwise
        nothing changes, so the step computed next counts as before.
        """
        midpoint = time_now + 0.5 * dt
        end = time_now + dt
        if not (self._holds_at(midpoint) and self._holds_at(end)):
            return False
        for time_s in (midpoint, end):
            if time_s != self._input_cache_time:
                self.inputs_reused += 1
                self._input_cache_time = time_s
        return True

    # -- physics --------------------------------------------------------------

    def rhs(
        self, state: np.ndarray, time_s: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Packed state derivative; mirrors ThermalNetwork.state_derivative.

        ``out`` receives the node temperatures on the way (see
        :meth:`temperatures`); the derivative is a fresh array.
        """
        operator, constants = self._constants_at(time_s)
        derivative = operator @ self.temperatures(state, out)
        derivative += constants
        return derivative

    def observe(
        self, state: np.ndarray, time_s: float
    ) -> tuple[dict[str, float], dict[str, float], float]:
        """Node temperatures, segment air temperatures, and flow at a state."""
        temps = self.temperatures(state)
        named = {name: float(temps[self.state_index[name]]) for name in self.cap_names}
        named.update(
            {name: float(temps[self.state_index[name]]) for name in self.pcm_names}
        )
        for name, func in self.boundary_functions.items():
            named[name] = float(func(time_s))
        air: dict[str, float] = {}
        flow = 0.0
        if self.air_path is not None:
            air_map, flow = self.network.air_temperatures(
                {**named}, time_s
            )
            air = {name: float(value) for name, value in air_map.items()}
        return named, air, flow


class _TraceBuffers:
    """Preallocated output traces shared by the RK4, BDF, and batch paths."""

    def __init__(self, compiled: _CompiledNetwork, n_outputs: int) -> None:
        self.compiled = compiled
        self.temp_traces = {
            name: np.empty(n_outputs)
            for name in compiled.cap_names
            + compiled.pcm_names
            + list(compiled.boundary_functions)
        }
        self.air_traces: dict[str, np.ndarray] = {}
        if compiled.air_path is not None:
            self.air_traces = {
                segment.name: np.empty(n_outputs)
                for segment in compiled.air_path.segments
            }
        self.flow_trace = np.zeros(n_outputs)
        self.melt_traces = {name: np.empty(n_outputs) for name in compiled.pcm_names}
        self.enthalpy_traces = {
            name: np.empty(n_outputs) for name in compiled.pcm_names
        }
        self.power_trace = np.empty(n_outputs)

    def record(self, sample_index: int, state: np.ndarray, time_s: float) -> None:
        compiled = self.compiled
        named, air, flow = compiled.observe(state, time_s)
        for name, value in named.items():
            self.temp_traces[name][sample_index] = value
        for name, value in air.items():
            self.air_traces[name][sample_index] = value
        self.flow_trace[sample_index] = flow
        for i, name in enumerate(compiled.pcm_names):
            enthalpy = state[compiled.n_cap + i]
            self.enthalpy_traces[name][sample_index] = enthalpy
            sample = compiled.pcm_samples[i]
            self.melt_traces[name][sample_index] = (
                sample.material.melt_fraction_at_enthalpy(enthalpy / sample.mass_kg)
            )
        self.power_trace[sample_index] = compiled.network.total_power_w(time_s)

    def watch(self, stop_at: tuple[str, float]) -> np.ndarray:
        """The trace that a ``stop_at=(node, temperature_c)`` test reads.

        A node comes before an air segment of the same name, as in
        :meth:`TransientResult.temperature`.
        """
        name = stop_at[0]
        for traces in (self.temp_traces, self.air_traces):
            if name in traces:
                return traces[name]
        raise ConfigurationError(f"stop_at names no node: {name!r}")

    def result(self, times: np.ndarray) -> TransientResult:
        """The traces up to ``len(times)`` samples (fewer after a stop)."""
        n = len(times)

        def head(traces: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            return {name: trace[:n] for name, trace in traces.items()}

        return TransientResult(
            times_s=times,
            temperatures_c=head(self.temp_traces),
            air_temperatures_c=head(self.air_traces),
            flow_m3_s=self.flow_trace[:n],
            melt_fractions=head(self.melt_traces),
            pcm_enthalpies_j=head(self.enthalpy_traces),
            power_w=self.power_trace[:n],
        )


def stable_step_s(network: ThermalNetwork, safety: float = DEFAULT_STEP_SAFETY) -> float:
    """Step size bound from the network's smallest time constant.

    Evaluated at full fan speed (maximum flow, hence maximum convective
    conductance and stiffest dynamics).
    """
    if not 0 < safety <= 1.0:
        raise ConfigurationError(f"step safety must be in (0, 1], got {safety}")
    get_registry().count("solver.stability_rebuilds")
    if network.air_path is not None:
        flow = network.air_path.flow_at_time(0.0)
        # Conductance grows with flow; bound using the largest flow the fan
        # bank can deliver into the current impedance at full speed.
        from repro.thermal.airflow import operating_flow

        flow = max(
            flow,
            operating_flow(network.air_path.fans, network.air_path.total_impedance()),
        )
    else:
        flow = 0.0
    return safety * network.min_time_constant_s(flow)


def _validate_run_args(
    duration_s: float,
    output_interval_s: float,
    max_step_s: float | None,
    stop_at: tuple[str, float] | None,
) -> None:
    """Reject run arguments before anything is built.

    Every test is an in-range comparison that NaN fails; an infinite
    ``max_step_s`` is allowed and caps nothing.
    """
    if not 0 < duration_s < math.inf:
        raise ConfigurationError(
            f"duration must be positive and finite, got {duration_s}"
        )
    if not 0 < output_interval_s < math.inf:
        raise ConfigurationError(
            f"output interval must be positive and finite, got "
            f"{output_interval_s}"
        )
    if max_step_s is not None and not max_step_s > 0:
        raise ConfigurationError(f"max step must be positive, got {max_step_s}")
    if stop_at is not None and not -math.inf < stop_at[1] < math.inf:
        raise ConfigurationError(
            f"stop_at temperature must be finite, got {stop_at[1]}"
        )


def _resolve_step(
    network: ThermalNetwork,
    step_safety: float,
    max_step_s: float | None,
    output_interval_s: float,
) -> float:
    step = stable_step_s(network, step_safety)
    if max_step_s is not None:
        step = min(step, max_step_s)
    return min(step, output_interval_s)


def _rk4_step(
    rhs: Callable[[np.ndarray, float, np.ndarray], np.ndarray],
    state: np.ndarray,
    time_now: float,
    dt: float,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
    out: np.ndarray,
) -> None:
    """One classical RK4 step from ``state`` into ``out``.

    The single-network and batch loops share this routine. It performs
    the IEEE operations of ``state + (dt/6) * (k1 + 2*k2 + 2*k3 + k4)``
    in that association order, with stage inputs ``state + (dt/2)*k1``,
    ``state + (dt/2)*k2`` and ``state + dt*k3``, on the ``(scratch,
    stage, acc)`` buffers of ``work``, allocated once per run.
    ``rhs(y, t, temps)`` writes y's temperatures into ``temps``: a stage
    input is dead once its temperatures are known, so it holds them
    itself, and k1's go to ``scratch``, so ``state`` is read-only here.
    ``out`` may be ``state``.
    """
    scratch, stage, acc = work
    half = 0.5 * dt
    midpoint = time_now + half
    k1 = rhs(state, time_now, scratch)
    np.multiply(k1, half, out=stage)
    np.add(state, stage, out=stage)
    k2 = rhs(stage, midpoint, stage)
    np.multiply(k2, half, out=stage)
    np.add(state, stage, out=stage)
    k3 = rhs(stage, midpoint, stage)
    np.multiply(k3, dt, out=stage)
    np.add(state, stage, out=stage)
    k4 = rhs(stage, time_now + dt, stage)
    np.multiply(k2, 2.0, out=acc)
    np.add(k1, acc, out=acc)
    np.multiply(k3, 2.0, out=stage)
    np.add(acc, stage, out=acc)
    np.add(acc, k4, out=acc)
    np.multiply(acc, dt / 6.0, out=acc)
    np.add(state, acc, out=out)


def _all_finite(values: np.ndarray) -> bool:
    """Whether every element is finite, by one sum where it can be.

    An inf or NaN element makes the sum inf or NaN, so a finite sum
    proves every element finite. A non-finite sum can also come from
    finite values that overflow, so only then does the elementwise test
    decide.
    """
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def simulate_transient(
    network: ThermalNetwork,
    duration_s: float,
    output_interval_s: float = 60.0,
    max_step_s: float | None = None,
    step_safety: float = DEFAULT_STEP_SAFETY,
    commit_final_state: bool = False,
    method: str = "rk4",
    stop_at: tuple[str, float] | None = None,
) -> TransientResult:
    """Integrate a network forward in time and sample its trajectory.

    Parameters
    ----------
    network:
        The chassis network. Its PCM samples' current enthalpies are the
        initial conditions; they are left untouched unless
        ``commit_final_state`` is set.
    duration_s:
        Simulation horizon. The returned traces always end with a sample
        at exactly ``duration_s``, even when the horizon is shorter than
        (or not a multiple of) the output interval.
    output_interval_s:
        Sampling resolution of the returned traces.
    max_step_s:
        Optional cap on the internal RK4 step (defaults to the stability
        bound and never exceeds the output interval).
    step_safety:
        Fraction of the minimum time constant used for the internal step.
    commit_final_state:
        If true, write the final PCM enthalpies back into the network's
        samples, letting callers chain simulation phases.
    method:
        ``"rk4"`` (default): fixed-step explicit RK4 at the stability
        bound — fast, deterministic, exact energy bookkeeping.
        ``"bdf"``: SciPy's implicit BDF integrator on the same compiled
        right-hand side — an independent numerical path used as a
        cross-check (tests assert the two agree).
    stop_at:
        Optional ``(node, temperature_c)``, RK4 only: end the run after the
        first output sample at which that node (or air segment) is at or
        above the temperature. The traces stop there; each sample equals
        the full run's, since the step grid does not depend on the horizon.
    """
    _validate_run_args(duration_s, output_interval_s, max_step_s, stop_at)
    if method not in ("rk4", "bdf"):
        raise ConfigurationError(
            f"method must be 'rk4' or 'bdf', got {method!r}"
        )
    if stop_at is not None and method == "bdf":
        raise ConfigurationError("stop_at applies to the RK4 method only")
    network.validate()
    obs = get_registry()
    with obs.timer("solver.transient"):
        compiled = _CompiledNetwork(network)
        obs.count("solver.compiled_builds")
        obs.count("solver.path.compiled")

        if method == "bdf":
            return _simulate_bdf(
                network, compiled, duration_s, output_interval_s, commit_final_state
            )

        step = _resolve_step(network, step_safety, max_step_s, output_interval_s)
        return _integrate_rk4(
            network, compiled, duration_s, output_interval_s, step,
            commit_final_state, obs, stop_at,
        )


def _integrate_rk4(
    network: ThermalNetwork,
    compiled: _CompiledNetwork,
    duration_s: float,
    output_interval_s: float,
    step: float,
    commit_final_state: bool,
    obs: ObsRegistry,
    stop_at: tuple[str, float] | None,
) -> TransientResult:
    """Fixed-step RK4 integration of the compiled network.

    A step is a pure function of the state, ``dt`` and the cached
    ``(K, c)`` pairs at ``t``, ``t + dt/2`` and ``t + dt``. So once a
    computed step under one pair returns its input state byte for byte,
    a later step of that ``dt`` whose inputs stay that pair only
    advances the time (a fixed step). ``fixed_dts`` holds the step sizes
    so verified for the current state and pair; any computed step that
    moves the state or rebuilds the pair clears it.
    """

    times = _sample_times(duration_s, output_interval_s)
    n_outputs = len(times)

    state = network.initial_state()
    advanced = np.empty_like(state)
    work = (np.empty_like(state), np.empty_like(state), np.empty_like(state))
    n_cap = compiled.n_cap
    buffers = _TraceBuffers(compiled, n_outputs)
    watched = None if stop_at is None else buffers.watch(stop_at)

    time_now = 0.0
    steps_taken = 0
    fixed_steps = 0
    fixed_dts: set[float] = set()
    for sample_index in range(n_outputs):
        target = times[sample_index]
        while time_now < target - 1e-9:
            dt = min(step, target - time_now)
            steps_taken += 1
            if dt in fixed_dts and compiled.holds_through(time_now, dt):
                time_now += dt
                fixed_steps += 1
                continue
            computed = compiled.inputs_computed
            _rk4_step(compiled.rhs, state, time_now, dt, work, advanced)
            time_now += dt
            if not _all_finite(advanced):
                raise SolverError(
                    f"non-finite state at t={time_now:.1f}s in network "
                    f"{network.name!r}; step {step:.3g}s may be unstable"
                )
            if (
                compiled.inputs_computed == computed
                and advanced.tobytes() == state.tobytes()
            ):
                fixed_dts.add(dt)
            else:
                fixed_dts.clear()
            state, advanced = advanced, state
        buffers.record(sample_index, state, target)
        if watched is not None and watched[sample_index] >= stop_at[1]:
            times = times[: sample_index + 1]
            break

    if obs.enabled:
        obs.count("solver.runs")
        obs.count("solver.method.rk4")
        obs.count("solver.rk4_steps", steps_taken)
        obs.count("solver.rk4_fixed_steps", fixed_steps)
        obs.count("solver.rhs_evals", 4 * (steps_taken - fixed_steps))
        _count_inputs(obs, compiled)
        obs.record("solver.step_s", step)

    if commit_final_state:
        for i, name in enumerate(compiled.pcm_names):
            network.pcm_node(name).sample.enthalpy_j = float(state[n_cap + i])

    return buffers.result(times)


def _count_inputs(
    obs: ObsRegistry, evaluator: _CompiledNetwork | _BatchCompiledNetwork
) -> None:
    """Record how many input evaluations rebuilt or reused the constants,
    and a run whose inputs were certified by their breakpoints."""
    obs.count("solver.inputs.computed", evaluator.inputs_computed)
    obs.count("solver.inputs.reused", evaluator.inputs_reused)
    if evaluator.breakpoints is not None:
        obs.count("solver.inputs.certified")


def _simulate_bdf(
    network: ThermalNetwork,
    compiled: _CompiledNetwork,
    duration_s: float,
    output_interval_s: float,
    commit_final_state: bool,
) -> TransientResult:
    """SciPy BDF integration of the compiled network (cross-check path).

    Power and fan schedules may be discontinuous (step profiles), which
    adaptive implicit solvers handle but step over; the maximum internal
    step is capped at the output interval so no feature narrower than the
    sampling resolution is skipped entirely.
    """
    from scipy.integrate import solve_ivp

    times = _sample_times(duration_s, output_interval_s)
    n_outputs = len(times)
    initial = network.initial_state()

    solution = solve_ivp(
        lambda t, y: compiled.rhs(y, t),
        t_span=(0.0, duration_s),
        y0=initial,
        method="BDF",
        t_eval=times,
        max_step=output_interval_s,
        rtol=1e-6,
        atol=1e-6,
    )
    if not solution.success:
        raise SolverError(f"BDF integration failed: {solution.message}")

    obs = get_registry()
    if obs.enabled:
        obs.count("solver.runs")
        obs.count("solver.method.bdf")
        obs.count("solver.rhs_evals", int(solution.nfev))
        _count_inputs(obs, compiled)

    n_cap = compiled.n_cap
    buffers = _TraceBuffers(compiled, n_outputs)
    for sample_index, time_s in enumerate(times):
        buffers.record(sample_index, solution.y[:, sample_index], float(time_s))

    if commit_final_state:
        # The final t_eval sample now sits exactly at the horizon.
        for i, name in enumerate(compiled.pcm_names):
            network.pcm_node(name).sample.enthalpy_j = float(
                solution.y[n_cap + i, -1]
            )

    return buffers.result(times)


class _BatchCompiledNetwork:
    """Stacked evaluator advancing N structurally-identical networks at once.

    Structure (node names and order, edge endpoints, air-segment coupling
    layout) must match across members; *parameters* (conductance values,
    powers, PCM masses and materials, fan curves) are free to differ —
    they are stacked along a leading member axis and every kernel op
    broadcasts over it.
    """

    #: No certificate (see :attr:`_CompiledNetwork.breakpoints`): the
    #: batch evaluates its members' inputs at every new time.
    breakpoints = None

    def __init__(self, members: list[_CompiledNetwork]) -> None:
        if not members:
            raise ConfigurationError("batch must contain at least one network")
        first = members[0]
        for position, member in enumerate(members[1:], start=1):
            if member.structure() != first.structure():
                raise ConfigurationError(
                    f"batch member {position} ({member.network.name!r}) is not "
                    f"structurally identical to member 0 "
                    f"({first.network.name!r}); batched simulation requires "
                    f"matching node order, edges, and air-path layout"
                )
        self.members = members
        self.n_members = len(members)
        self.n_cap = first.n_cap
        self.n_pcm = first.n_pcm
        self.n_state = first.n_state

        self.boundary_matrix = np.stack([m.boundary_matrix for m in members])
        self.inv_capacity = np.stack([m.inv_capacity for m in members])
        if self.n_pcm:
            self.pcm_masses = np.stack([m.pcm_masses for m in members])
            self.pcm_solidus = np.stack([m.pcm_solidus for m in members])
            self.pcm_fusion = np.stack([m.pcm_fusion for m in members])
            self.pcm_c_solid = np.stack([m.pcm_c_solid for m in members])
            self.pcm_c_liquid = np.stack([m.pcm_c_liquid for m in members])
            self.pcm_liquid_intercept = np.stack(
                [m.pcm_liquid_intercept for m in members]
            )
            self.pcm_mushy_slope = np.stack([m.pcm_mushy_slope for m in members])

        self.air = first.air_path is not None
        self.inlet_index = first.inlet_index
        self.static_boundary = all(
            m.static_boundary_flows is not None for m in members
        )
        if self.static_boundary:
            self.boundary_const = np.stack([m.boundary_const for m in members])
            self.static_boundary_flows = np.stack(
                [m.static_boundary_flows for m in members]
            )

        self._input_cache_time: float | None = None
        self._input_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._inputs_key: tuple | None = None
        self.inputs_computed = 0
        self.inputs_reused = 0
        self._op_cache_key: bytes | None = None
        self._op_cache: tuple[np.ndarray, np.ndarray] | None = None

    def temperatures(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Stacked node temperatures into ``out`` (which may be ``state``);
        same branch arithmetic as the single-network path, broadcast over
        the member axis."""
        if out is not state:
            np.copyto(out, state)
        if self.n_pcm:
            specific = state[:, self.n_cap :] / self.pcm_masses
            solid = self.pcm_solidus + specific / self.pcm_c_solid
            liquid = self.pcm_liquid_intercept + specific / self.pcm_c_liquid
            mushy = self.pcm_solidus + specific * self.pcm_mushy_slope
            out[:, self.n_cap :] = np.where(
                specific <= 0.0,
                solid,
                np.where(specific >= self.pcm_fusion, liquid, mushy),
            )
        return out

    def _operators_for(self, flows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-member (K, inlet vector) operators at member flows."""
        key = flows.tobytes()
        if key == self._op_cache_key and self._op_cache is not None:
            return self._op_cache
        pairs = [
            member._operator_for_flow(float(flow))
            for member, flow in zip(self.members, flows)
        ]
        operators = np.stack([pair[0] for pair in pairs])
        inlet_vectors = np.stack([pair[1] for pair in pairs])
        self._op_cache_key = key
        self._op_cache = (operators, inlet_vectors)
        return self._op_cache

    def _constants_at(self, time_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (K, state-independent terms) at a time: cached per time,
        and reused while the stacked inputs stay bit-equal, as in
        :meth:`_CompiledNetwork._constants_at`."""
        if time_s == self._input_cache_time and self._input_cache is not None:
            return self._input_cache
        if self.static_boundary:
            boundary = self.boundary_const
        else:
            boundary = np.stack(
                [m._boundaries_at(time_s) for m in self.members]
            )
        powers = np.stack([m._powers_at(time_s) for m in self.members])
        if self.air:
            flows = np.array(
                [m.air_path.flow_at_time(time_s) for m in self.members]
            )
        else:
            flows = np.zeros(self.n_members)
        key = (flows.tobytes(), powers.tobytes(), boundary.tobytes())
        if key == self._inputs_key:
            self.inputs_reused += 1
        else:
            self.inputs_computed += 1
            if self.static_boundary:
                base = self.static_boundary_flows.copy()
            else:
                base = np.einsum("nij,nj->ni", self.boundary_matrix, boundary)
            base[:, : self.n_cap] += powers
            operators, inlet_vectors = self._operators_for(flows)
            if self.air:
                base += inlet_vectors * boundary[:, self.inlet_index, None]
            base *= self.inv_capacity
            self._inputs_key = key
            self._input_cache = (operators, base)
        self._input_cache_time = time_s
        return self._input_cache

    def rhs(self, state: np.ndarray, time_s: float, out: np.ndarray) -> np.ndarray:
        """Stacked state derivative for all members; shape ``(N, n_state)``.
        ``out`` receives the temperatures on the way."""
        operators, constants = self._constants_at(time_s)
        derivative = np.einsum(
            "nij,nj->ni", operators, self.temperatures(state, out)
        )
        derivative += constants
        return derivative


def simulate_transient_batch(
    networks: list[ThermalNetwork],
    duration_s: float,
    output_interval_s: float = 60.0,
    max_step_s: float | None = None,
    step_safety: float = DEFAULT_STEP_SAFETY,
    commit_final_state: bool = False,
    progress_cb: Callable[[int, int, float], None] | None = None,
    stop_at: tuple[str, float] | None = None,
) -> BatchTransientResult:
    """Advance N structurally-identical networks in one RK4 loop.

    The networks are packed into a single ``(N, n_state)`` state array and
    stepped together at the most conservative member's stability bound, so
    a sweep over parameter variants (wax mass, blockage, sprint power)
    costs one vectorized integration instead of N scalar ones.

    A member whose state goes non-finite is *isolated*, not fatal: it is
    frozen at its last finite state, recorded as a failure, and excluded
    from further updates while the rest of the batch continues. Member
    trajectories are returned in input order; diverged members yield
    ``None`` (see :class:`BatchTransientResult`).

    ``progress_cb``, when given, is called once per committed output
    sample as ``progress_cb(sample_index, n_samples, time_s)`` (including
    the initial condition at index 0). It adds nothing to the hot step
    loop when omitted. An exception raised by the callback aborts the
    integration and propagates to the caller unchanged — long-running
    service layers use this for cooperative cancellation.

    ``stop_at`` is :func:`simulate_transient`'s, met once every live
    member has reached the temperature at some sample.
    """
    _validate_run_args(duration_s, output_interval_s, max_step_s, stop_at)
    if not networks:
        raise ConfigurationError("batch must contain at least one network")
    for network in networks:
        network.validate()

    obs = get_registry()
    with obs.timer("solver.transient_batch"):
        members = [_CompiledNetwork(network) for network in networks]
        batch = _BatchCompiledNetwork(members)
        obs.count("solver.compiled_builds", len(members))
        obs.count("solver.path.batched")

        step = min(
            _resolve_step(network, step_safety, max_step_s, output_interval_s)
            for network in networks
        )

        times = _sample_times(duration_s, output_interval_s)
        n_outputs = len(times)
        n_members = len(networks)
        n_cap = batch.n_cap

        state = np.stack([network.initial_state() for network in networks])
        advanced = np.empty_like(state)
        work = (np.empty_like(state), np.empty_like(state), np.empty_like(state))
        active = np.ones(n_members, dtype=bool)
        failures: dict[int, str] = {}
        buffers = [_TraceBuffers(member, n_outputs) for member in members]
        if stop_at is not None:
            watched = [member_buffers.watch(stop_at) for member_buffers in buffers]
            reached = np.zeros(n_members, dtype=bool)

        time_now = 0.0
        steps_taken = 0
        for sample_index in range(n_outputs):
            target = times[sample_index]
            while time_now < target - 1e-9:
                dt = min(step, target - time_now)
                _rk4_step(batch.rhs, state, time_now, dt, work, advanced)
                time_now += dt
                steps_taken += 1
                if not math.isfinite(advanced.sum()):
                    # Some row's sum is not finite: test each row exactly.
                    finite = np.isfinite(advanced).all(axis=1)
                    newly_diverged = active & ~finite
                    if np.any(newly_diverged):
                        for member_index in np.flatnonzero(newly_diverged):
                            failures[int(member_index)] = (
                                f"non-finite state at t={time_now:.1f}s in "
                                f"network {networks[member_index].name!r}; "
                                f"step {step:.3g}s may be unstable"
                            )
                        active &= finite
                # Diverged members stay frozen at their last finite state
                # (the selection of np.where(active, advanced, state)).
                np.copyto(state, advanced, where=active[:, None])
            for member_index in range(n_members):
                if active[member_index]:
                    buffers[member_index].record(
                        sample_index, state[member_index], target
                    )
            if progress_cb is not None:
                progress_cb(sample_index, n_outputs, float(target))
            if stop_at is not None:
                reached |= [trace[sample_index] >= stop_at[1] for trace in watched]
                if np.all(reached | ~active):
                    times = times[: sample_index + 1]
                    break

        if obs.enabled:
            obs.count("solver.runs")
            obs.count("solver.method.rk4_batch")
            obs.count("solver.batch_members", n_members)
            obs.count("solver.rk4_steps", steps_taken)
            obs.count("solver.rhs_evals", 4 * steps_taken * n_members)
            _count_inputs(obs, batch)
            obs.record("solver.step_s", step)

        if commit_final_state:
            for member_index, member in enumerate(members):
                if not active[member_index]:
                    continue
                for i, name in enumerate(member.pcm_names):
                    networks[member_index].pcm_node(name).sample.enthalpy_j = float(
                        state[member_index, n_cap + i]
                    )

        results: list[TransientResult | None] = [
            buffers[member_index].result(times) if active[member_index] else None
            for member_index in range(n_members)
        ]
        return BatchTransientResult(results=results, failures=failures)
