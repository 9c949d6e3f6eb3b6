"""The datacenter simulator: traffic, DVFS, and PCM thermal coupling.

Two fidelity modes share the thermal core and policy machinery:

* ``fluid`` — per-tick offered load comes straight from the trace and is
  spread uniformly over the cluster (round-robin over Poisson traffic is
  uniform in expectation). Fast: two simulated days of a 1008-server
  cluster take a few milliseconds. Used for parameter sweeps.
* ``event`` — a discrete-event simulation of individual job arrivals,
  round-robin dispatch into per-server slots, FIFO queueing when the
  cluster is saturated, and exact work-conserving completions under DVFS
  via a global *work clock* (completions are scheduled in accumulated-work
  time; frequency changes re-rate the clock rather than rescheduling every
  in-flight job).

Throughput is reported in *nominal capacity units*: 1.0 means the cluster
is completing work at the rate of all servers busy at nominal frequency,
matching the normalization of the paper's Figure 12.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.loadbalancer import LoadBalancer, RoundRobin
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import (
    ClusterThermalState,
    UniformStretchAdvancer,
    uniform_total,
)
from repro.dcsim.throttling import NoThermalLimit, ThrottleDecision
from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.obs import get_registry
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel
from repro.workload.jobs import Arrival
from repro.workload.trace import LoadTrace


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of a simulation run."""

    mode: str = "fluid"
    tick_interval_s: float = 60.0
    slots_per_server: int = 8
    inlet_temperature_c: float = 25.0
    wax_enabled: bool = True
    seed: int = 7
    #: Simulation engine for both modes: "batched" (the default: fluid
    #: stretches, a lean event loop) or "reference" (per-event / per-tick
    #: scalar loop).
    #: Bit-identical by construction; see docs/EVENTSIM.md.
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.mode not in ("fluid", "event"):
            raise ConfigurationError(
                f"mode must be 'fluid' or 'event', got {self.mode!r}"
            )
        if self.engine not in ("batched", "reference"):
            raise ConfigurationError(
                f"engine must be 'batched' or 'reference', got {self.engine!r}"
            )
        # In-range test: NaN fails every comparison, so it fails it too.
        if not 0.0 < self.tick_interval_s < math.inf:
            raise ConfigurationError(
                f"tick interval must be positive and finite, got "
                f"{self.tick_interval_s}"
            )
        if self.slots_per_server <= 0:
            raise ConfigurationError("slots per server must be positive")


#: Every per-tick trace of a :class:`SimulationResult`, in the order
#: :func:`repro.faults.chaos.result_fingerprint` hashes them (stored
#: fingerprints depend on it). ``room_temperature_c`` and
#: ``completed_work_s`` may be ``None`` on a result built by hand; a
#: simulator run records all of them.
RESULT_TRACES: tuple[str, ...] = (
    "times_s",
    "demand",
    "utilization",
    "frequency_ghz",
    "power_w",
    "cooling_load_w",
    "wax_heat_w",
    "melt_fraction",
    "throughput",
    "queue_length",
    "shed_work",
    "room_temperature_c",
    "completed_work_s",
)


@dataclass
class SimulationResult:
    """Per-tick traces of one simulation run.

    All power quantities are cluster totals in watts; ``throughput`` is in
    nominal capacity units (see module docstring); ``demand`` is the
    offered load from the trace.
    """

    times_s: np.ndarray
    demand: np.ndarray
    utilization: np.ndarray
    frequency_ghz: np.ndarray
    power_w: np.ndarray
    cooling_load_w: np.ndarray
    wax_heat_w: np.ndarray
    melt_fraction: np.ndarray
    throughput: np.ndarray
    queue_length: np.ndarray
    shed_work: np.ndarray
    room_temperature_c: np.ndarray | None = None
    completed_work_s: np.ndarray | None = None
    server_count: int = 0
    nominal_frequency_ghz: float | None = None
    #: Cluster power at t=0, used to anchor energy integration at the run
    #: start (tick times begin at ``dt``). Older recordings without it fall
    #: back to the first tick's power.
    initial_power_w: float | None = None

    @property
    def times_hours(self) -> np.ndarray:
        """Tick times in hours."""
        return self.times_s / 3600.0

    @property
    def peak_cooling_load_w(self) -> float:
        """Peak cluster cooling load over the run."""
        return float(np.max(self.cooling_load_w))

    @property
    def peak_power_w(self) -> float:
        """Peak cluster electrical power over the run."""
        return float(np.max(self.power_w))

    @property
    def peak_throughput(self) -> float:
        """Peak normalized throughput over the run."""
        return float(np.max(self.throughput))

    def energy_kwh(self) -> float:
        """Total electrical energy of the run, integrated from t=0.

        Tick times start at ``dt``, so integrating the tick arrays alone
        would silently drop the first interval; a t=0 sample (the stored
        initial power, or the first tick's power for older recordings) is
        prepended to cover it.
        """
        times = self.times_s
        power = self.power_w
        if len(times) > 0 and times[0] > 0.0:
            p0 = (
                self.initial_power_w
                if self.initial_power_w is not None
                else power[0]
            )
            times = np.concatenate(([0.0], times))
            power = np.concatenate(([p0], power))
        return float(np.trapezoid(power, times)) / 3.6e6

    def throttled_mask(self) -> np.ndarray:
        """Ticks at which the cluster ran below nominal frequency.

        Compared against the platform's nominal frequency, not the run's
        maximum: a run throttled at every tick must report every tick,
        which a run-relative comparison would miss entirely. Results from
        older recordings without a stored nominal fall back to the
        run-maximum heuristic.
        """
        if self.nominal_frequency_ghz is not None:
            return self.frequency_ghz < self.nominal_frequency_ghz - 1e-9
        return self.frequency_ghz < np.max(self.frequency_ghz) - 1e-9


class DatacenterSimulator:
    """Simulates one cluster of a homogeneous datacenter."""

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial,
        trace: LoadTrace,
        topology: ClusterTopology | None = None,
        load_balancer: LoadBalancer | None = None,
        policy=None,
        config: SimulationConfig | None = None,
        arrivals: list[Arrival] | None = None,
        room: RoomModel | None = None,
        inlet_offsets_c: np.ndarray | None = None,
        fault_injector=None,
    ) -> None:
        self.characterization = characterization
        self.power_model = power_model
        self.material = material
        self.trace = trace
        self.topology = topology or ClusterTopology()
        self.load_balancer = load_balancer or RoundRobin()
        self.policy = policy or NoThermalLimit()
        self.config = config or SimulationConfig()
        self.room = room
        self.inlet_offsets_c = inlet_offsets_c
        self.fault_injector = fault_injector
        #: Thermal state at the end of the most recent run (for invariant
        #: checks that need the final enthalpy field).
        self.final_state: ClusterThermalState | None = None
        #: Copy of the per-server wax enthalpy at t=0 of the most recent
        #: run, for whole-run energy-closure checks.
        self.initial_specific_enthalpy_j_per_kg: np.ndarray | None = None
        self._arrivals = arrivals

    # -- shared helpers ------------------------------------------------------

    def _make_state(self) -> ClusterThermalState:
        initial = float(np.clip(self.trace.value_at(0.0), 0.0, 1.0))
        return ClusterThermalState(
            characterization=self.characterization,
            power_model=self.power_model,
            material=self.material,
            server_count=self.topology.server_count,
            inlet_temperature_c=self.config.inlet_temperature_c,
            initial_utilization=initial,
            wax_enabled=self.config.wax_enabled,
            inlet_offset_c=self.inlet_offsets_c,
        )

    def _tick_times(self) -> np.ndarray:
        dt = self.config.tick_interval_s
        n = int(np.floor(self.trace.duration_s / dt))
        return (np.arange(n) + 1) * dt

    def run(self) -> SimulationResult:
        """Run the configured simulation and return its traces."""
        obs = get_registry()
        start = time.perf_counter()
        with obs.timer("dcsim.run"):
            # Each mode has a batched and a reference engine, bit-identical
            # by construction; all of them drive one _Plant per run.
            if self.config.mode == "fluid":
                from repro.dcsim.fluid_engine import run_fluid_mode

                result = run_fluid_mode(self)
            else:
                from repro.dcsim.event_engine import run_event_mode

                result = run_event_mode(self)
        if obs.enabled:
            elapsed = time.perf_counter() - start
            n_ticks = len(result.times_s)
            obs.count("dcsim.runs")
            obs.count(f"dcsim.mode.{self.config.mode}")
            obs.count("dcsim.ticks", n_ticks)
            obs.count("dcsim.server_ticks", n_ticks * result.server_count)
            if elapsed > 0:
                obs.record("dcsim.ticks_per_sec", n_ticks / elapsed)
        return result


class _Plant:
    """One run of the per-tick plant protocol, shared by every tick loop.

    Owns the run's thermal state, its :class:`SimulationResult` and
    throttle-tick count, and drives the simulator's room, policy and
    fault hooks. A tick loop calls :meth:`decide` and then :meth:`step`
    once per tick: room temperature to the inlets, fault hooks, policy
    decision, thermal step, room step, record. The fluid engine, the
    event engine and :class:`repro.dcsim.geo.GeoPair` all drive this one
    body, and write their own traces into :attr:`result` by its field
    names.
    """

    def __init__(self, sim: DatacenterSimulator) -> None:
        self.sim = sim
        self.room = sim.room
        self.policy = sim.policy
        self.injector = sim.fault_injector
        if self.room is not None:
            self.room.reset()
        reset = getattr(self.policy, "reset", None)
        if callable(reset):
            reset()
        if self.injector is not None:
            self.injector.reset()
        # Per-tick control hook: policies that implement begin_tick (e.g.
        # repro.control.ControlLoop) receive the simulation clock before
        # each decision; plain policies are untouched.
        self.begin_tick = getattr(self.policy, "begin_tick", None)
        self.state = sim._make_state()
        sim.initial_specific_enthalpy_j_per_kg = np.array(
            self.state.specific_enthalpy_j_per_kg, copy=True
        )
        self.n_servers = sim.topology.server_count
        self.dt = sim.config.tick_interval_s
        self.ticks = sim._tick_times()
        self.throttle_ticks = 0
        # The run's traces, allocated up front and written tick by tick.
        self.result = SimulationResult(
            **{name: np.zeros(len(self.ticks)) for name in RESULT_TRACES},
            server_count=self.n_servers,
            nominal_frequency_ghz=sim.power_model.nominal_frequency_ghz,
        )
        # True while every server provably shares one zone temperature and
        # one wax enthalpy. A fresh batched state without inlet offsets
        # starts from one inlet and one utilization, and float ticks keep
        # it uniform; the first per-server step clears the flag for good.
        # The reference engines never set it: they stay the array oracle.
        self.uniform = (
            sim.config.engine == "batched"
            and not self.state.inlet_offset_c.any()
        )
        self.column_ticks = 0
        self._column: UniformStretchAdvancer | None = None

    def _room_c(self) -> float:
        """The room temperature, or the configured inlet without a room."""
        if self.room is None:
            return self.sim.config.inlet_temperature_c
        return self.room.temperature_c

    def demand_at(self, t: float) -> float:
        """Offered load at the midpoint of the tick ending at ``t``."""
        return float(
            np.clip(self.sim.trace.value_at(t - 0.5 * self.dt), 0.0, 1.0)
        )

    def demand_series(self) -> np.ndarray:
        """:meth:`demand_at` at every tick, looked up at once: elementwise
        ``np.interp`` and ``np.clip`` equal the per-tick scalar lookups
        bit for bit. The reference engines keep :meth:`demand_at`."""
        return np.clip(self.sim.trace.value_at(self.ticks - 0.5 * self.dt), 0.0, 1.0)

    def decide(self, t: float, work_rate: np.ndarray) -> ThrottleDecision:
        """This tick's operating point for the offered ``work_rate``."""
        state = self.state
        injector = self.injector
        if self.room is not None:
            state.inlet_temperature_c = self.room.temperature_c
        if injector is not None:
            injector.apply_state(state, base_inlet_c=self._room_c())
            # The policy sees the work rate through the sensor path.
            work_rate = injector.observe(work_rate)
        if self.begin_tick is not None:
            self.begin_tick(t, self.dt)
        decision = self.policy.decide(state, work_rate)
        if injector is not None:
            decision = injector.constrain(decision)
        if decision.limited:
            self.throttle_ticks += 1
        return decision

    def column(self) -> UniformStretchAdvancer | None:
        """The state as one server column, or ``None`` off that path.

        The column applies while the state is uniform and every fault
        scale is exactly 1.0 (a live scale multiplies on the array path
        only). One advancer serves the whole run; each use reloads it
        from the arrays, which every column user commits back to.
        """
        if not self.uniform or self.state.fault_scales != (1.0, 1.0, 1.0):
            return None
        if self._column is None:
            self._column = UniformStretchAdvancer(self.state, self.dt)
        else:
            self._column.load()
        return self._column

    def step(
        self,
        i: int,
        t: float,
        busy: float | np.ndarray,
        frequency: float,
        *,
        demand: float,
        utilization: float,
        throughput: float,
        queue_length: float,
        shed_work: float,
    ) -> None:
        """Advance the servers and the room one tick and record it.

        ``busy`` is one busy fraction every server runs (a float), or a
        per-server array. The keywords are the loop's own traces of the
        tick, named as :class:`SimulationResult` names them.
        """
        column = self.column() if isinstance(busy, float) else None
        if column is not None:
            totals = self._column_step(column, busy, frequency)
        else:
            state = self.state
            if isinstance(busy, float):
                busy = np.full(self.n_servers, busy)
            else:
                self.uniform = False
            power, release, wax = state.step(self.dt, busy, frequency)
            melt = np.mean(state.melt_fraction)
            totals = (np.sum(power), np.sum(release), np.sum(wax), melt)
        power_w, release_w, wax_w, melt = map(float, totals)
        if self.room is not None:
            self.room.step(self.dt, max(release_w, 0.0))
        result = self.result
        result.times_s[i] = t
        result.demand[i] = demand
        result.utilization[i] = utilization
        result.frequency_ghz[i] = frequency
        result.power_w[i] = power_w
        result.cooling_load_w[i] = release_w
        result.wax_heat_w[i] = wax_w
        result.melt_fraction[i] = melt
        result.throughput[i] = throughput
        result.queue_length[i] = queue_length
        result.shed_work[i] = shed_work
        result.room_temperature_c[i] = self._room_c()

    def _column_step(
        self, column: UniformStretchAdvancer, busy: float, frequency: float
    ) -> tuple[float, float, float, float]:
        """One tick on the column: the power, release and wax-heat totals
        and the melt mean, each the ``np.sum`` of its per-server row."""
        power, release, wax, melt = column.step(
            self.state.inlet_temperature_c, busy, frequency
        )
        column.commit()
        self.column_ticks += 1
        total = uniform_total(self.n_servers)
        # The melt mean divides the total, as np.mean divides.
        return (
            total(power),
            total(release),
            total(wax),
            total(melt) / self.n_servers,
        )

    def finish(self, initial_power_w: float | None) -> SimulationResult:
        """The run's traces; leaves the final state on the simulator."""
        obs = get_registry()
        obs.count("dcsim.throttle_ticks", self.throttle_ticks)
        obs.count("dcsim.column_ticks", self.column_ticks)
        self.sim.final_state = self.state
        self.result.initial_power_w = initial_power_w
        return self.result
