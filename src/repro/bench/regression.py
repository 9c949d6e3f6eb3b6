"""The tier-2 performance-regression runner behind ``repro-bench``.

Each scenario exercises one component that dominates the library's
wall-clock — the chassis RK4 transient and steady-state fixed point,
the solver's right-hand-side kernels and backends, the vectorized
cluster tick, fluid- and event-mode simulated days, the control loop,
and the service front (:data:`SCENARIOS` lists them all). Scenarios
that compare a reference path against a fast one time the two with
:func:`_interleaved_best`, and a scenario's :class:`Gate` turns the
metric it returns into a pass/fail counter. Scenarios run with
observability collection on, so every result carries the run's
deterministic work counters (RK4 steps, events processed) alongside
its wall-clock:

* **times** catch "the same work got slower" regressions and are gated
  with a relative tolerance (CI hardware is noisy, so the tolerance is
  generous);
* **counters** catch "the code silently started doing more work"
  regressions machine-independently; they are reported always and gated
  only under ``--strict-counters`` (a legitimate algorithm change should
  refresh the baseline instead).

Artifacts are versioned JSON (``BENCH_<sha>.json``); the baseline the
gate compares against is the same schema, checked in at
``benchmarks/baseline.json`` and refreshed with ``--update-baseline``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import platform
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs import get_registry

#: Version tag of the benchmark artifact schema.
BENCH_SCHEMA = "repro.bench/1"

#: Relative slowdown tolerated before the gate fails (55%: shared CI
#: runners jitter; the counters catch subtler drift).
DEFAULT_TOLERANCE = 0.55

#: Default baseline location relative to the repository root.
DEFAULT_BASELINE = "benchmarks/baseline.json"


@dataclass(frozen=True)
class Gate:
    """A pass/fail counter on a metric a scenario's runnable returns.

    The runnable returns a dict holding ``metric``. :meth:`apply` counts
    ``counter`` as 1 when the value is at least ``bound`` (at most, when
    ``upper``) and 0 otherwise, and, when ``floor_counter`` is named,
    the value rounded down, so that counter reads "at least Nx".
    """

    metric: str
    counter: str
    bound: float
    upper: bool = False
    floor_counter: str | None = None

    def apply(self, metrics: dict[str, float]) -> None:
        value = metrics[self.metric]
        obs = get_registry()
        if self.floor_counter is not None:
            obs.count(self.floor_counter, int(value))
        passed = value <= self.bound if self.upper else value >= self.bound
        obs.count(self.counter, int(passed))


@dataclass(frozen=True)
class Scenario:
    """One benchmark scenario: a named, repeatable callable.

    ``build(quick)`` does the set-up and returns the runnable each
    repeat times. A ``gate`` applies after every full-mode repeat; quick
    mode runs smaller workloads and skips it.
    """

    name: str
    description: str
    build: Callable[[bool], Callable[[], object]]
    repeats: int = 3
    gate: Gate | None = None


def _interleaved_best(
    arms: Sequence[Callable[[int], Callable[[], object]]], rounds: int
) -> list[float]:
    """Each arm's best time over ``rounds`` rounds that run the arms in turn.

    An arm is called with the round number and does its set-up there,
    untimed; only the callable it returns is timed. Interleaving puts
    drift in machine load on every arm alike, and scoring each arm on
    its best round keeps a scheduler hiccup hitting one arm from
    masquerading as a speedup (or regression).
    """
    best = [float("inf")] * len(arms)
    for round_number in range(rounds):
        for index, arm in enumerate(arms):
            work = arm(round_number)
            start = time.perf_counter()
            work()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _chassis_transient(quick: bool) -> Callable[[], object]:
    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.solver import simulate_transient
    from repro.units import hours

    network = one_u_commodity().chassis.build_network(
        constant_utilization(0.8), with_wax=True
    )
    horizon = hours(0.25) if quick else hours(1.0)
    return lambda: simulate_transient(network, horizon, output_interval_s=300.0)


def _chassis_steady_state(quick: bool) -> Callable[[], object]:
    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.steady_state import solve_steady_state

    network = one_u_commodity().chassis.build_network(
        constant_utilization(1.0), placebo=True
    )
    return lambda: solve_steady_state(network)


def _cluster_ticks(quick: bool) -> Callable[[], object]:
    import numpy as np

    from repro.dcsim.thermal_coupling import ClusterThermalState
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity

    spec = one_u_commodity()
    state = ClusterThermalState(
        characterize_platform(spec),
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        server_count=1008,
    )
    utilization = np.full(1008, 0.7)
    n_ticks = 20 if quick else 100

    def run() -> None:
        for _ in range(n_ticks):
            state.step(60.0, utilization, 2.4)

    return run


def _one_u_simulators(trace, servers: int) -> Callable[..., object]:
    """Factory of the simulators every dcsim scenario runs.

    A 1U cluster of ``servers`` servers with 43 degC paraffin, over
    ``trace``. The platform is characterized once, here; each call
    assembles a fresh ``DatacenterSimulator`` with wax enabled and the
    given ``SimulationConfig`` fields.
    """
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity

    spec = one_u_commodity()
    characterization = characterize_platform(spec)

    def make(**config: object) -> DatacenterSimulator:
        return DatacenterSimulator(
            characterization,
            spec.power_model,
            commercial_paraffin_with_melting_point(43.0),
            trace,
            topology=ClusterTopology(server_count=servers),
            config=SimulationConfig(wax_enabled=True, **config),
        )

    return make


def _fluid_speedup(servers: int) -> Callable[[], object]:
    """Reference-vs-batched fluid engine on the two-day Google trace."""
    from repro.workload.google import synthesize_google_trace

    make = _one_u_simulators(synthesize_google_trace().total, servers)

    def arm(engine: str) -> Callable[[int], Callable[[], object]]:
        return lambda _round: make(mode="fluid", engine=engine).run

    def run() -> dict[str, float]:
        reference_s, batched_s = _interleaved_best(
            (arm("reference"), arm("batched")), rounds=1
        )
        return {"speedup": reference_s / batched_s if batched_s > 0 else 0.0}

    return run


def _event_day(servers: int, horizon_h: float) -> Callable[[], object]:
    from repro.units import hours
    from repro.workload.synthetic import diurnal_trace

    make = _one_u_simulators(diurnal_trace(duration_s=hours(horizon_h)), servers)
    return lambda: make(mode="event").run()


#: The seed-era event loop on ``event_day_96`` (committed
#: ``benchmarks/baseline.json`` before the batched engine landed):
#: 263212 events in 4.317 s, about 61k events/s. The speedup scenario
#: measures against this fixed anchor rather than the current reference
#: engine, so the counter tracks cumulative engine progress and does not
#: move when the reference loop itself gets faster.
_SEED_DAY96_S = 4.3170459829998435
_SEED_DAY96_EVENTS = 263212


def _event_speedup(quick: bool) -> Callable[[], object]:
    from repro.units import hours
    from repro.workload.jobs import cached_arrival_stream
    from repro.workload.synthetic import diurnal_trace

    servers = 32 if quick else 96
    make = _one_u_simulators(
        diurnal_trace(duration_s=hours(6.0 if quick else 24.0)), servers
    )
    seed_rate = _SEED_DAY96_EVENTS / _SEED_DAY96_S

    def run() -> dict[str, float]:
        simulator = make(mode="event", engine="batched")
        # Pre-warm the arrival stream so the measured window is engine
        # throughput, not Ogata thinning (the seed anchor excluded
        # per-repeat generation the same way: min-of-repeats).
        cached_arrival_stream(
            simulator.trace,
            server_count=servers,
            slots_per_server=simulator.config.slots_per_server,
            seed=simulator.config.seed,
        )
        obs = get_registry()
        before = obs.snapshot().counters.get("dcsim.events", 0)
        start = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - start
        events = obs.snapshot().counters.get("dcsim.events", 0) - before
        rate = events / elapsed if elapsed > 0 else 0.0
        return {"speedup": rate / seed_rate}

    return run


def _control_overhead(quick: bool) -> Callable[[], object]:
    """Per-tick cost of the control loop over the bare policy stack.

    Times the chaos plant under the legacy throttling policy against
    the same plant under a :class:`~repro.control.ControlLoop` wrapping
    the ported greedy planner (decision-identical, so both arms do the
    same simulation work), two rounds each, and attributes the
    difference to the loop's per-tick machinery.
    """
    from repro.control import ControlLoop, GreedyThrottlePolicy
    from repro.faults.chaos import ChaosConfig, build_simulator
    from repro.units import hours

    config = ChaosConfig(
        server_count=8 if quick else 24,
        duration_s=hours(10.0) if quick else hours(36.0),
        tick_interval_s=120.0 if quick else 60.0,
        fault_start_s=hours(1.0),
        fault_end_s=hours(5.0),
        max_fault_s=hours(2.0),
        quiet_from_s=hours(6.0),
        relax_s=hours(2.0),
    )

    def control_factory(room, injector):
        return ControlLoop(
            GreedyThrottlePolicy(),
            room,
            injector=injector,
            tick_interval_s=config.tick_interval_s,
        )

    def run() -> dict[str, float]:
        controlled = []  # the wrapped plants, for their decision logs

        def control_arm(_round: int) -> Callable[[], object]:
            controlled.append(
                build_simulator(config, policy_factory=control_factory)
            )
            return controlled[-1].run

        plain_s, control_s = _interleaved_best(
            (lambda _round: build_simulator(config).run, control_arm),
            rounds=2,
        )
        n_ticks = max(len(controlled[-1].policy.decision_log), 1)
        return {"overhead_us_per_tick": (control_s - plain_s) / n_ticks * 1e6}

    return run


def _fig7_sweep(quick: bool) -> Callable[[], object]:
    from repro.experiments.fig7_blockage import run

    return lambda: run(quick=quick)


#: Rounds of every right-hand-side comparison; round ``r`` replays
#: chunk ``r`` of the evaluations.
_RHS_CHUNKS = 5


def _rhs_arms(
    network,
    paths: Sequence[Callable[[object, float], object]],
    n_steps: int,
    seed: int,
) -> tuple[list[Callable[[int], Callable[[], None]]], int]:
    """:func:`_interleaved_best` arms that replay RK4-pattern evaluations.

    The ``n_steps`` RK4 steps split into :data:`_RHS_CHUNKS` chunks, and
    round ``r`` feeds chunk ``r`` through each path in turn. The four
    substage (time offset, state) pairs of one step use seeded
    perturbations of the initial state to stand in for the integrator's
    intermediate stages, so every path sees the solver's real call
    pattern. Returns one arm per path and the evaluations each path
    makes over all rounds.
    """
    import numpy as np

    from repro.thermal.solver import stable_step_s

    base = network.initial_state()
    dt = stable_step_s(network)
    rng = np.random.default_rng(seed)
    stages = [
        (0.0, base),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (1.0, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
    ]
    chunk_steps = max(1, n_steps // _RHS_CHUNKS)

    def replay(evaluate, chunk: int) -> None:
        for step in range(chunk * chunk_steps, (chunk + 1) * chunk_steps):
            t0 = step * dt
            for offset, state in stages:
                evaluate(state, t0 + offset * dt)

    def arm(evaluate) -> Callable[[int], Callable[[], None]]:
        return lambda chunk: lambda: replay(evaluate, chunk)

    return [arm(path) for path in paths], 4 * chunk_steps * _RHS_CHUNKS


def _solver_rhs(quick: bool) -> Callable[[], object]:
    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.solver import _CompiledNetwork

    network = one_u_commodity().chassis.build_network(
        constant_utilization(0.8), with_wax=True
    )
    compiled = _CompiledNetwork(network)
    arms, evals = _rhs_arms(
        network,
        (network.state_derivative, compiled.rhs),
        n_steps=40 if quick else 200,
        seed=7,
    )

    def run() -> dict[str, float]:
        reference_s, vectorized_s = _interleaved_best(arms, _RHS_CHUNKS)
        obs = get_registry()
        obs.count("solver.bench.reference_evals", evals)
        obs.count("solver.bench.vectorized_evals", evals)
        speedup = reference_s / vectorized_s if vectorized_s > 0 else float("inf")
        return {"speedup": speedup}

    return run


def _fig7_batched(quick: bool) -> Callable[[], object]:
    import numpy as np

    from repro.experiments.fig7_blockage import blockage_sweep

    step = 0.15 if quick else 0.05
    fractions = np.arange(0.0, 0.90 + 1e-9, step)
    return lambda: blockage_sweep("1u", fractions)


def _solver_backend_sparse(quick: bool) -> Callable[[], object]:
    from repro.thermal.backends import SparseBackend
    from repro.thermal.solver import _CompiledNetwork
    from repro.thermal.synthetic import RACK_SCALE_SERVERS, rack_scale_network

    servers = 170 if quick else RACK_SCALE_SERVERS
    network = rack_scale_network(servers=servers)
    dense = _CompiledNetwork(network)
    sparse = _CompiledNetwork(network)
    sparse.set_backend(SparseBackend())
    arms, _ = _rhs_arms(
        network, (dense.rhs, sparse.rhs), n_steps=10 if quick else 25, seed=11
    )

    def run() -> dict[str, float]:
        dense_s, sparse_s = _interleaved_best(arms, _RHS_CHUNKS)
        get_registry().count("solver.bench.backend_nodes", dense.n_state)
        return {"speedup": dense_s / sparse_s if sparse_s > 0 else float("inf")}

    return run


def _solver_backend_transient(quick: bool) -> Callable[[], object]:
    from repro.thermal.solver import simulate_transient
    from repro.thermal.synthetic import RACK_SCALE_SERVERS, rack_scale_network

    servers = 170 if quick else RACK_SCALE_SERVERS
    horizon = 900.0 if quick else 1800.0
    network = rack_scale_network(servers=servers)
    # backend="auto" must pick sparse here (the counters prove it: the
    # scenario's solver.backend.sparse counter lands in the baseline).
    return lambda: simulate_transient(
        network, horizon, output_interval_s=450.0, backend="auto"
    )


def _service_latency(quick: bool) -> Callable[[], object]:
    """Round-trip overhead of the service control plane on cache hits.

    Boots a real :class:`~repro.service.server.SimulationService` on a
    loopback socket with a fresh cache, pays for one cold solve, then
    times repeated resubmissions of the same spec — pure control-plane
    work (HTTP parse, quota, cache read, JSON response) — and returns
    their p50.
    """
    import asyncio
    import http.client
    import tempfile

    from repro.service.server import ServiceConfig, SimulationService

    rounds = 10 if quick else 40
    body = json.dumps(
        {
            "tenant": "bench",
            "spec": {
                "kind": "cluster",
                "platform": "1u",
                "server_count": 8,
                "ticks": 20,
            },
        }
    )

    def round_trip(port: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        connection.request(
            "POST",
            "/v1/jobs",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        if response.status != 200:
            raise RuntimeError(f"bench request failed: {payload}")

    def run() -> dict[str, float]:
        async def session() -> list[float]:
            with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
                config = ServiceConfig(
                    port=0, workers=1, cache=tmp, window_s=0.0,
                    quota_rate_per_s=10_000.0, quota_burst=10_000.0,
                )
                async with SimulationService(config) as service:
                    port = service.port
                    loop = asyncio.get_running_loop()
                    # Cold solve: populates the cache; excluded from timing.
                    await loop.run_in_executor(None, round_trip, port)
                    samples: list[float] = []
                    for _ in range(rounds):
                        start = time.perf_counter()
                        await loop.run_in_executor(None, round_trip, port)
                        samples.append(time.perf_counter() - start)
                    return samples

        samples = asyncio.run(session())
        return {"cache_hit_p50_ms": statistics.median(samples) * 1e3}

    return run


#: The tier-2 suite, in execution order.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "chassis_transient_hour",
        "one simulated hour of the detailed chassis network (RK4)",
        _chassis_transient,
    ),
    Scenario(
        "chassis_steady_state",
        "one steady-state solve of the detailed chassis network",
        _chassis_steady_state,
    ),
    Scenario(
        "cluster_ticks_1008",
        "100 vectorized thermal ticks of a 1008-server cluster",
        _cluster_ticks,
    ),
    Scenario(
        "fluid_day_96",
        "two simulated days of a 96-server cluster in fluid mode, "
        "reference then batched engine back to back",
        lambda quick: _fluid_speedup(48 if quick else 96),
        repeats=2,
    ),
    Scenario(
        "fluid_day_1008",
        "two simulated days of a 1008-server cluster in fluid mode, "
        "reference then batched engine back to back",
        lambda quick: _fluid_speedup(252 if quick else 1008),
        repeats=2,
        gate=Gate(
            "speedup",
            "dcsim.bench.fluid_speedup_ge_3x",
            3.0,
            floor_counter="dcsim.bench.fluid_speedup",
        ),
    ),
    Scenario(
        "event_day_96",
        "a simulated day of discrete-event traffic on 96 servers",
        lambda quick: _event_day(32 if quick else 96, 6.0 if quick else 24.0),
        repeats=2,
    ),
    Scenario(
        "event_day_1008",
        "six simulated hours of discrete-event traffic on 1008 servers "
        "(the large-cluster lane of the batched event engine)",
        lambda quick: _event_day(252 if quick else 1008, 2.0 if quick else 6.0),
        repeats=2,
    ),
    Scenario(
        "event_speedup",
        "batched-engine throughput on the event_day_96 workload against "
        "the seed-era loop's 61k events/s",
        _event_speedup,
        repeats=2,
        gate=Gate(
            "speedup",
            "dcsim.bench.event_speedup_ge_5x",
            5.0,
            floor_counter="dcsim.bench.event_speedup",
        ),
    ),
    Scenario(
        "fig7_sweep",
        "the full Fig 7 blockage grid (three 19-point batched steady "
        "solves)",
        _fig7_sweep,
        repeats=2,
    ),
    Scenario(
        "control_overhead",
        "the chaos plant with the bare greedy throttle, then with the "
        "decision-identical ControlLoop wrapper; gated on the loop's "
        "cost per tick",
        _control_overhead,
        repeats=2,
        gate=Gate(
            "overhead_us_per_tick",
            "control.bench.overhead_le_500us",
            500.0,
            upper=True,
        ),
    ),
    Scenario(
        "solver_rhs",
        "800 RK4-pattern derivative evaluations of the chassis network, "
        "dict reference then vectorized kernel",
        _solver_rhs,
        gate=Gate("speedup", "solver.bench.speedup_ge_3x", 3.0),
    ),
    Scenario(
        "fig7_batched",
        "one 19-point grille-blockage grid solved as a single batched "
        "steady-state call (the Fig 7 inner kernel)",
        _fig7_batched,
    ),
    Scenario(
        "solver_backend_sparse",
        "RK4-pattern derivative evaluations of the ~2.2k-node synthetic "
        "rack network, dense NumPy backend then SciPy CSR",
        _solver_backend_sparse,
        gate=Gate(
            "speedup",
            "solver.bench.sparse_speedup_ge_3x",
            3.0,
            floor_counter="solver.bench.sparse_speedup",
        ),
    ),
    Scenario(
        "service_latency",
        "cache-hit round trips against a live in-process simulation "
        "service; gated on their p50",
        _service_latency,
        repeats=2,
        gate=Gate(
            "cache_hit_p50_ms",
            "service.bench.cache_hit_p50_le_50ms",
            50.0,
            upper=True,
        ),
    ),
    Scenario(
        "solver_backend_transient",
        "an end-to-end transient of the synthetic rack network under "
        "backend='auto' (the solver.backend.sparse counter proves the "
        "auto threshold fired)",
        _solver_backend_transient,
    ),
)


def scenario_names() -> list[str]:
    """Names of every scenario in suite order."""
    return [scenario.name for scenario in SCENARIOS]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def run_scenarios(
    names: Sequence[str] | None = None,
    repeats: int | None = None,
    quick: bool = False,
    echo: Callable[[str], None] | None = None,
    profiler: "cProfile.Profile | None" = None,
) -> dict[str, object]:
    """Run the suite and return the artifact dict (``BENCH_SCHEMA``).

    Collection is forced on for the duration so every scenario reports
    its deterministic work counters; the registry's prior enabled state
    and contents are restored afterwards. In full mode every repeat of a
    gated scenario ends with its :class:`Gate`. ``repeats``, when given,
    overrides every scenario's repeat count and must be at least 1.

    ``profiler`` (a ``cProfile.Profile``) is enabled around every
    measured repeat, accumulating one profile across the selection.
    Tracing inflates wall times, so profiled reports are for hotspot
    hunting — don't gate them against an unprofiled baseline.
    """
    if repeats is not None and repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    selected = SCENARIOS
    if names is not None:
        known = {scenario.name: scenario for scenario in SCENARIOS}
        missing = [name for name in names if name not in known]
        if missing:
            raise KeyError(
                f"unknown scenarios {missing}; choose from {scenario_names()}"
            )
        selected = tuple(known[name] for name in names)

    say = echo or (lambda _line: None)
    registry = get_registry()
    was_enabled = registry.enabled
    results: dict[str, dict[str, object]] = {}
    try:
        registry.enable()
        for scenario in selected:
            runner = scenario.build(quick)
            gate = None if quick else scenario.gate
            n_repeats = scenario.repeats if repeats is None else repeats

            def run_once() -> float:
                registry.reset()
                if profiler is not None:
                    profiler.enable()
                try:
                    start = time.perf_counter()
                    metrics = runner()
                    elapsed = time.perf_counter() - start
                finally:
                    if profiler is not None:
                        profiler.disable()
                if gate is not None:
                    gate.apply(metrics)
                return elapsed

            times = [run_once() for _ in range(n_repeats)]
            results[scenario.name] = {
                "repeats": n_repeats,
                "times_s": times,
                "min_s": min(times),
                "median_s": statistics.median(times),
                "counters": dict(sorted(registry.snapshot().counters.items())),
            }
            say(
                f"  {scenario.name}: min {min(times) * 1e3:.1f} ms over "
                f"{n_repeats} runs"
            )
    finally:
        registry.reset()
        if not was_enabled:
            registry.disable()

    return {
        "schema": BENCH_SCHEMA,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "results": results,
    }


@dataclass(frozen=True)
class ScenarioDelta:
    """One scenario's row of a comparison.

    ``status`` is ``"ok"``, ``"improved"``, ``"REGRESSION"``,
    ``"MISSING"`` (in the baseline, not measured) or ``"new"`` (not in
    the baseline); only the first three carry a ratio and drift.
    """

    name: str
    status: str
    baseline_s: float | None = None
    current_s: float | None = None
    ratio: float | None = None
    drift: tuple[tuple[str, object, object], ...] = ()


@dataclass
class Comparison:
    """Outcome of gating a current report against a baseline."""

    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    counter_drift: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rows: list[ScenarioDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: list[str] = []
        for label, entries in (
            ("REGRESSION", self.regressions),
            ("improved", self.improvements),
            ("counter drift", self.counter_drift),
            ("note", self.notes),
        ):
            lines.extend(f"[{label}] {entry}" for entry in entries)
        if not lines:
            lines.append("all benchmarks within tolerance of baseline")
        return "\n".join(lines)

    def markdown(self, current_sha: str, baseline_sha: str) -> str:
        """The rows as a baseline-drift table in GitHub-flavored markdown.

        Written into ``$GITHUB_STEP_SUMMARY`` by the CI bench step so
        regressions are readable in the job page without downloading the
        ``BENCH_<sha>.json`` artifact.
        """

        def ms(seconds: float | None) -> str:
            return "—" if seconds is None else f"{seconds * 1e3:.1f}"

        lines = [
            "## repro-bench vs baseline",
            "",
            f"Gate tolerance: +{DEFAULT_TOLERANCE:.0%} on best-of-repeats "
            f"wall time (commit `{current_sha}` vs baseline "
            f"`{baseline_sha}`).",
            "",
            "| scenario | baseline (ms) | current (ms) | ratio | status |",
            "| --- | ---: | ---: | ---: | --- |",
        ]
        for row in self.rows:
            ratio = "—" if row.ratio is None else f"{row.ratio:.2f}x"
            status = f"**{row.status}**" if row.status.isupper() else row.status
            lines.append(
                f"| {row.name} | {ms(row.baseline_s)} | {ms(row.current_s)} "
                f"| {ratio} | {status} |"
            )
        if not self.rows:  # a schema or quick-mode mismatch compares nothing
            lines.append("")
            lines.extend(f"**REGRESSION**: {entry}" for entry in self.regressions)
        drift = [
            f"- `{row.name}`: `{counter}` {before} → {after}"
            for row in self.rows
            for counter, before, after in row.drift
        ]
        lines.append("")
        if drift:
            lines.extend(["### Counter drift", "", *drift])
        else:
            lines.append("No counter drift.")
        return "\n".join(lines) + "\n"


def compare_reports(
    current: dict[str, object],
    baseline: dict[str, object],
    strict_counters: bool = False,
) -> Comparison:
    """Gate a current artifact against a baseline artifact.

    A scenario regresses when its best-of-repeats time exceeds the
    baseline's by more than :data:`DEFAULT_TOLERANCE` (relative), or
    when it is missing from the current report. Counter differences are
    reported as drift, and fail the gate only under ``strict_counters``.
    Each scenario is compared once, into both the verdict lists and the
    row :meth:`Comparison.markdown` renders.
    """
    comparison = Comparison()
    for report, role in ((current, "current"), (baseline, "baseline")):
        if report.get("schema") != BENCH_SCHEMA:
            comparison.regressions.append(
                f"{role} report has schema {report.get('schema')!r}; "
                f"expected {BENCH_SCHEMA!r}"
            )
    if comparison.regressions:
        return comparison
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        comparison.regressions.append(
            "quick-mode mismatch between current and baseline reports"
        )
        return comparison

    current_results = current.get("results", {})
    baseline_results = baseline.get("results", {})
    for name in sorted(set(current_results) | set(baseline_results)):
        cur = current_results.get(name)
        base = baseline_results.get(name)
        if cur is None:
            comparison.regressions.append(
                f"{name}: present in baseline but not measured"
            )
            comparison.rows.append(
                ScenarioDelta(name, "MISSING", baseline_s=float(base["min_s"]))
            )
            continue
        if base is None:
            comparison.notes.append(f"{name}: new scenario, not in baseline")
            comparison.rows.append(
                ScenarioDelta(name, "new", current_s=float(cur["min_s"]))
            )
            continue
        base_s = float(base["min_s"])
        cur_s = float(cur["min_s"])
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        detail = (
            f"{name}: {cur_s * 1e3:.1f} ms vs baseline "
            f"{base_s * 1e3:.1f} ms ({ratio:.2f}x)"
        )
        status = "ok"
        if ratio > 1.0 + DEFAULT_TOLERANCE:
            status = "REGRESSION"
            comparison.regressions.append(detail)
        elif ratio < 1.0 / (1.0 + DEFAULT_TOLERANCE):
            status = "improved"
            comparison.improvements.append(detail)

        before = base.get("counters", {})
        after = cur.get("counters", {})
        drift = tuple(
            (counter, before.get(counter), after.get(counter))
            for counter in sorted(set(before) | set(after))
            if before.get(counter) != after.get(counter)
        )
        comparison.counter_drift.extend(
            f"{name}: {counter} {old} -> {new}" for counter, old, new in drift
        )
        comparison.rows.append(
            ScenarioDelta(name, status, base_s, cur_s, ratio, drift)
        )

    if strict_counters and comparison.counter_drift:
        comparison.regressions.extend(comparison.counter_drift)
    return comparison


def render_profile_markdown(
    profiler: cProfile.Profile, top: int = 25
) -> str:
    """The profiler's cumulative-time top-N as a markdown section.

    Appended to the ``--markdown-summary`` file (and echoed to stdout)
    by ``--profile`` runs, so the next hot loop is found by tooling
    instead of archaeology.
    """
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return (
        f"### cProfile — top {top} by cumulative time\n\n"
        "```\n" + buffer.getvalue().rstrip() + "\n```\n"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the suite, write the artifact, optionally gate."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the tier-2 benchmark suite and gate on a baseline "
        f"(tolerated slowdown +{DEFAULT_TOLERANCE:.0%}).",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline artifact to gate against (e.g. {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for the BENCH_<sha>.json artifact (default: cwd)",
    )
    parser.add_argument(
        "--update-baseline",
        default=None,
        metavar="PATH",
        help="also write the measured report as a new baseline",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario subset (default: all)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override per-scenario repeat count (at least 1)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller horizons for a fast smoke run (baseline must match)",
    )
    parser.add_argument(
        "--strict-counters",
        action="store_true",
        help="fail on any work-counter drift, not just slowdowns",
    )
    parser.add_argument(
        "--markdown-summary",
        default=None,
        metavar="PATH",
        help="append a markdown drift table to PATH (e.g. "
        "$GITHUB_STEP_SUMMARY); requires --baseline",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="wrap the measured repeats in cProfile and dump the raw "
        "pstats data to PATH; the cumulative-time top-N is printed and, "
        "with --markdown-summary, appended to the summary. Tracing "
        "inflates wall times, so pair with a scenario subset rather "
        "than the gate",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="rows of the pstats table shown by --profile (default "
        "%(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name}: {scenario.description}")
        return 0
    if args.repeats is not None and args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    names = args.scenarios.split(",") if args.scenarios else None
    if names is not None:
        unknown = sorted(set(names) - set(scenario_names()))
        if unknown:
            print(
                f"unknown scenarios {unknown}; choose from {scenario_names()}",
                file=sys.stderr,
            )
            return 2
    if args.markdown_summary and args.baseline is None:
        print("--markdown-summary requires --baseline", file=sys.stderr)
        return 2

    # Load the gate baseline BEFORE any writes: with
    # --update-baseline PATH --baseline PATH the old behaviour wrote the
    # fresh report first and then gated the run against itself, which
    # can never fail. Reading up front also fails fast on a missing
    # baseline instead of after minutes of measurement.
    baseline: dict[str, object] | None = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} does not exist", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())

    if args.profile is not None and args.profile_top < 1:
        print("--profile-top must be >= 1", file=sys.stderr)
        return 2
    profiler = cProfile.Profile() if args.profile is not None else None

    print(f"running {len(names or SCENARIOS)} benchmark scenarios "
          f"({'quick' if args.quick else 'full'} mode)...")
    report = run_scenarios(
        names=names,
        repeats=args.repeats,
        quick=args.quick,
        echo=print,
        profiler=profiler,
    )

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    artifact = output_dir / f"BENCH_{report['git_sha']}.json"
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {artifact}")

    profile_section: str | None = None
    if profiler is not None:
        profile_path = Path(args.profile)
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(profile_path)
        print(f"wrote profile {profile_path}")
        profile_section = render_profile_markdown(
            profiler, top=args.profile_top
        )
        print(profile_section)

    if args.update_baseline:
        update_path = Path(args.update_baseline)
        update_path.parent.mkdir(parents=True, exist_ok=True)
        update_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline {update_path}")

    if baseline is None:
        return 0
    comparison = compare_reports(
        report, baseline, strict_counters=args.strict_counters
    )
    print(comparison.render())
    if args.markdown_summary:
        summary_path = Path(args.markdown_summary)
        summary_path.parent.mkdir(parents=True, exist_ok=True)
        with summary_path.open("a") as handle:
            handle.write(
                comparison.markdown(
                    report["git_sha"], baseline.get("git_sha", "?")
                )
            )
            if profile_section is not None:
                handle.write("\n" + profile_section)
        print(f"appended summary to {summary_path}")
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
