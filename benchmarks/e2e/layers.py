"""Which layers the traced run wraps, and the per-layer metrics it reports.

Every span layer reports ``<layer>.calls`` and ``<layer>.self_s``; each
experiment reports ``experiments.<id>.wall_s`` and
``experiments.<id>.unattributed_s`` (its span's self time: the part of
the run no wrapped layer accounts for). Counters come from
:mod:`repro.obs`, which the traced run enables only to read them.
"""

from __future__ import annotations

from benchmarks.e2e.trace import Target
from benchmarks.e2e.workloads import WORKLOADS

FLEET, EXT, CHASSIS, EVENT = (
    "paper_fleet",
    "paper_extensions",
    "paper_chassis",
    "event_day_1008",
)


def _experiment_span(experiment_id, *args, **kwargs) -> str:
    return f"experiments.{experiment_id}"


def _simulator_span(simulator, *args, **kwargs) -> str:
    return f"dcsim.{simulator.config.mode}_run"


TARGETS: tuple[Target, ...] = (
    Target("repro.experiments.registry", "run_experiment", _experiment_span),
    Target("repro.thermal.solver", "simulate_transient", "thermal.transient"),
    Target(
        "repro.thermal.solver", "simulate_transient_batch", "thermal.transient_batch"
    ),
    Target("repro.thermal.steady_state", "solve_steady_state", "thermal.steady"),
    Target("repro.thermal.steady_state", "solve_steady_state_batch", "thermal.steady"),
    Target(
        "repro.server.characterization", "characterize_platform", "server.characterize"
    ),
    Target("repro.validation.harness", "run_validation", "validation.run"),
    Target("repro.dcsim.simulator", "DatacenterSimulator.run", _simulator_span),
    Target(
        "repro.dcsim.thermal_coupling",
        "BatchedClusterThermalState.step",
        "dcsim.cluster_step",
    ),
    *(
        Target("repro.dcsim.throttling", f"{policy}.decide", "dcsim.throttle_decide")
        for policy in (
            "RoomTemperaturePolicy",
            "FaultResponsePolicy",
            "ThermalLimitPolicy",
        )
    ),
    Target("repro.dcsim.throttling", "projected_release_w", "dcsim.projected_release"),
    Target("repro.dcsim.geo", "GeoPair.run", "dcsim.geo"),
    Target("repro.dcsim.mixed", "MixedFleet.run", "dcsim.mixed"),
    Target("repro.sprinting.model", "run_sprint_batch", "sprinting.batch"),
    Target("repro.control.loop", "ControlLoop.decide", "control.loop_decide"),
    Target("repro.control.planners", "MPCPolicy.plan", "control.mpc_plan"),
    Target("repro.core.melting_point", "batched_fluid_peaks", "core.melting_peaks"),
    Target("repro.workload.jobs", "cached_arrival_stream", "workload.arrivals"),
    Target("repro.workload.google", "synthesize_google_trace", "workload.google_trace"),
)

SPAN_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(t.span for t in TARGETS if isinstance(t.span, str))
) + ("dcsim.fluid_run", "dcsim.event_run")

#: Per-layer metric -> the :mod:`repro.obs` counter it reads.
COUNTERS: dict[str, str] = {
    "thermal.rk4_steps": "solver.rk4_steps",
    "thermal.rhs_evals": "solver.rhs_evals",
    "dcsim.server_ticks": "dcsim.server_ticks",
    "dcsim.fluid.stretch_ticks": "dcsim.fluid.stretch_ticks",
    "dcsim.fluid.scalar_ticks": "dcsim.fluid.scalar_ticks",
    "dcsim.events": "dcsim.events",
    "faults.ticks_active": "faults.ticks_active",
}

#: Layer (span name or counter metric) -> the workloads it must fire on.
#: These are the workloads whose end-to-end metrics the layer should
#: move (README.md); a traced run on one of them where the layer never
#: fired means a wrapper missed its call sites, and the run fails.
#: fig9's melting-point search puts the cluster step on paper_chassis.
HOME: dict[str, tuple[str, ...]] = {
    "thermal.transient": (CHASSIS,),
    "thermal.transient_batch": (EXT,),
    "thermal.steady": (CHASSIS,),
    "thermal.rk4_steps": (CHASSIS,),
    "thermal.rhs_evals": (CHASSIS,),
    "server.characterize": (CHASSIS,),
    "validation.run": (CHASSIS,),
    "dcsim.fluid_run": (FLEET, EXT),
    "dcsim.cluster_step": (FLEET, EXT, CHASSIS, EVENT),
    "dcsim.server_ticks": (FLEET, EXT),
    "dcsim.fluid.scalar_ticks": (FLEET, EXT),
    "dcsim.event_run": (EVENT,),
    "dcsim.events": (EVENT,),
    "dcsim.throttle_decide": (FLEET, EXT),
    "dcsim.projected_release": (FLEET, EXT),
    "dcsim.geo": (EXT,),
    "dcsim.mixed": (EXT,),
    "sprinting.batch": (EXT,),
    "control.loop_decide": (EXT,),
    "control.mpc_plan": (EXT,),
    "core.melting_peaks": (FLEET, CHASSIS),
    "workload.arrivals": (EVENT,),
    "workload.google_trace": (FLEET, EXT),
    "faults.ticks_active": (FLEET,),
    **{
        f"experiments.{eid}": (name,)
        for name, workload in WORKLOADS.items()
        for eid in workload.experiments
    },
}


def layer_metrics(
    summary: dict[str, dict[str, float]], counters: dict[str, int]
) -> dict[str, float]:
    """Every per-layer metric of one traced run (absent layers read 0)."""
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        entry = summary.get(layer, {})
        metrics[f"{layer}.calls"] = entry.get("calls", 0)
        metrics[f"{layer}.self_s"] = entry.get("self_s", 0.0)
    for name, workload in WORKLOADS.items():
        for eid in workload.experiments:
            entry = summary.get(f"experiments.{eid}", {})
            metrics[f"experiments.{eid}.wall_s"] = entry.get("wall_s", 0.0)
            metrics[f"experiments.{eid}.unattributed_s"] = entry.get("self_s", 0.0)
    for metric, counter in COUNTERS.items():
        metrics[metric] = counters.get(counter, 0)
    stretch = metrics["dcsim.fluid.stretch_ticks"]
    fluid_ticks = stretch + metrics["dcsim.fluid.scalar_ticks"]
    metrics["dcsim.stretch_share"] = stretch / fluid_ticks if fluid_ticks else 0.0
    return metrics


def missing_layers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers whose home is ``workload`` that never fired in its traced run."""
    missing = []
    for layer, homes in HOME.items():
        if workload not in homes:
            continue
        if layer in COUNTERS:
            fired = metrics[layer]
        elif layer.startswith("experiments."):
            fired = metrics[f"{layer}.wall_s"]
        else:
            fired = metrics[f"{layer}.calls"]
        if not fired:
            missing.append(layer)
    return missing
