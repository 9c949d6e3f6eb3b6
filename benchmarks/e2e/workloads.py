"""The benchmark's workloads and end-to-end metrics.

The workload names are fixed: issues and reviews cite them. Sizes and
reasons are documented in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One set of inputs; each repeat runs its calls in a fresh process."""

    name: str
    why: str
    repeats: int
    #: Experiment ids run through ``run_experiment`` (paper workloads).
    experiments: tuple[str, ...] = ()
    quick: bool = True
    #: Simulated server-hours per call (simulator workloads).
    server_hours: float = 0.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_fleet",
            "cluster studies: melting-point search, fluid tick loop, "
            "batched cluster thermal state and throttle policies",
            repeats=3,
            experiments=("fig11", "fig11_faults", "fig12", "ablations"),
        ),
        Workload(
            "paper_extensions",
            "geo, mixed fleet, sprint batch transient and MPC rollouts: "
            "the bespoke tick loops outside the fluid engine",
            repeats=3,
            experiments=("extensions", "control_tournament"),
        ),
        Workload(
            "paper_chassis",
            "server thermal layers (RK4 transient, steady state, "
            "validation, characterization); the datacenter sim is idle",
            repeats=5,
            experiments=("table1", "table2", "fig1", "fig4", "fig7", "fig9", "fig10"),
            quick=False,
        ),
        Workload(
            "event_day_1008",
            "event-mode simulator, 1008 servers, 6 h: arrival generation "
            "and per-server non-uniform cluster steps",
            repeats=5,
            server_hours=1008 * 6.0,
        ),
    )
}

PAPER_WORKLOADS = tuple(n for n, w in WORKLOADS.items() if w.experiments)


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric with the bound by which it may worsen.

    ``bound`` is a share of the parent's median, or, when ``absolute``,
    a difference in the metric's own unit.
    """

    name: str
    unit: str
    better: str
    bound: float
    absolute: bool = False
    #: Workloads the metric is defined on; empty means all.
    workloads: tuple[str, ...] = ()

    def applies_to(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads

    def worse_by(self, base: float, value: float) -> float:
        """How much worse ``value`` is than ``base``, in the bound's terms."""
        delta = value - base if self.better == "lower" else base - value
        if self.absolute:
            return delta
        return delta / abs(base) if base else (0.0 if delta <= 0 else float("inf"))


#: The time bounds are wide: on the shared two-core host the baseline was
#: measured on, one fresh-process run of identical input varies by about
#: 7% (interquartile range over median) from host load alone. README.md
#: records the measured spreads. ``setup_s`` has the largest bound
#: because its half-second samples are the noisiest.
METRICS: tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric(
        "sim_server_hours_per_s",
        "server-h/s",
        "higher",
        0.24,
        workloads=("event_day_1008",),
    ),
    Metric(
        "paper_err_pct", "%", "lower", 0.01, absolute=True, workloads=PAPER_WORKLOADS
    ),
)

METRICS_BY_NAME = {m.name: m for m in METRICS}
