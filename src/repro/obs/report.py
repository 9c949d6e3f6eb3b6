"""Structured run reports: the snapshots of the observability layer.

A :class:`RunReport` is an immutable snapshot of everything a
:class:`~repro.obs.registry.ObsRegistry` collected — hierarchical timer
statistics, monotonic counters, and last-written gauge values — plus
free-form metadata (git sha, python version, scenario name). Experiments
export it as their ``perf`` section (:meth:`RunReport.perf_section`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimerStat:
    """Aggregated statistics of one timer path.

    ``path`` is hierarchical: nested timers join their names with ``/``
    (``"experiment.fig11/solver.transient"``), so a report preserves who
    called whom without storing a full trace.
    """

    calls: int
    total_s: float
    min_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        """Mean duration per call."""
        return self.total_s / self.calls if self.calls else 0.0

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form used by :meth:`RunReport.perf_section`."""
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }


@dataclass(frozen=True)
class RunReport:
    """One collected snapshot of timers, counters, and values."""

    timers: dict[str, TimerStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def wall_time_s(self) -> float:
        """Total time of the root (un-nested) timers."""
        return sum(
            stat.total_s for path, stat in self.timers.items() if "/" not in path
        )

    def is_empty(self) -> bool:
        """True when nothing was collected."""
        return not (self.timers or self.counters or self.values)

    # -- composition -------------------------------------------------------

    def perf_section(self) -> dict[str, object]:
        """The ``perf`` dict attached to an ``ExperimentResult``.

        A flattened, JSON-safe view: wall time plus the raw timer,
        counter, and value maps.
        """
        return {
            "wall_time_s": self.wall_time_s,
            "timers": {
                path: stat.to_dict() for path, stat in sorted(self.timers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items())),
        }

    def diff(self, earlier: RunReport) -> RunReport:
        """Activity since ``earlier`` (a snapshot of the same registry).

        Timer and counter statistics subtract; min/max of a timer window
        cannot be reconstructed from two cumulative snapshots, so the
        window's min/max fall back to the later snapshot's bounds. Values
        are last-write-wins and pass through unchanged.
        """
        timers: dict[str, TimerStat] = {}
        for path, stat in self.timers.items():
            before = earlier.timers.get(path)
            if before is None:
                timers[path] = stat
                continue
            calls = stat.calls - before.calls
            if calls <= 0:
                continue
            timers[path] = TimerStat(
                calls=calls,
                total_s=stat.total_s - before.total_s,
                min_s=stat.min_s,
                max_s=stat.max_s,
            )
        counters: dict[str, int] = {}
        for name, count in self.counters.items():
            delta = count - earlier.counters.get(name, 0)
            if delta:
                counters[name] = delta
        return RunReport(
            timers=timers,
            counters=counters,
            values=dict(self.values),
            meta=dict(self.meta),
        )
