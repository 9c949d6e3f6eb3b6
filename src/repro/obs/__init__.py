"""Lightweight observability: hierarchical timers, counters, run reports.

Instrumented modules (the transient solver, the datacenter simulator, the
experiment registry, the validation harness) report into a process-global
:class:`~repro.obs.registry.ObsRegistry`. Collection is **off by
default** and near-free while off; turn it on with ``REPRO_OBS=1`` or
:func:`~repro.obs.registry.enable`. Snapshots are
:class:`~repro.obs.report.RunReport` objects; experiments export theirs
as a ``perf`` section.

See ``docs/OBSERVABILITY.md`` for the full API.
"""

from repro.obs.registry import (
    ENV_TOGGLE,
    ObsRegistry,
    count,
    disable,
    enable,
    get_registry,
    is_enabled,
    record,
    record_max,
    reset,
    snapshot,
    timed,
    timer,
)
from repro.obs.report import RunReport, TimerStat

__all__ = [
    "ENV_TOGGLE",
    "ObsRegistry",
    "RunReport",
    "TimerStat",
    "count",
    "disable",
    "enable",
    "get_registry",
    "is_enabled",
    "record",
    "record_max",
    "reset",
    "snapshot",
    "timed",
    "timer",
]
