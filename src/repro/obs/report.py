"""Structured run reports: the export format of the observability layer.

A :class:`RunReport` is an immutable snapshot of everything a
:class:`~repro.obs.registry.ObsRegistry` collected — hierarchical timer
statistics, monotonic counters, and last-written gauge values — plus
free-form metadata (git sha, python version, scenario name).

The serialized form is versioned (``schema`` field) so downstream
consumers, such as external dashboards, can evolve without guessing.
Reports round-trip exactly through JSON and export to flat CSV for
spreadsheet triage.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.errors import ConfigurationError

#: Version tag written into every serialized report.
SCHEMA = "repro.obs/1"


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
        """Plain-dict form used by the JSON schema."""
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> TimerStat:
        """Inverse of :meth:`to_dict`."""
        return cls(
            calls=int(data["calls"]),
            total_s=float(data["total_s"]),
            min_s=float(data["min_s"]),
            max_s=float(data["max_s"]),
        )


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

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """The versioned plain-dict form (JSON-ready)."""
        return {
            "schema": SCHEMA,
            "timers": {
                path: stat.to_dict() for path, stat in sorted(self.timers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items())),
            "meta": dict(sorted(self.meta.items())),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> RunReport:
        """Parse the plain-dict form, validating the schema tag."""
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ConfigurationError(
                f"unsupported report schema {schema!r}; expected {SCHEMA!r}"
            )
        return cls(
            timers={
                path: TimerStat.from_dict(stat)
                for path, stat in data.get("timers", {}).items()
            },
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            values={k: float(v) for k, v in data.get("values", {}).items()},
            meta={k: str(v) for k, v in data.get("meta", {}).items()},
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> RunReport:
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON form to a file; returns the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target

    def write_csv(self, handle_or_path: IO[str] | str | Path) -> None:
        """Export as flat CSV rows: ``kind,name,field,value``."""
        if isinstance(handle_or_path, (str, Path)):
            with open(handle_or_path, "w", newline="") as handle:
                self.write_csv(handle)
            return
        writer = csv.writer(handle_or_path)
        writer.writerow(["kind", "name", "field", "value"])
        for path, stat in sorted(self.timers.items()):
            for field_name, value in stat.to_dict().items():
                writer.writerow(["timer", path, field_name, value])
        for name, count in sorted(self.counters.items()):
            writer.writerow(["counter", name, "count", count])
        for name, value in sorted(self.values.items()):
            writer.writerow(["value", name, "value", value])

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
