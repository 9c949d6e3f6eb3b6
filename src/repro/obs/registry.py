"""The observability registry: timers, counters, and gauge values.

One :class:`ObsRegistry` collects everything a run wants to report:

* **timers** — hierarchical wall-clock spans. ``with obs.timer("solve")``
  nests: a timer opened while another is running on the same thread
  records under the joined path (``"outer/solve"``), so reports show the
  call structure without a profiler.
* **counters** — monotonic tallies (RK4 steps, events processed),
  thread-safe so worker threads of one run aggregate into one total.
* **values** — last-write-wins gauges (chosen step size, ticks/sec,
  queue high-water marks via :meth:`ObsRegistry.record_max`).

The module-level registry is **disabled by default** and costs almost
nothing while disabled: ``timer()`` hands back a shared no-op context
manager and ``count``/``record`` return immediately, so instrumented hot
paths stay within measurement noise of uninstrumented ones. Enable it
with ``REPRO_OBS=1`` in the environment or :func:`enable` from code.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.obs.report import RunReport, TimerStat

_F = TypeVar("_F", bound=Callable)

#: Environment variable that enables the global registry at import time.
ENV_TOGGLE = "REPRO_OBS"

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get(ENV_TOGGLE, "").strip().lower() in _TRUTHY


class _NullTimer:
    """Shared no-op context manager returned while collection is off."""

    __slots__ = ()

    def __enter__(self) -> _NullTimer:
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _TimerSpan:
    """An open timer span; closes into its registry on exit."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: ObsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> _TimerSpan:
        self._registry._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._start
        self._registry._pop(elapsed)
        return False


class _MutableTimer:
    """Accumulating form of a timer stat (internal; snapshots freeze it)."""

    __slots__ = ("calls", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        if elapsed < self.min_s:
            self.min_s = elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    def freeze(self) -> TimerStat:
        return TimerStat(
            calls=self.calls,
            total_s=self.total_s,
            min_s=self.min_s if self.calls else 0.0,
            max_s=self.max_s,
        )


class ObsRegistry:
    """Collects timers, counters, and values for one process or run.

    Thread-safety: every mutation of shared state — counter increments,
    gauge writes, timer-stat accumulation on span exit, ``reset`` — and
    every ``snapshot`` happens under one internal lock, so concurrent
    worker threads never lose increments or observe torn aggregates.
    Timer *nesting* state is thread-local (each thread composes its own
    ``outer/inner`` paths), which also means a span must enter and exit
    on the same thread. The disabled fast path takes no lock at all.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._timers: dict[str, _MutableTimer] = {}
        self._counters: dict[str, int] = {}
        self._values: dict[str, float] = {}
        self._stacks = threading.local()

    # -- toggling ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether collection is currently on."""
        return self._enabled

    def enable(self) -> None:
        """Turn collection on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn collection off (already-collected data is kept)."""
        self._enabled = False

    def reset(self) -> None:
        """Drop everything collected so far."""
        with self._lock:
            self._timers.clear()
            self._counters.clear()
            self._values.clear()

    # -- timers ------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._stacks, "frames", None)
        if stack is None:
            stack = []
            self._stacks.frames = stack
        return stack

    def _push(self, name: str) -> None:
        self._stack().append(name)

    def _pop(self, elapsed: float) -> None:
        stack = self._stack()
        path = "/".join(stack)
        stack.pop()
        with self._lock:
            timer = self._timers.get(path)
            if timer is None:
                timer = self._timers[path] = _MutableTimer()
            timer.add(elapsed)

    def timer(self, name: str) -> _TimerSpan | _NullTimer:
        """Context manager timing a span under ``name``.

        Nested spans on the same thread record under ``outer/name``.
        Returns a shared no-op when collection is disabled.
        """
        if not self._enabled:
            return _NULL_TIMER
        return _TimerSpan(self, name)

    def timed(self, name: str | None = None) -> Callable[[_F], _F]:
        """Decorator form of :meth:`timer`.

        The span name defaults to the decorated function's qualified
        name. Enablement is checked per call, so decorating a function
        does not freeze the toggle at definition time.
        """

        def decorate(func: _F) -> _F:
            span_name = name or func.__qualname__

            @functools.wraps(func)
            def wrapper(*args: object, **kwargs: object) -> object:
                if not self._enabled:
                    return func(*args, **kwargs)
                with self.timer(span_name):
                    return func(*args, **kwargs)

            return wrapper  # type: ignore[return-value]

        return decorate

    # -- counters and values -----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (thread-safe)."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def record(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self._enabled:
            return
        with self._lock:
            self._values[name] = float(value)

    def record_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water mark."""
        if not self._enabled:
            return
        with self._lock:
            current = self._values.get(name)
            if current is None or value > current:
                self._values[name] = float(value)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, meta: dict[str, str] | None = None) -> RunReport:
        """Freeze the current state into an immutable report."""
        with self._lock:
            return RunReport(
                timers={
                    path: timer.freeze() for path, timer in self._timers.items()
                },
                counters=dict(self._counters),
                values=dict(self._values),
                meta=dict(meta or {}),
            )

    @contextmanager
    def collect(self) -> Iterator[_Collection]:
        """Scope that captures the activity of its body as a delta report.

        Usage::

            with registry.collect() as collection:
                run_work()
            report = collection.report  # only this scope's activity

        Collection must be enabled for the scope to observe anything; a
        disabled registry yields an empty report.
        """
        before = self.snapshot()
        collection = _Collection()
        start = time.perf_counter()
        try:
            yield collection
        finally:
            elapsed = time.perf_counter() - start
            report = self.snapshot().diff(before)
            report.values.setdefault("collect.wall_time_s", elapsed)
            collection.report = report


class _Collection:
    """Holder for the report a :meth:`ObsRegistry.collect` scope produces."""

    report: RunReport

    def __init__(self) -> None:
        self.report = RunReport()


#: The process-global registry every instrumented module reports into.
_GLOBAL = ObsRegistry(enabled=_env_enabled())


def get_registry() -> ObsRegistry:
    """The process-global registry."""
    return _GLOBAL


def is_enabled() -> bool:
    """Whether the global registry is collecting."""
    return _GLOBAL.enabled


def enable() -> None:
    """Enable the global registry."""
    _GLOBAL.enable()


def disable() -> None:
    """Disable the global registry."""
    _GLOBAL.disable()


def reset() -> None:
    """Clear the global registry."""
    _GLOBAL.reset()


def timer(name: str) -> _TimerSpan | _NullTimer:
    """Time a span on the global registry."""
    return _GLOBAL.timer(name)


def timed(name: str | None = None) -> Callable[[_F], _F]:
    """Decorator timing calls on the global registry."""
    return _GLOBAL.timed(name)


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the global registry."""
    _GLOBAL.count(name, n)


def record(name: str, value: float) -> None:
    """Set a gauge on the global registry."""
    _GLOBAL.record(name, value)


def record_max(name: str, value: float) -> None:
    """Raise a high-water gauge on the global registry."""
    _GLOBAL.record_max(name, value)


def snapshot(meta: dict[str, str] | None = None) -> RunReport:
    """Snapshot the global registry."""
    return _GLOBAL.snapshot(meta)
