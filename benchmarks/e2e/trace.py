"""In-memory span tracing around a program's entry points, from outside.

A :class:`Tracer` wraps callables without editing the program:

* a method (``"Class.method"``) is wrapped on its class, so every
  instance and every call site sees the wrapper;
* a module function is rebound on every loaded module whose namespace
  holds the same function object, which covers call sites written as
  ``from x import f`` (they hold their own reference).

Each span records its name, start, end and parent span; one tracer is
one run and carries one run id. Spans are kept in flat arrays and only
written out by :meth:`Tracer.write`. The tracer assumes the traced
program calls the wrapped functions from one thread.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, Union

#: A fixed span name, or a function of the wrapped call's arguments.
SpanName = Union[str, Callable[..., str]]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``qualname`` is ``"func"`` or ``"Class.method"``."""

    module: str
    qualname: str
    span: SpanName


class Tracer:
    """Records spans of one run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.end[index] = time.perf_counter()
        self._open.pop()

    def wrap(self, func: Callable, span: SpanName) -> Callable:
        """``func`` with every call recorded as a span."""
        tracer = self

        if callable(span):
            namer = span

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer.open(namer(*args, **kwargs))
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.close(index)

        else:
            name = span

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.close(index)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                self._wrap_method(getattr(module, owner_name), attr, target.span)
            else:
                self._wrap_function(getattr(module, attr), target.span)

    def _wrap_method(self, owner: type, attr: str, span: SpanName) -> None:
        own = attr in owner.__dict__
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, span))
        if own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def _wrap_function(self, original: Callable, span: SpanName) -> None:
        wrapper = self.wrap(original, span)
        rebound: list[tuple[dict, str]] = []
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    rebound.append((namespace, key))
        if not rebound:
            raise LookupError(f"no loaded module holds {original.__qualname__}")

        def restore() -> None:
            for namespace, key in rebound:
                namespace[key] = original

        self._restore.append(restore)

    def uninstall(self) -> None:
        """Undo :meth:`install`, newest wrapper first."""
        while self._restore:
            self._restore.pop()()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls``, their ``wall_s``, and ``self_s``."""
        return summarize(
            [self.names[i] for i in self.name], self.parent, self.start, self.end
        )

    def write(self, path: str | Path, **meta: object) -> None:
        """Write every span as columns: name index, start, end, parent."""
        payload = {
            "schema": "e2e.spans/1",
            "run_id": self.run_id,
            **meta,
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are merged, so no instant is subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    result = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        reach, stop = start[up], end[up]
        covered = 0.0
        for kid in sorted(kids, key=start.__getitem__):
            low, high = max(start[kid], reach), min(end[kid], stop)
            if high > low:
                covered += high - low
                reach = high
        result[up] -= covered
    return result


def summarize(
    names: Sequence[str],
    parent: Sequence[int],
    start: Sequence[float],
    end: Sequence[float],
) -> dict[str, dict[str, float]]:
    """Aggregate spans by name.

    ``calls`` and ``wall_s`` count only outermost spans of a name (a
    re-entrant call, such as a policy delegating to the one it wraps,
    is one call); ``self_s`` sums the self time of every span.
    """
    own = self_times(start, end, parent)
    out: dict[str, dict[str, float]] = {}
    for index, name in enumerate(names):
        entry = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        entry["self_s"] += own[index]
        up = parent[index]
        if up < 0 or names[up] != name:
            entry["calls"] += 1
            entry["wall_s"] += end[index] - start[index]
    return out
