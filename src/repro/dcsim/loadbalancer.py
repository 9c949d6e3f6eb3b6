"""Load balancing policies for job dispatch.

The paper uses round-robin ("We use a round robin load balancing scheme");
a least-loaded policy is provided as an ablation — with a homogeneous
cluster and Poisson traffic the two produce nearly identical thermal
behaviour, which the ablation benchmark demonstrates.
"""

from __future__ import annotations

import abc
import operator

import numpy as np

from repro.errors import SimulationError


class LoadBalancer(abc.ABC):
    """Chooses which server receives an arriving job."""

    #: Servers ``[0, _offline)`` are unavailable (fault injection marks
    #: the lowest-indexed servers as failed; they drain but take no new
    #: work). Class-level default so subclasses need no super().__init__.
    _offline: int = 0

    @abc.abstractmethod
    def choose(self, busy_slots: np.ndarray, slots_per_server: int) -> int | None:
        """Index of the server to dispatch to, or None if every slot in the
        cluster is busy (the job must queue)."""

    def set_offline(self, offline_count: int) -> None:
        """Mark the first ``offline_count`` servers as unavailable.

        The fault injector calls this every tick while a server-outage
        fault is active (and with 0 on recovery); in-flight jobs on an
        offline server complete normally, it just receives no new work.
        """
        if offline_count < 0:
            raise SimulationError(
                f"offline count must be non-negative, got {offline_count}"
            )
        self._offline = int(offline_count)

    @property
    def offline_count(self) -> int:
        """Servers currently marked unavailable."""
        return self._offline

    def reset(self) -> None:
        """Clear any dispatch state between simulation runs."""
        self._offline = 0


class RoundRobin(LoadBalancer):
    """The paper's policy: rotate through servers, skipping full ones."""

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        super().reset()
        self._next = 0

    def choose(self, busy_slots: np.ndarray, slots_per_server: int) -> int | None:
        n = len(busy_slots)
        if n == 0:
            raise SimulationError("cannot balance over zero servers")
        for offset in range(n):
            index = (self._next + offset) % n
            if index < self._offline:
                continue
            if busy_slots[index] < slots_per_server:
                self._next = (index + 1) % n
                return index
        return None


class LeastLoaded(LoadBalancer):
    """Dispatch to the server with the most free slots (ties to the lowest
    index, deterministically)."""

    def choose(self, busy_slots: np.ndarray, slots_per_server: int) -> int | None:
        if len(busy_slots) == 0:
            raise SimulationError("cannot balance over zero servers")
        if self._offline >= len(busy_slots):
            return None
        # ``min`` and the first index equal to it: the first minimum, as
        # ``np.argmin`` picks, on a Python list (the batched event loop's
        # occupancy) without converting it to an array on every dispatch.
        candidates = busy_slots[self._offline:]
        least = min(candidates)
        if least >= slots_per_server:
            return None
        return self._offline + operator.indexOf(candidates, least)
