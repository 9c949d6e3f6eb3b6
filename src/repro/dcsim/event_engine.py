"""Event engines for the discrete-event datacenter simulator.

Two interchangeable engines implement the event-mode semantics described in
:mod:`repro.dcsim.simulator` (arrivals, round-robin dispatch into per-server
slots, FIFO queueing under saturation, work-clock completions under DVFS):

* ``reference`` — a lean per-event loop over a ``heapq`` of
  ``(work_time, server, service_work)`` tuples. This is the semantic
  ground truth; it is intentionally simple.
* ``batched`` — the same per-event heap loop, with the tick's arrivals
  and slot occupancy in Python lists for the tick and a *bulk-queue
  stretch*: once the cluster is full, every arrival before the next
  completion queues in one step.

Both engines are **bit-identical** by construction, not by accident. The
key device is the per-tick *event log* (:class:`TickEventLog`): rather than
accruing ``busy_time`` incrementally (whose floating-point result would
depend on the order and grouping of updates), each engine only records the
multiset of slot transitions ``(time, server, ±1, service)`` it performed
inside the tick. At the tick boundary the log is put into a canonical
order and reduced with a fixed sequence of NumPy operations. Two engines
that process the same events — in any internal order or batching — thus
produce byte-identical per-tick utilization, completed work, and therefore
byte-identical :class:`~repro.dcsim.simulator.SimulationResult` traces and
final wax enthalpy.

Time semantics shared by both engines (the *anchored work clock*): each
tick window ``(t0, t1]`` carries an anchor ``(t0, W0)`` — the real and
accumulated-work time at the window start — and a constant throughput
factor ``tf`` decided by the policy at ``t0``. Within the window::

    completion real time   t_c = max(t0 + (W_c - W0) / tf, t0)
    arrival work time      W_a = W0 + (t_a - t0) * tf
    window-end work        W1  = W0 + (t1 - t0) * tf

An event is processed inside the window iff its real time is strictly
before ``t1``; completions win ties against arrivals (``t_c <= t_a``).
Completions are ordered by their ``(W, server, service)`` tuple, exactly
as the reference heap orders them.
"""

from __future__ import annotations

import heapq
import time as _time
from bisect import bisect_left

import numpy as np

from repro.errors import SimulationError
from repro.obs import get_registry
from repro.workload.jobs import cached_arrival_stream, coerce_arrival_stream

__all__ = [
    "TickEventLog",
    "run_event_mode",
    "QUEUE_COMPACT_THRESHOLD",
]

#: Consumed-prefix length beyond which the FIFO queue of saturated jobs is
#: compacted (the consumed prefix is deleted). Compaction is purely a
#: memory-management step; it never changes behaviour.
QUEUE_COMPACT_THRESHOLD = 4096


class TickEventLog:
    """Collects the slot transitions of one tick and reduces them canonically.

    Entries are ``(time, server, delta, service)`` with ``delta = +1`` for
    a slot occupation (dispatch) and ``-1`` for a completion. ``finalize``
    sorts the log by ``(time, server, service, delta)`` lexicographically
    and computes the tick's busy-time integral and completed work with a
    fixed sequence of NumPy reductions, so any two engines that log the
    same multiset of transitions get byte-identical results.
    """

    def __init__(self) -> None:
        self._t: list[float] = []
        self._s: list[int] = []
        self._d: list[int] = []
        self._v: list[float] = []

    def add(self, t: float, s: int, d: int, v: float) -> None:
        self._t.append(t)
        self._s.append(s)
        self._d.append(d)
        self._v.append(v)

    def finalize(
        self,
        tick_time: float,
        span: float,
        busy_start: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Reduce the log: (busy_time per server, completed work this tick).

        ``busy_start`` is the slot occupancy at the tick start; ``span``
        is the tick length. The busy-time integral anchors at the tick
        start and corrects each transition against the tick end::

            busy_time = busy_start * span + sum_e delta_e * (t1 - t_e)
        """
        busy_time = busy_start.astype(np.float64) * span
        if not self._t:
            return busy_time, 0.0
        t = np.array(self._t, dtype=np.float64)
        s = np.array(self._s, dtype=np.int64)
        d = np.array(self._d, dtype=np.int64)
        v = np.array(self._v, dtype=np.float64)
        self._t.clear()
        self._s.clear()
        self._d.clear()
        self._v.clear()
        order = np.lexsort((d, v, s, t))
        t = t[order]
        s = s[order]
        d = d[order]
        v = v[order]
        np.add.at(busy_time, s, d * (tick_time - t))
        completed = float(np.sum(v[d < 0]))
        return busy_time, completed


# ---------------------------------------------------------------------------
# Engine cores
# ---------------------------------------------------------------------------


class _CoreBase:
    """State shared by both engine cores."""

    def __init__(
        self,
        arr_times: np.ndarray,
        arr_services: np.ndarray,
        n_servers: int,
        load_balancer,
    ) -> None:
        self.arr_times = arr_times
        self.arr_services = arr_services
        self.i = 0  # next arrival index
        self.busy = np.zeros(n_servers, dtype=np.int64)
        self.heap: list[tuple[float, int, float]] = []
        self.queue: list[float] = []
        self.queue_head = 0
        self.balancer = load_balancer
        self.log = TickEventLog()
        self.events = 0
        self.queue_high_water = 0

    def queue_depth(self) -> int:
        return len(self.queue) - self.queue_head

    def _note_queue_depth(self) -> None:
        depth = len(self.queue) - self.queue_head
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def _compact_queue(self) -> None:
        # Memory-management only: drop the consumed prefix once it is both
        # large and the majority of the list. Indices shift, behaviour
        # does not.
        if (
            self.queue_head >= QUEUE_COMPACT_THRESHOLD
            and self.queue_head * 2 >= len(self.queue)
        ):
            del self.queue[: self.queue_head]
            self.queue_head = 0


class _ReferenceCore(_CoreBase):
    """Per-event loop over a tuple heap — the semantic ground truth."""

    def __init__(self, arr_times, arr_services, n_servers, load_balancer):
        super().__init__(arr_times, arr_services, n_servers, load_balancer)
        # Python-float mirrors of the whole run for the scalar loop.
        self.arr_times_list = arr_times.tolist()
        self.arr_services_list = arr_services.tolist()
        self.n_arrivals = len(arr_times)

    def process_until(
        self, tick_time: float, t0: float, w0: float, tf: float, slot_limit: int
    ) -> None:
        busy = self.busy
        heap = self.heap
        log = self.log
        while True:
            t_a = (
                self.arr_times_list[self.i]
                if self.i < self.n_arrivals
                else np.inf
            )
            if heap:
                t_c = t0 + (heap[0][0] - w0) / tf
                if t_c < t0:
                    t_c = t0
            else:
                t_c = np.inf
            if t_c <= t_a:
                if t_c >= tick_time:
                    return
                w_c, server, service = heapq.heappop(heap)
                busy[server] -= 1
                if busy[server] < 0:
                    raise SimulationError("negative slot occupancy")
                log.add(t_c, server, -1, service)
                self.events += 1
                if self.queue_head < len(self.queue):
                    index = self.balancer.choose(busy, slot_limit)
                    if index is not None:
                        q_service = self.queue[self.queue_head]
                        self.queue_head += 1
                        busy[index] += 1
                        heapq.heappush(heap, (w_c + q_service, index, q_service))
                        log.add(t_c, index, +1, q_service)
                        self._compact_queue()
            else:
                if t_a >= tick_time:
                    return
                service = self.arr_services_list[self.i]
                self.i += 1
                self.events += 1
                index = self.balancer.choose(busy, slot_limit)
                if index is None:
                    self.queue.append(service)
                    self._note_queue_depth()
                else:
                    w_a = w0 + (t_a - t0) * tf
                    busy[index] += 1
                    heapq.heappush(heap, (w_a + service, index, service))
                    log.add(t_a, index, +1, service)


class _BatchedCore(_CoreBase):
    """The reference heap loop with tick-local lists and bulk queueing.

    It makes the reference loop's decisions event for event, so it logs
    the same transition multiset. Three things make it cheaper:

    * only the tick's arrivals (those strictly before its end; one
      ``searchsorted`` finds them) become Python floats, so memory holds
      one tick of them, not the whole run;
    * slot occupancy is a Python list for the tick (the loop does
      per-event scalar reads and writes, where list indexing beats NumPy
      scalar indexing by ~2x), copied back to ``busy`` at the tick end;
    * an arrival that finds the cluster full starts a *bulk-queue
      stretch*: no dispatch can change occupancy before the next
      completion, so every arrival strictly before it (or before the tick
      end) queues in one step. The ``bisect_left`` cut leaves an arrival
      at exactly the completion time to the loop, because completions win
      ties.
    """

    def process_until(
        self, tick_time: float, t0: float, w0: float, tf: float, slot_limit: int
    ) -> None:
        heap = self.heap
        busy = self.busy.tolist()
        log = self.log
        balancer = self.balancer
        start = self.i
        end = int(np.searchsorted(self.arr_times, tick_time, side="left"))
        arr_times = self.arr_times[start:end].tolist()
        arr_services = self.arr_services[start:end].tolist()
        n_arrivals = end - start
        i = 0  # next arrival of the tick
        while True:
            t_a = arr_times[i] if i < n_arrivals else np.inf
            if heap:
                t_c = t0 + (heap[0][0] - w0) / tf
                if t_c < t0:
                    t_c = t0
            else:
                t_c = np.inf
            if t_c <= t_a:
                if t_c >= tick_time:
                    break
                w_c, server, service = heapq.heappop(heap)
                busy[server] -= 1
                if busy[server] < 0:
                    raise SimulationError("negative slot occupancy")
                log.add(t_c, server, -1, service)
                self.events += 1
                if self.queue_head < len(self.queue):
                    index = balancer.choose(busy, slot_limit)
                    if index is not None:
                        q_service = self.queue[self.queue_head]
                        self.queue_head += 1
                        busy[index] += 1
                        heapq.heappush(
                            heap, (w_c + q_service, index, q_service)
                        )
                        log.add(t_c, index, +1, q_service)
                        self._compact_queue()
            else:
                if t_a >= tick_time:
                    break
                service = arr_services[i]
                i += 1
                self.events += 1
                index = balancer.choose(busy, slot_limit)
                if index is None:
                    self.queue.append(service)
                    self._note_queue_depth()
                    # Cluster full, and it stays full until the next
                    # completion (no dispatches can change ``busy``): the
                    # whole stretch of arrivals up to it queues in bulk.
                    limit = t_c if t_c < tick_time else tick_time
                    hi = bisect_left(arr_times, limit, i)
                    if hi > i:
                        self.queue.extend(arr_services[i:hi])
                        self.events += hi - i
                        i = hi
                        self._note_queue_depth()
                else:
                    w_a = w0 + (t_a - t0) * tf
                    busy[index] += 1
                    heapq.heappush(heap, (w_a + service, index, service))
                    log.add(t_a, index, +1, service)
        self.i = start + i
        self.busy[:] = busy


# ---------------------------------------------------------------------------
# Shared tick loop
# ---------------------------------------------------------------------------


def run_event_mode(sim):
    """Run the event-mode simulation of a :class:`DatacenterSimulator`.

    The per-tick machinery (fault hooks, policy decision, thermal step,
    recording) is the shared :class:`~repro.dcsim.simulator._Plant`;
    only intra-tick event processing is delegated to the engine core
    selected by ``sim.config.engine``.
    """
    from repro.dcsim.simulator import _Plant

    config = sim.config
    n_servers = sim.topology.server_count
    slots = config.slots_per_server
    dt = config.tick_interval_s

    if sim._arrivals is not None:
        stream = coerce_arrival_stream(sim._arrivals)
    else:
        stream = cached_arrival_stream(
            sim.trace,
            server_count=n_servers,
            slots_per_server=slots,
            seed=config.seed,
        )

    plant = _Plant(sim)
    sim.load_balancer.reset()
    injector = plant.injector

    core_cls = _BatchedCore if config.engine == "batched" else _ReferenceCore
    core = core_cls(
        stream.times_s, stream.service_s, n_servers, sim.load_balancer
    )

    # Anchored work clock (see module docstring).
    t0 = 0.0
    w0 = 0.0
    tf = 1.0
    slot_limit = slots
    start = _time.perf_counter()

    for tick_index, tick_time in enumerate(plant.ticks):
        if injector is not None:
            # Faults resolve at tick granularity: effects at this tick's
            # end apply to dispatch within the tick window.
            injector.advance_to(tick_time, room=sim.room)
            sim.load_balancer.set_offline(injector.offline_count(n_servers))

        busy_start = core.busy.copy()
        core.process_until(tick_time, t0, w0, tf, slot_limit)
        busy_time, completed = core.log.finalize(
            tick_time, tick_time - t0, busy_start
        )
        if completed:
            plant.result.completed_work_s[tick_index] += completed
        w0 = w0 + (tick_time - t0) * tf
        t0 = tick_time

        utilization = busy_time / (dt * slots)
        # Offered work rate this tick: busy fraction times the current
        # per-slot service rate.
        decision = plant.decide(tick_time, utilization * tf)
        frequency = decision.frequency_ghz
        tf = sim.power_model.throughput_factor(frequency)
        if decision.utilization_cap < 1.0:
            slot_limit = max(
                0, int(np.floor(decision.utilization_cap * slots + 1e-9))
            )
        else:
            slot_limit = slots

        plant.step(
            tick_index,
            tick_time,
            np.clip(utilization, 0, 1),
            frequency,
            demand=plant.demand_at(tick_time),
            utilization=float(np.mean(utilization)),
            # Work is credited continuously (busy slots x DVFS rate);
            # discrete completions are recorded separately as a
            # conservation cross-check.
            throughput=float(np.mean(np.clip(utilization, 0, 1))) * tf,
            queue_length=float(core.queue_depth()),
            # Event mode queues saturated work rather than shedding it.
            shed_work=0.0,
        )

    elapsed = _time.perf_counter() - start
    obs = get_registry()
    if obs.enabled:
        obs.count("dcsim.events", core.events)
        obs.count(f"dcsim.engine.{config.engine}")
        obs.record_max("dcsim.queue_high_water", core.queue_high_water)
        if elapsed > 0:
            obs.record("dcsim.events_per_sec", core.events / elapsed)
    return plant.finish(n_servers * sim.power_model.wall_power_w(0.0))
