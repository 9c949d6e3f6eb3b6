"""Array-native event engine for the discrete-event datacenter simulator.

Two interchangeable engines implement the event-mode semantics described in
:mod:`repro.dcsim.simulator` (arrivals, round-robin dispatch into per-server
slots, FIFO queueing under saturation, work-clock completions under DVFS):

* ``reference`` — a lean per-event loop over a ``heapq`` of
  ``(work_time, server, service_work)`` tuples. This is the semantic
  ground truth; it is intentionally simple.
* ``batched`` — processes *chunks* of events between policy decisions with
  vectorized NumPy operations: all arrivals of a span are dispatched in
  one :meth:`~repro.dcsim.loadbalancer.LoadBalancer.choose_many` call,
  completions pop out of a typed event queue as array slices, and
  saturated arrivals queue in bulk. A chunk is committed only after an
  exact validation that the sequential engine would have made the same
  dispatch decisions; otherwise the engine falls back to a scalar cascade
  for a stretch and retries.

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

import numpy as np

from repro.dcsim.loadbalancer import RoundRobin
from repro.errors import SimulationError
from repro.obs import get_registry
from repro.workload.jobs import cached_arrival_stream, coerce_arrival_stream

__all__ = [
    "TypedEventQueue",
    "TickEventLog",
    "run_event_mode",
    "QUEUE_COMPACT_THRESHOLD",
]

#: Consumed-prefix length beyond which the FIFO queue of saturated jobs is
#: compacted (the consumed prefix is deleted). Compaction is purely a
#: memory-management step; it never changes behaviour.
QUEUE_COMPACT_THRESHOLD = 4096

#: Pending pushes are folded into a sorted run once this many accumulate.
_PENDING_FLUSH = 64

#: Sorted runs are consolidated into one once this many accumulate.
_MAX_RUNS = 12

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)

#: A mega-pass that needs this many dispatch-conflict segments is
#: *degenerate*: the tick is conflict-dense (high slot occupancy), each
#: extra segment redeals the remainder, and per-segment NumPy overhead
#: loses to the scalar engine.
_SEG_LIMIT = 6

#: Forecast horizon, in ticks, of the scalar-band pass that runs after a
#: degenerate mega-pass. Conflict density tracks the diurnal load, so the
#: degenerate regime persists for many consecutive ticks; instead of
#: blindly holding scalar for a fixed count and re-probing, the engine
#: projects slot occupancy over the next ``_BAND_TICKS`` tick edges (from
#: the drained pending heap plus the remaining arrival stream) and stays
#: scalar exactly for the run of edges still above the occupancy gate.
#: Setting this to 0 disables holds entirely (every tick re-probes).
_BAND_TICKS = 64

#: Occupancy fraction above which ticks skip the vectorized probe
#: entirely. Conflicts are pops that leave a *full* server, and measured
#: degeneracy switches sharply with occupancy: below ~0.5 a mega-pass
#: commits in one or two segments, above ~0.6 it always degenerates. The
#: gate removes the cost of probing ticks that are known losers; the
#: degenerate hold still catches the band in between.
_VECTOR_OCCUPANCY = 0.55

#: Ticks with fewer arrivals than this go straight to the scalar loop:
#: the mega-pass's fixed costs (work maps, pop sort, occupancy replay)
#: only amortize over reasonably large spans (measured break-even is
#: around a hundred arrivals per tick).
_VECTOR_MIN = 128

# _try_chunk outcomes.
_DONE = 0        # every remaining event is at or past the tick boundary
_ADVANCED = 1    # a chunk committed; state moved forward
_FAILED = 2      # no progress (saturation); caller finishes the tick scalar
_DEGENERATE = 3  # progress, but conflict-dense; caller goes scalar + holds
_SMALL = 4       # tick too small to vectorize; caller runs it scalar


class TypedEventQueue:
    """Priority queue of completion events on typed NumPy arrays.

    Events are ``(work_time, server, service_work)`` triples ordered
    lexicographically, exactly like the tuple heap of the reference
    engine. Storage is a small set of individually sorted runs (float64 /
    int64 / float64 column arrays with a head cursor) plus a binary-heap
    pending buffer for recent scalar pushes:

    * scalar ``push``/``pop``/``peek`` cost O(runs + log pending) with
      tiny constants — runs expose their heads as cached Python tuples,
      and the minimum is memoized so peek-then-pop scans once;
    * ``push_batch`` lexsorts the batch into one new run;
    * ``pop_runs_until`` slices every run's qualifying prefix out in one
      vectorized step per run (the inter-run merge order is irrelevant to
      callers that reduce through a :class:`TickEventLog`).

    Pending overflow flushes into a new run; excess runs consolidate into
    one (concatenate + lexsort), keeping scalar operations cheap.
    """

    def __init__(self) -> None:
        # Each run: [w_arr, s_arr, v_arr, head]; runs are immutable past
        # their head cursor.
        self._runs: list[list] = []
        # Cached head triples, parallel to _runs: (w, s, v) Python scalars.
        self._heads: list[tuple[float, int, float]] = []
        self._pending: list[tuple[float, int, float]] = []
        # Memoized (minimum triple, source) so the peek-then-pop pattern of
        # the scalar cascade scans the heads once, not twice. Source is the
        # run index, or -1 for the pending heap; None means stale.
        self._best: tuple[tuple[float, int, float], int] | None = None

    def __len__(self) -> int:
        return sum(len(r[0]) - r[3] for r in self._runs) + len(self._pending)

    # -- internal maintenance ------------------------------------------------

    def _append_run(self, w: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
        if len(w) == 0:
            return
        self._best = None
        self._runs.append([w, s, v, 0])
        self._heads.append((float(w[0]), int(s[0]), float(v[0])))
        if len(self._runs) > _MAX_RUNS:
            self._consolidate()

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        w = np.array([e[0] for e in self._pending], dtype=np.float64)
        s = np.array([e[1] for e in self._pending], dtype=np.int64)
        v = np.array([e[2] for e in self._pending], dtype=np.float64)
        self._pending.clear()
        order = np.lexsort((v, s, w))
        self._append_run(w[order], s[order], v[order])

    def _consolidate(self) -> None:
        self._best = None
        w = np.concatenate([r[0][r[3]:] for r in self._runs])
        s = np.concatenate([r[1][r[3]:] for r in self._runs])
        v = np.concatenate([r[2][r[3]:] for r in self._runs])
        self._runs.clear()
        self._heads.clear()
        order = np.lexsort((v, s, w))
        self._append_run(w[order], s[order], v[order])

    def _advance_run(self, i: int) -> None:
        run = self._runs[i]
        run[3] += 1
        if run[3] >= len(run[0]):
            del self._runs[i]
            del self._heads[i]
        else:
            h = run[3]
            self._heads[i] = (
                float(run[0][h]), int(run[1][h]), float(run[2][h])
            )

    # -- scalar operations ---------------------------------------------------

    def push(self, w: float, s: int, v: float) -> None:
        event = (w, s, v)
        heapq.heappush(self._pending, event)
        if len(self._pending) >= _PENDING_FLUSH:
            self._flush_pending()
        else:
            # The push displaces the cached minimum only if it is smaller;
            # otherwise the heap top and every run head are unchanged.
            cached = self._best
            if cached is not None and event < cached[0]:
                self._best = (event, -1)

    def peek(self) -> tuple[float, int, float] | None:
        cached = self._best
        if cached is not None:
            return cached[0]
        best = None
        source = -2
        for i, h in enumerate(self._heads):
            if best is None or h < best:
                best = h
                source = i
        if self._pending and (best is None or self._pending[0] < best):
            best = self._pending[0]
            source = -1
        if best is None:
            return None
        self._best = (best, source)
        return best

    def pop(self) -> tuple[float, int, float]:
        if self._best is None and self.peek() is None:
            raise SimulationError("pop from empty event queue")
        best, source = self._best
        self._best = None
        if source == -1:
            return heapq.heappop(self._pending)
        self._advance_run(source)
        return best

    def drain_to_pending(self) -> None:
        """Move every run into the pending heap for a scalar-heavy stretch.

        The scalar engine then works on the heap directly (plain tuple
        ``heappush``/``heappop``, exactly like the reference engine) with
        no per-event head scans or tuple re-boxing; the next batch
        operation flushes the pending buffer back into a sorted run.
        """
        self._best = None
        if not self._runs:
            return
        for run in self._runs:
            head = run[3]
            self._pending.extend(
                zip(
                    run[0][head:].tolist(),
                    run[1][head:].tolist(),
                    run[2][head:].tolist(),
                )
            )
        self._runs.clear()
        self._heads.clear()
        heapq.heapify(self._pending)

    def pending_work_times(self) -> np.ndarray:
        """Work times of every event in the pending heap (heap order).

        After :meth:`drain_to_pending` the heap holds every live
        completion, so this is the whole queue as one unsorted array —
        the input of the batched core's scalar-band forecast.
        """
        if not self._pending:
            return _EMPTY_F
        return np.fromiter(
            (event[0] for event in self._pending),
            dtype=np.float64,
            count=len(self._pending),
        )

    # -- batch operations ----------------------------------------------------

    def push_batch(
        self, w: np.ndarray, s: np.ndarray, v: np.ndarray
    ) -> None:
        if len(w) == 0:
            return
        w = np.asarray(w, dtype=np.float64)
        s = np.asarray(s, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        order = np.lexsort((v, s, w))
        self._append_run(w[order], s[order], v[order])

    def pop_runs_until(
        self, t0: float, w0: float, tf: float, limit: float, inclusive: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop every event whose anchored real time is before ``limit``.

        ``inclusive`` pops events at exactly ``limit`` too (used when the
        limit is the next arrival, which completions win on ties). The
        returned arrays concatenate per-run prefixes and are **not**
        globally sorted — callers must reduce them order-independently
        (e.g. through :class:`TickEventLog`).
        """
        self._best = None
        if self._pending:
            self._flush_pending()
        if not self._runs:
            empty_f = np.empty(0, dtype=np.float64)
            return empty_f, np.empty(0, dtype=np.int64), empty_f
        ws: list[np.ndarray] = []
        ss: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        # A first-guess boundary by inverting the anchor map, then an exact
        # fix-up on the anchored times themselves (the inverse is only
        # approximate in floating point).
        guess = w0 + (limit - t0) * tf
        for i in range(len(self._runs) - 1, -1, -1):
            run = self._runs[i]
            w_arr, head = run[0], run[3]
            k = int(np.searchsorted(w_arr[head:], guess, side="right"))
            n_run = len(w_arr) - head
            while k > 0:
                t_c = t0 + (float(w_arr[head + k - 1]) - w0) / tf
                if t_c < t0:
                    t_c = t0
                if (t_c <= limit) if inclusive else (t_c < limit):
                    break
                k -= 1
            while k < n_run:
                t_c = t0 + (float(w_arr[head + k]) - w0) / tf
                if t_c < t0:
                    t_c = t0
                if not ((t_c <= limit) if inclusive else (t_c < limit)):
                    break
                k += 1
            if k <= 0:
                continue
            ws.append(w_arr[head:head + k])
            ss.append(run[1][head:head + k])
            vs.append(run[2][head:head + k])
            run[3] = head + k
            if run[3] >= len(w_arr):
                del self._runs[i]
                del self._heads[i]
            else:
                h = run[3]
                self._heads[i] = (
                    float(run[0][h]), int(run[1][h]), float(run[2][h])
                )
        if not ws:
            empty_f = np.empty(0, dtype=np.float64)
            return empty_f, np.empty(0, dtype=np.int64), empty_f
        return np.concatenate(ws), np.concatenate(ss), np.concatenate(vs)


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

    def add_batch(
        self, t: np.ndarray, s: np.ndarray, d: int, v: np.ndarray
    ) -> None:
        if len(t) == 0:
            return
        self._t.extend(t.tolist())
        self._s.extend(s.tolist())
        self._d.extend([d] * len(t))
        self._v.extend(v.tolist())

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
        # Python-float mirrors for the scalar hot path.
        self.arr_times_list = arr_times.tolist()
        self.arr_services_list = arr_services.tolist()
        self.n_arrivals = len(arr_times)
        self.i = 0  # next arrival index
        self.busy = np.zeros(n_servers, dtype=np.int64)
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
        self.heap: list[tuple[float, int, float]] = []

    def pending_completions(self) -> int:
        return len(self.heap)

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
    """Chunked engine: vectorized spans with exact-equivalence validation.

    A *chunk* is a span of the tick processed in one shot: the span's
    arrivals are dispatched with one ``choose_many`` call and its due
    completions pop out of the typed queue as array slices. The chunk is
    committed only when the sequential engine would provably have made
    identical decisions:

    * the span is cut so that no completion *spawned inside it* lands
      before its end (service works are known before dispatch, so this is
      decided up front);
    * all span arrivals must dispatch (no queueing inside a chunk);
    * for plain round-robin — whose choices depend only on which servers
      are *full*, not on exact occupancy — the deal is validated against
      *stale fullness*: the dealer sees occupancy without the span's
      completions, so a decision at ``t_j`` is suspect iff some server is
      both statically full before ``t_j`` and freed by a completion at or
      before ``t_j``. Committing strictly before the earliest such time
      (``min_s max(t_fill(s), t_comp(s))``, :meth:`_earliest_taint`)
      makes every committed choice provably sequential. Least-loaded
      choices depend on exact occupancy, so vectorized passes are only
      taken for round-robin.

    Conflict density tracks slot occupancy: at high load nearly every
    completion leaves a full server, segments shrink to a few events, and
    per-segment NumPy overhead loses to plain scalar processing. The
    engine is therefore *regime-adaptive*: a mega-pass that degenerates
    switches the core to a reference-style heap loop (see
    :meth:`_process_scalar`) and then *forecasts* how long the conflict-
    dense band lasts (:meth:`_forecast_scalar_band`): a run-length
    segmented pass over the drained pending heap and the remaining
    arrival stream projects occupancy at the next ``_BAND_TICKS`` tick
    edges, and the vectorized probe stays off until the first edge back
    below the occupancy gate. The forecast is a scheduling heuristic
    only — either path logs the same transition multiset, so the
    reduction stays byte-identical regardless of what it predicts.
    """

    def __init__(self, arr_times, arr_services, n_servers, load_balancer):
        super().__init__(arr_times, arr_services, n_servers, load_balancer)
        self.store = TypedEventQueue()
        # The full/not-full dispatch argument above is exact only for the
        # plain RoundRobin policy, not arbitrary subclasses of it.
        self._rr_chunks = type(load_balancer) is RoundRobin
        # Real-time bound below which vectorized probes stay off; set by
        # the scalar-band forecast after a degenerate mega-pass.
        self._scalar_until = -np.inf
        self._forecast_pending = False
        # Deterministic forecast telemetry (dcsim.engine.forecast_*).
        self.forecast_bands = 0
        self.forecast_band_ticks = 0

    def pending_completions(self) -> int:
        return len(self.store)

    def process_until(
        self, tick_time: float, t0: float, w0: float, tf: float, slot_limit: int
    ) -> None:
        if (
            self._rr_chunks
            and self.queue_head >= len(self.queue)
            and t0 >= self._scalar_until
            and int(self.busy.sum())
            < _VECTOR_OCCUPANCY * len(self.busy) * slot_limit
        ):
            while True:
                status = self._try_chunk(
                    tick_time, t0, w0, tf, slot_limit
                )
                if status == _DONE:
                    return
                if status == _ADVANCED:
                    continue
                if status == _DEGENERATE:
                    # Forecast after the scalar pass settles this tick's
                    # state (the drained heap and arrival cursor are what
                    # the projection reads).
                    self._forecast_pending = True
                break
        self._process_scalar(tick_time, t0, w0, tf, slot_limit)
        if self._forecast_pending:
            self._forecast_pending = False
            self._scalar_until = self._forecast_scalar_band(
                tick_time, t0, w0, tf, slot_limit
            )

    def _process_scalar(
        self, tick_time: float, t0: float, w0: float, tf: float, slot_limit: int
    ) -> None:
        """Finish the tick with the reference loop on the drained heap.

        Identical event-for-event to :class:`_ReferenceCore` (plus the
        bulk-queue stretch, which queues exactly the arrivals the scalar
        loop would), so the logged transition multiset is unchanged.
        """
        store = self.store
        store.drain_to_pending()
        heap = store._pending
        # Python-list occupancy: the loop does per-event scalar reads and
        # writes, where list indexing beats NumPy scalar indexing by ~2x.
        busy = self.busy.tolist()
        log = self.log
        balancer = self.balancer
        arr_times = self.arr_times_list
        arr_services = self.arr_services_list
        while True:
            t_a = (
                arr_times[self.i] if self.i < self.n_arrivals else np.inf
            )
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
                service = arr_services[self.i]
                self.i += 1
                self.events += 1
                index = balancer.choose(busy, slot_limit)
                if index is None:
                    self.queue.append(service)
                    self._note_queue_depth()
                    # Cluster full, and it stays full until the next
                    # completion (no dispatches can change ``busy``): the
                    # whole stretch of arrivals up to it queues in bulk.
                    limit = t_c if t_c < tick_time else tick_time
                    hi = int(np.searchsorted(
                        self.arr_times, limit, side="left"
                    ))
                    if hi > self.i:
                        self.queue.extend(arr_services[self.i:hi])
                        self.events += hi - self.i
                        self.i = hi
                        self._note_queue_depth()
                else:
                    w_a = w0 + (t_a - t0) * tf
                    busy[index] += 1
                    heapq.heappush(heap, (w_a + service, index, service))
                    log.add(t_a, index, +1, service)
        self.busy[:] = busy

    # -- scalar-band forecast ------------------------------------------------

    def _forecast_scalar_band(
        self, tick_time: float, t0: float, w0: float, tf: float, slot_limit: int
    ) -> float:
        """Real time until which the conflict-dense band is projected to last.

        Runs right after a degenerate tick finished scalar, when
        :meth:`_process_scalar` has drained every live completion into
        the pending heap. One segmented pass projects slot occupancy at
        the next ``_BAND_TICKS`` tick edges:

        * cumulative arrivals per edge — ``searchsorted`` over the
          remaining arrival stream;
        * cumulative departures per edge — the drained heap's work times
          mapped through the current anchor, merged with the first-pass
          completions the future arrivals themselves would post
          (``t_a + service / tf``);
        * occupancy = current busy slots + arrivals − departures.

        The returned bound is the first edge back below the
        ``_VECTOR_OCCUPANCY`` gate (the run length of the above-gate
        band), so the whole band runs scalar with zero per-tick probe
        overhead and the probe resumes exactly when the regime is
        projected to flip. The projection ignores queueing and future
        DVFS changes — it is a scheduling heuristic only; results stay
        byte-identical whatever it predicts.
        """
        dt = tick_time - t0
        if dt <= 0.0 or _BAND_TICKS <= 0:
            return tick_time
        edges = tick_time + dt * np.arange(1, _BAND_TICKS + 1)
        lo = self.i
        hi = int(np.searchsorted(self.arr_times, float(edges[-1]), side="right"))
        arrivals = np.searchsorted(self.arr_times[lo:hi], edges, side="right")
        parts = []
        pending_w = self.store.pending_work_times()
        if len(pending_w):
            t_pending = t0 + (pending_w - w0) / tf
            parts.append(t_pending)
        if hi > lo:
            parts.append(
                self.arr_times[lo:hi] + self.arr_services[lo:hi] / tf
            )
        if parts:
            departures_at = np.sort(np.concatenate(parts))
            departures = np.searchsorted(departures_at, edges, side="right")
        else:
            departures = np.zeros(len(edges), dtype=np.int64)
        occupancy = int(self.busy.sum()) + arrivals - departures
        above = occupancy >= _VECTOR_OCCUPANCY * len(self.busy) * slot_limit
        if above.all():
            band = _BAND_TICKS
        else:
            band = int(np.argmin(above))
        self.forecast_bands += 1
        self.forecast_band_ticks += band
        return tick_time + band * dt

    # -- chunk fast path -----------------------------------------------------

    def _try_chunk(
        self,
        tick_time: float,
        t0: float,
        w0: float,
        tf: float,
        slot_limit: int,
    ) -> int:
        """Process the whole tick in one vectorized, spawn-inclusive pass.

        The tick's fixed costs (arrival search, store pop and sort, work
        maps) are paid once; completions *spawned inside the tick* join
        the conflict replay as first-class events, so the pass is never
        cut short by a fast job. Dispatch conflicts and transient
        saturation are resolved in an inner *segment* loop that only
        redoes ``choose_many`` plus the occupancy replay.

        Preconditions: the FIFO queue is empty and the balancer is plain
        round-robin (the caller gates both). See the class docstring for
        the validity argument.
        """
        i = self.i
        hi = int(np.searchsorted(self.arr_times, tick_time, side="left"))
        m = hi - i
        busy = self.busy
        store = self.store
        if m == 0 or m < _VECTOR_MIN:
            # Cheap emptiness probe before the vectorized pop.
            head = store.peek()
            if head is not None:
                t_head = t0 + (head[0] - w0) / tf
                if t_head < t0:
                    t_head = t0
            if head is None or t_head >= tick_time:
                return _DONE if m == 0 else _SMALL
            if m:
                return _SMALL
            w_pop, s_pop, v_pop = store.pop_runs_until(
                t0, w0, tf, tick_time, inclusive=False
            )
            # Pure completion drain: with an empty queue these trigger no
            # dispatch decisions, so they are valid for any balancer.
            t_pop = t0 + (w_pop - w0) / tf
            np.maximum(t_pop, t0, out=t_pop)
            np.subtract.at(busy, s_pop, 1)
            if busy.min() < 0:
                raise SimulationError("negative slot occupancy")
            self.log.add_batch(t_pop, s_pop, -1, v_pop)
            self.events += len(w_pop)
            return _ADVANCED

        t_run = self.arr_times[i:hi]
        v_run = self.arr_services[i:hi]
        w_run = w0 + (t_run - t0) * tf
        w_done = w_run + v_run
        # Completion times the span's own jobs would post (same float
        # expression as the scalar engines, so commit decisions and log
        # entries match bit-for-bit).
        t_sp = t0 + (w_done - w0) / tf
        np.maximum(t_sp, t0, out=t_sp)
        in_window = t_sp < tick_time

        head = store.peek()
        if head is not None:
            t_head = t0 + (head[0] - w0) / tf
            if t_head < t0:
                t_head = t0
        if head is None or t_head >= tick_time:
            w_pop = _EMPTY_F
            s_pop = _EMPTY_I
            v_pop = _EMPTY_F
        else:
            w_pop, s_pop, v_pop = store.pop_runs_until(
                t0, w0, tf, tick_time, inclusive=False
            )
        k = len(w_pop)
        if k:
            # Sort pops once by work time so segment cuts can use
            # ``searchsorted`` (the log and the store re-sort anyway).
            order = np.lexsort((v_pop, s_pop, w_pop))
            w_pop = w_pop[order]
            s_pop = s_pop[order]
            v_pop = v_pop[order]
            t_pop = t0 + (w_pop - w0) / tf
            np.maximum(t_pop, t0, out=t_pop)
        else:
            t_pop = _EMPTY_F

        balancer = self.balancer
        n = len(busy)
        t_last = float(t_run[-1])
        assigned = np.empty(m, dtype=np.int64)
        a = 0   # committed arrivals
        p = 0   # committed store pops
        nc = 0  # committed in-tick spawned completions
        # Spawned completions of committed arrivals still pending inside
        # the tick window (exact servers), and the log/store backlog of
        # spawn commits and out-of-window spawns.
        pend_t = _EMPTY_F
        pend_s = _EMPTY_I
        pend_v = _EMPTY_F
        pend_w = _EMPTY_F
        done_t: list[np.ndarray] = []
        done_s: list[np.ndarray] = []
        done_v: list[np.ndarray] = []
        out_w: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        segments = 0
        degenerate = False
        while a < m:
            if segments >= _SEG_LIMIT:
                # Each segment redeals and replays everything left, so a
                # conflict-dense tick would go quadratic here; past the
                # cap the scalar engine finishes the tick from the
                # committed prefix (and holds if this keeps happening).
                degenerate = True
                break
            segments += 1
            committed_before = a + p + nc
            saved_next = balancer._next
            servers = balancer.choose_many(busy, slot_limit, m - a)
            m_av = len(servers)
            # Transient saturation is just another cut: arrivals past the
            # dealt prefix wait for a completion, which the segment loop
            # replays exactly (a truly full cluster makes no progress and
            # falls to the scalar engine, which queues).
            t_sat = float(t_run[a + m_av]) if m_av < m - a else np.inf
            # The dealer works against the segment-start occupancy, so a
            # completion inside the span makes its fullness view *stale*:
            # it may skip a server as full that the sequential engine
            # would use. The taint search covers queued pops, pending
            # committed spawns, and the dealt prefix's own spawned
            # completions (tentative servers — extra completions only
            # tighten the cut, never loosen it). Cheap necessary
            # condition first: taint needs a server that both fills
            # (statically) and completes.
            sw = in_window[a : a + m_av]
            c_s = np.concatenate((s_pop[p:], pend_s, servers[sw]))
            t_bad = None
            if len(c_s):
                c_t = np.concatenate((t_pop[p:], pend_t, t_sp[a : a + m_av][sw]))
                counts = np.bincount(servers, minlength=n)
                if np.any(busy[c_s] + counts[c_s] >= slot_limit):
                    t_bad = self._earliest_taint(
                        servers, t_run[a : a + m_av], c_s, c_t, slot_limit
                    )
            # A conflict only matters if an arrival still follows it
            # (completions win ties, so `<=`): fullness changes can only
            # affect later *dispatch* decisions.
            cut = t_sat
            if t_bad is not None and t_bad < cut:
                cut = t_bad
            if cut > t_last:
                # Conflict-free to the last arrival: commit everything.
                np.add.at(busy, servers, 1)
                assigned[a:] = servers
                np.subtract.at(busy, s_pop[p:], 1)
                if len(pend_t):
                    np.subtract.at(busy, pend_s, 1)
                    done_t.append(pend_t)
                    done_s.append(pend_s)
                    done_v.append(pend_v)
                    nc += len(pend_t)
                    pend_t = _EMPTY_F
                    pend_s = _EMPTY_I
                    pend_v = _EMPTY_F
                    pend_w = _EMPTY_F
                if sw.any():
                    np.subtract.at(busy, servers[sw], 1)
                    done_t.append(t_sp[a:][sw])
                    done_s.append(servers[sw])
                    done_v.append(v_run[a:][sw])
                    nc += int(sw.sum())
                ow = ~sw
                if ow.any():
                    out_w.append(w_done[a:][ow])
                    out_s.append(servers[ow])
                    out_v.append(v_run[a:][ow])
                a = m
                p = k
                break
            # Commit the conflict-free arrival prefix ``[.., cut)`` plus
            # every completion up to the first uncommitted arrival: those
            # follow all committed arrivals, so they are decision-free
            # trailing drains (including the conflicting one — its
            # fullness effect lands in ``busy`` before the next segment's
            # ``choose_many``). Round-robin dealing is prefix-consistent,
            # so ``servers[:m2]`` is exactly the reduced dispatch.
            m2 = int(np.searchsorted(t_run[a : a + m_av], cut, side="left"))
            t_cut = float(t_run[a + m2])
            p2 = int(np.searchsorted(t_pop[p:], t_cut, side="right"))
            if m2:
                seg = servers[:m2]
                np.add.at(busy, seg, 1)
                assigned[a : a + m2] = seg
                balancer._next = int((seg[-1] + 1) % n)
                # Route the committed prefix's spawns: completions due by
                # the cut commit now, later in-tick ones join the pending
                # set, the rest go back to the store at the end.
                sw2 = in_window[a : a + m2]
                new_t = t_sp[a : a + m2][sw2]
                if len(new_t):
                    new_s = seg[sw2]
                    new_v = v_run[a : a + m2][sw2]
                    new_w = w_done[a : a + m2][sw2]
                    early = new_t <= t_cut
                    if early.any():
                        np.subtract.at(busy, new_s[early], 1)
                        done_t.append(new_t[early])
                        done_s.append(new_s[early])
                        done_v.append(new_v[early])
                        nc += int(early.sum())
                        late = ~early
                        new_t = new_t[late]
                        new_s = new_s[late]
                        new_v = new_v[late]
                        new_w = new_w[late]
                    if len(new_t):
                        pend_t = np.concatenate((pend_t, new_t))
                        pend_s = np.concatenate((pend_s, new_s))
                        pend_v = np.concatenate((pend_v, new_v))
                        pend_w = np.concatenate((pend_w, new_w))
                ow2 = ~sw2
                if ow2.any():
                    out_w.append(w_done[a : a + m2][ow2])
                    out_s.append(seg[ow2])
                    out_v.append(v_run[a : a + m2][ow2])
            else:
                balancer._next = saved_next
            np.subtract.at(busy, s_pop[p : p + p2], 1)
            if len(pend_t):
                mc = pend_t <= t_cut
                if mc.any():
                    np.subtract.at(busy, pend_s[mc], 1)
                    done_t.append(pend_t[mc])
                    done_s.append(pend_s[mc])
                    done_v.append(pend_v[mc])
                    nc += int(mc.sum())
                    keep = ~mc
                    pend_t = pend_t[keep]
                    pend_s = pend_s[keep]
                    pend_v = pend_v[keep]
                    pend_w = pend_w[keep]
            a += m2
            p += p2
            if a + p + nc == committed_before:
                # Full cluster with nothing completing before the stalled
                # arrival: the sequential engine queues here, which is the
                # scalar path's job.
                break

        if a:
            self.log.add_batch(t_run[:a], assigned[:a], +1, v_run[:a])
        if p:
            self.log.add_batch(t_pop[:p], s_pop[:p], -1, v_pop[:p])
        if nc:
            self.log.add_batch(
                np.concatenate(done_t),
                np.concatenate(done_s),
                -1,
                np.concatenate(done_v),
            )
        if (p or nc) and busy.min() < 0:
            raise SimulationError("negative slot occupancy")
        if out_w:
            store.push_batch(
                np.concatenate(out_w),
                np.concatenate(out_s),
                np.concatenate(out_v),
            )
        if len(pend_w):
            store.push_batch(pend_w, pend_s, pend_v)
        if p < k:
            store.push_batch(w_pop[p:], s_pop[p:], v_pop[p:])
        self.events += a + p + nc
        self.i = i + a
        if degenerate:
            return _DEGENERATE
        return _ADVANCED if (a or p or nc) else _FAILED

    def _earliest_taint(
        self,
        servers: np.ndarray,
        t_run: np.ndarray,
        s_pop: np.ndarray,
        t_pop: np.ndarray,
        slot_limit: int,
    ) -> float | None:
        """Earliest time a dispatch decision could see stale fullness.

        The dealer's occupancy view (``busy`` + its own dealt arrivals)
        never *undercounts* the sequential engine's — completions only
        lower true occupancy — so a dealt choice can only diverge by
        *skipping* a server the dealer believes full while a completion
        has actually freed a slot. A decision at ``t_j`` is therefore
        tainted iff some server is statically full before ``t_j``
        (``t_fill``: the dealt arrival that brings it to the slot limit,
        or the segment start for servers already full) *and* has a
        completion at or before ``t_j`` (``t_comp``; completions win
        ties). The earliest possible taint is
        ``min_s max(t_fill(s), t_comp(s))`` — every decision strictly
        before it is provably identical to sequential dispatch. This
        bound also subsumes the full→non-full transition check: a
        completion leaving a truly full server at ``t_c`` has both
        ``t_fill <= t_c`` and ``t_comp <= t_c``.
        """
        busy = self.busy
        n = len(busy)
        t_comp = np.full(n, np.inf)
        np.minimum.at(t_comp, s_pop, t_pop)
        t_fill = np.full(n, np.inf)
        t_fill[busy >= slot_limit] = -np.inf
        if len(servers):
            order = np.argsort(servers, kind="stable")
            ss = servers[order]
            starts = np.empty(len(ss), dtype=bool)
            starts[0] = True
            starts[1:] = ss[1:] != ss[:-1]
            seg_start = np.flatnonzero(starts)
            seg_sv = ss[seg_start]
            seg_len = np.diff(np.append(seg_start, len(ss)))
            # 0-based rank of the dealt arrival that fills each server.
            rank = slot_limit - busy[seg_sv] - 1
            ok = (rank >= 0) & (rank < seg_len)
            fill_idx = order[seg_start[ok] + rank[ok]]
            t_fill[seg_sv[ok]] = t_run[fill_idx]
        t_bad = float(np.maximum(t_fill, t_comp).min())
        return None if t_bad == np.inf else t_bad

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
            plant.records.add_completed(tick_index, completed)
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
            queue=float(core.queue_depth()),
            # Event mode queues saturated work rather than shedding it.
            shed=0.0,
        )

    elapsed = _time.perf_counter() - start
    obs = get_registry()
    if obs.enabled:
        obs.count("dcsim.events", core.events)
        obs.count(f"dcsim.engine.{config.engine}")
        bands = getattr(core, "forecast_bands", 0)
        if bands:
            obs.count("dcsim.engine.forecast_bands", bands)
            obs.count(
                "dcsim.engine.forecast_band_ticks", core.forecast_band_ticks
            )
        obs.record_max("dcsim.queue_high_water", core.queue_high_water)
        if elapsed > 0:
            obs.record("dcsim.events_per_sec", core.events / elapsed)
    return plant.finish(n_servers * sim.power_model.wall_power_w(0.0))
