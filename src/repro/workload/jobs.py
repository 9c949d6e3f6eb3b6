"""Job classes and arrival generation for the event-driven simulator.

DCSim "models job arrival, load balancing, and work completion for the
input job distribution traces" (paper Section 4.2). This module converts a
:class:`~repro.workload.trace.LoadTrace` of offered load into a concrete
stream of job arrivals: a non-homogeneous Poisson process whose rate tracks
the trace, thinned per job class by the class mix.

Offered load ``u`` on a cluster of ``n`` servers, each able to run
``slots`` jobs with mean service time ``s``, corresponds to an arrival
rate ``lambda(t) = u(t) * n * slots / s``.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.obs import get_registry
from repro.workload.trace import LoadTrace


@dataclass(frozen=True)
class JobClass:
    """A class of work with its service demand.

    ``service_time_s`` is the mean service time of one job on one slot at
    nominal frequency; ``weight`` is the class's share of arrivals.
    """

    name: str
    service_time_s: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it needs its own test: a NaN
        # service time would stall the thinning clock forever.
        if not math.isfinite(self.service_time_s) or self.service_time_s <= 0:
            raise WorkloadError(
                f"job class {self.name!r}: service time must be positive and finite"
            )
        if not math.isfinite(self.weight) or self.weight < 0:
            raise WorkloadError(
                f"job class {self.name!r}: weight must be non-negative and finite"
            )


#: Job classes mirroring the paper's three workloads. Interactive search
#: requests are short; social-network page loads a bit longer; MapReduce
#: tasks are minutes-long batch units.
DEFAULT_JOB_CLASSES = (
    JobClass(name="search", service_time_s=120.0, weight=0.5),
    JobClass(name="orkut", service_time_s=240.0, weight=0.3),
    JobClass(name="mapreduce", service_time_s=600.0, weight=0.2),
)


@dataclass(frozen=True)
class Arrival:
    """One job arrival: when it lands and how much work it carries."""

    time_s: float
    job_class: JobClass
    service_time_s: float


@dataclass(frozen=True)
class ArrivalStream:
    """A job arrival stream as typed column arrays.

    The array form of ``list[Arrival]`` consumed by the event engine:
    parallel float64/int64 columns of arrival time, service work, and job
    class index into ``job_classes``, 24 bytes per arrival.
    """

    times_s: np.ndarray
    service_s: np.ndarray
    class_index: np.ndarray
    job_classes: tuple[JobClass, ...]

    def __len__(self) -> int:
        return len(self.times_s)

    def to_arrivals(self) -> list[Arrival]:
        """Materialize the stream back into :class:`Arrival` objects."""
        return [
            Arrival(time_s=t, job_class=self.job_classes[c], service_time_s=s)
            for t, s, c in zip(
                self.times_s.tolist(),
                self.service_s.tolist(),
                self.class_index.tolist(),
            )
        ]


def arrival_stream(
    trace: LoadTrace,
    server_count: int,
    slots_per_server: int = 1,
    job_classes: tuple[JobClass, ...] = DEFAULT_JOB_CLASSES,
    seed: int = 7,
    deterministic_service: bool = False,
) -> ArrivalStream:
    """Generate a job arrival stream realizing a load trace.

    Uses Ogata thinning for the non-homogeneous Poisson process: candidate
    arrivals at the trace's peak rate, accepted with probability
    ``lambda(t) / lambda_max``. Class membership is sampled by weight, and
    service times are exponential around the class mean (or exactly the
    mean when ``deterministic_service`` is set, useful for tests).

    The effective per-slot service rate uses the *mix-averaged* service
    time so that offered load matches the trace regardless of the mix.

    The loop runs on Python floats with the random draws and arithmetic of
    ``Generator.choice`` (its one-draw CDF lookup) and ``np.interp`` (its
    formula, on a cursor that only moves forward); see docs/EVENTSIM.md
    for why candidates cannot be drawn in bulk. It appends to typed
    ``array`` buffers, and the columns are zero-copy views of them, so no
    Python float outlives the loop.
    """
    if server_count <= 0:
        raise WorkloadError(f"server count must be positive, got {server_count}")
    if slots_per_server <= 0:
        raise WorkloadError(
            f"slots per server must be positive, got {slots_per_server}"
        )
    if not job_classes:
        raise WorkloadError("need at least one job class")
    weights = np.array([jc.weight for jc in job_classes], dtype=float)
    if weights.sum() <= 0:
        raise WorkloadError("job class weights sum to zero")
    probabilities = weights / weights.sum()
    means = [jc.service_time_s for jc in job_classes]
    mean_service = float(np.sum(probabilities * means))

    capacity = server_count * slots_per_server
    peak_rate = trace.peak * capacity / mean_service
    if peak_rate <= 0:
        raise WorkloadError("trace peak is zero; no arrivals to generate")

    cumulative = probabilities.cumsum()
    cdf = (cumulative / cumulative[-1]).tolist()
    knot_times = trace.times_s.tolist()
    knot_values = trace.values.tolist()
    knot, x1 = 0, -math.inf  # the first candidate places the cursor

    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
    gap = 1.0 / peak_rate
    times, services, classes = array("d"), array("d"), array("q")
    time_now = 0.0
    horizon = trace.duration_s
    while True:
        time_now += exponential(gap)
        if time_now >= horizon:
            break
        if time_now >= x1:
            # The last knot is the horizon, so the cursor stays in range.
            while knot_times[knot + 1] <= time_now:
                knot += 1
            x0, x1 = knot_times[knot], knot_times[knot + 1]
            y0 = knot_values[knot]
            slope = (knot_values[knot + 1] - y0) / (x1 - x0)
        value = y0 if time_now <= x0 else slope * (time_now - x0) + y0
        rate = value * capacity / mean_service
        if uniform() * peak_rate > rate:
            continue
        index = bisect_right(cdf, uniform())
        times.append(time_now)
        classes.append(index)
        mean = means[index]
        services.append(mean if deterministic_service else exponential(mean))
    return ArrivalStream(
        times_s=np.frombuffer(times, dtype=np.float64),
        service_s=np.frombuffer(services, dtype=np.float64),
        class_index=np.frombuffer(classes, dtype=np.int64),
        job_classes=tuple(job_classes),
    )


def generate_arrivals(
    trace: LoadTrace,
    server_count: int,
    slots_per_server: int = 1,
    job_classes: tuple[JobClass, ...] = DEFAULT_JOB_CLASSES,
    seed: int = 7,
    deterministic_service: bool = False,
) -> list[Arrival]:
    """:func:`arrival_stream` materialized as :class:`Arrival` objects."""
    return arrival_stream(
        trace, server_count, slots_per_server, job_classes, seed,
        deterministic_service,
    ).to_arrivals()


def coerce_arrival_stream(arrivals) -> ArrivalStream:
    """Column-array view of a user-supplied arrival list or stream.

    Both event engines consume arrivals in time order and order
    completions by work, so a time or a service that is not finite and
    non-negative (NaN cannot be ordered), or a time that decreases, is
    rejected with :class:`WorkloadError` naming the first bad arrival.
    """
    if not isinstance(arrivals, ArrivalStream):
        arrivals = _arrival_columns(arrivals)
    times = arrivals.times_s
    for column, what in ((times, "time"), (arrivals.service_s, "service")):
        bad = np.flatnonzero(~(np.isfinite(column) & (column >= 0)))
        if bad.size:
            i = int(bad[0])
            raise WorkloadError(
                f"arrival {i} has {what} {float(column[i])}: arrival "
                f"{what}s must be finite and non-negative"
            )
    late = np.flatnonzero(np.diff(times) < 0)
    if late.size:
        i = int(late[0]) + 1
        raise WorkloadError(
            f"arrivals must be in time order: arrival {i} at t={times[i]}s "
            f"precedes arrival {i - 1} at t={times[i - 1]}s"
        )
    return arrivals


def _arrival_columns(arrivals: list[Arrival]) -> ArrivalStream:
    # Equal job classes share the index of their first appearance.
    classes = list(dict.fromkeys(arrival.job_class for arrival in arrivals))
    index = {job_class: i for i, job_class in enumerate(classes)}
    return ArrivalStream(
        times_s=np.array([a.time_s for a in arrivals], dtype=np.float64),
        service_s=np.array([a.service_time_s for a in arrivals], dtype=np.float64),
        class_index=np.array([index[a.job_class] for a in arrivals], dtype=np.int64),
        job_classes=tuple(classes),
    )


# ---------------------------------------------------------------------------
# Cached arrival streams
# ---------------------------------------------------------------------------


def trace_fingerprint(trace: LoadTrace) -> str:
    """SHA-256 over the trace's sample arrays (name-independent)."""
    digest = hashlib.sha256()
    for array in (trace.times_s, trace.values):
        data = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(str(len(data)).encode())
        digest.update(b"|")
        digest.update(data.tobytes())
    return digest.hexdigest()


def arrival_stream_spec(
    trace: LoadTrace,
    server_count: int,
    slots_per_server: int,
    job_classes: tuple[JobClass, ...],
    seed: int,
    deterministic_service: bool,
) -> dict:
    """Content-addressable cache key of one arrival stream."""
    return {
        "schema": "repro.dcsim.arrivals/1",
        "trace": trace_fingerprint(trace),
        "server_count": int(server_count),
        "slots_per_server": int(slots_per_server),
        "job_classes": [
            [jc.name, jc.service_time_s, jc.weight] for jc in job_classes
        ],
        "seed": int(seed),
        "deterministic_service": bool(deterministic_service),
    }


#: In-process memo of recently generated streams (a 263k-job day is ~6 MB,
#: so the memo is kept small and LRU-evicted).
_STREAM_MEMO: OrderedDict[str, ArrivalStream] = OrderedDict()
_STREAM_MEMO_LIMIT = 8


def clear_arrival_memo() -> None:
    """Drop the in-process arrival-stream memo (tests, memory pressure)."""
    _STREAM_MEMO.clear()


def cached_arrival_stream(
    trace: LoadTrace,
    server_count: int,
    slots_per_server: int = 1,
    job_classes: tuple[JobClass, ...] = DEFAULT_JOB_CLASSES,
    seed: int = 7,
    deterministic_service: bool = False,
    cache=None,
) -> ArrivalStream:
    """Memoized :func:`arrival_stream`.

    Generation is deterministic in the key (trace fingerprint, cluster
    shape, seed, job-class mix), so repeated sweep arms reuse the stream
    instead of re-running Ogata thinning. Lookup order: in-process LRU
    memo, then an optional :class:`repro.runner.ResultCache` (``cache``
    accepts anything :func:`repro.runner.resolve_cache` does — by default
    the ``REPRO_CACHE_DIR`` environment toggle). Hits and misses are
    counted under ``dcsim.arrival_cache.*``. Every call with the same key
    shares one stream, so its columns are read-only.
    """
    from repro.runner.cache import MISS, resolve_cache

    obs = get_registry()
    spec = arrival_stream_spec(
        trace, server_count, slots_per_server, job_classes, seed,
        deterministic_service,
    )
    memo_key = repr(sorted(spec.items()))
    memo_hit = _STREAM_MEMO.get(memo_key)
    if memo_hit is not None:
        _STREAM_MEMO.move_to_end(memo_key)
        obs.count("dcsim.arrival_cache.hit")
        obs.count("dcsim.arrival_cache.memo_hit")
        return memo_hit

    disk = resolve_cache(cache)
    if disk is not None:
        payload = disk.get(spec)
        if payload is not MISS:
            stream = ArrivalStream(
                times_s=np.asarray(payload["times_s"], dtype=np.float64),
                service_s=np.asarray(payload["service_s"], dtype=np.float64),
                class_index=np.asarray(payload["class_index"], dtype=np.int64),
                job_classes=tuple(job_classes),
            )
            obs.count("dcsim.arrival_cache.hit")
            _memoize(memo_key, stream)
            return stream

    obs.count("dcsim.arrival_cache.miss")
    stream = arrival_stream(
        trace,
        server_count=server_count,
        slots_per_server=slots_per_server,
        job_classes=job_classes,
        seed=seed,
        deterministic_service=deterministic_service,
    )
    if disk is not None:
        disk.put(
            spec,
            {
                "times_s": stream.times_s,
                "service_s": stream.service_s,
                "class_index": stream.class_index,
            },
        )
        obs.count("dcsim.arrival_cache.store")
    _memoize(memo_key, stream)
    return stream


def _memoize(key: str, stream: ArrivalStream) -> None:
    for column in (stream.times_s, stream.service_s, stream.class_index):
        column.flags.writeable = False
    _STREAM_MEMO[key] = stream
    _STREAM_MEMO.move_to_end(key)
    while len(_STREAM_MEMO) > _STREAM_MEMO_LIMIT:
        _STREAM_MEMO.popitem(last=False)
