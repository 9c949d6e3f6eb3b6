"""Tests for job classes and arrival generation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.jobs import (
    DEFAULT_JOB_CLASSES,
    ArrivalStream,
    JobClass,
    arrival_stream,
    coerce_arrival_stream,
    generate_arrivals,
)
from repro.workload.trace import LoadTrace


def flat_trace(level=0.5, duration=24 * 3600.0):
    times = np.array([0.0, duration])
    return LoadTrace(times, np.array([level, level + 1e-9]))


def oracle_columns(
    trace,
    server_count,
    slots_per_server=1,
    job_classes=DEFAULT_JOB_CLASSES,
    seed=7,
    deterministic_service=False,
):
    """Reference Ogata thinning with per-candidate NumPy calls.

    ``rng.choice`` for the class, a scalar ``np.interp`` for the trace
    and ``rng.uniform`` for the accept test: the loop
    :func:`arrival_stream` must reproduce bit for bit. Returns the
    (time, service, class position) columns.
    """
    weights = np.array([jc.weight for jc in job_classes], dtype=float)
    probabilities = weights / weights.sum()
    mean_service = float(
        np.sum(probabilities * [jc.service_time_s for jc in job_classes])
    )
    capacity = server_count * slots_per_server
    peak_rate = trace.peak * capacity / mean_service
    rng = np.random.default_rng(seed)
    times, services, classes = [], [], []
    time_now = 0.0
    horizon = trace.duration_s
    while True:
        time_now += rng.exponential(1.0 / peak_rate)
        if time_now >= horizon:
            break
        rate = float(trace.value_at(time_now)) * capacity / mean_service
        if rng.uniform() * peak_rate > rate:
            continue
        index = rng.choice(len(job_classes), p=probabilities)
        job_class = job_classes[index]
        if deterministic_service:
            service = job_class.service_time_s
        else:
            service = float(rng.exponential(job_class.service_time_s))
        times.append(float(time_now))
        services.append(service)
        classes.append(index)
    return (
        np.array(times, dtype=np.float64),
        np.array(services, dtype=np.float64),
        np.array(classes, dtype=np.int64),
    )


def assert_matches_oracle(stream, trace, server_count, slots, classes, seed, fixed):
    times, services, indices = oracle_columns(
        trace, server_count, slots, classes, seed, fixed
    )
    assert np.array_equal(stream.times_s, times)
    assert np.array_equal(stream.service_s, services)
    assert np.array_equal(stream.class_index, indices)
    assert stream.class_index.dtype == np.int64


@st.composite
def thinning_traces(draw):
    """Traces of 2-40 knots mixing ramps, flat runs and near-steps."""
    n = draw(st.integers(2, 40))
    gaps = draw(
        st.lists(
            st.one_of(
                st.floats(1e-3, 1.0),  # a step: the value jumps in a blink
                st.floats(1.0, 400.0),
            ),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    levels = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.95, 1.0]), st.floats(0.0, 1.2)
    )
    values = [draw(levels)]
    for _ in range(n - 1):
        # Repeating the previous value makes a flat segment.
        values.append(values[-1] if draw(st.booleans()) else draw(levels))
    if max(values) <= 0.0:
        values[draw(st.integers(0, n - 1))] = draw(st.floats(0.05, 1.0))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return LoadTrace(times, np.array(values))


@st.composite
def class_mixes(draw):
    """1-4 distinct job classes, zero weights allowed (not all zero)."""
    n = draw(st.integers(1, 4))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 5.0)), min_size=n, max_size=n
        )
    )
    if sum(weights) <= 0.0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    return tuple(
        JobClass(
            name=f"class-{i}",
            service_time_s=draw(st.floats(30.0, 900.0)),
            weight=weight,
        )
        for i, weight in enumerate(weights)
    )


class TestJobClass:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            JobClass(name="bad", service_time_s=0.0)
        with pytest.raises(WorkloadError):
            JobClass(name="bad", service_time_s=10.0, weight=-1.0)

    @pytest.mark.parametrize("service", [math.nan, math.inf, -math.inf])
    def test_non_finite_service_time_rejected(self, service):
        # A NaN service time used to pass (NaN <= 0 is false) and stall the
        # thinning clock at NaN forever.
        with pytest.raises(WorkloadError, match="finite"):
            JobClass(name="bad", service_time_s=service)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(WorkloadError, match="finite"):
            JobClass(name="bad", service_time_s=10.0, weight=weight)

    def test_defaults_mirror_paper_workloads(self):
        names = {jc.name for jc in DEFAULT_JOB_CLASSES}
        assert names == {"search", "orkut", "mapreduce"}


class TestArrivalGeneration:
    def test_rate_matches_offered_load(self):
        # Offered load 0.5 on 100 servers with one slot each: expected
        # busy work per unit time is 50 slot-seconds per second.
        trace = flat_trace(0.5)
        arrivals = generate_arrivals(
            trace, server_count=100, slots_per_server=1, seed=3
        )
        total_work = sum(a.service_time_s for a in arrivals)
        expected = 0.5 * 100 * trace.duration_s
        assert total_work == pytest.approx(expected, rel=0.05)

    def test_arrivals_sorted_and_in_horizon(self):
        trace = flat_trace(0.5)
        arrivals = generate_arrivals(trace, server_count=50, seed=4)
        times = [a.time_s for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < trace.duration_s for t in times)

    def test_deterministic_given_seed(self):
        trace = flat_trace(0.4)
        a = generate_arrivals(trace, server_count=20, seed=9)
        b = generate_arrivals(trace, server_count=20, seed=9)
        assert [x.time_s for x in a] == [x.time_s for x in b]

    def test_deterministic_service_option(self):
        trace = flat_trace(0.4)
        arrivals = generate_arrivals(
            trace, server_count=20, seed=9, deterministic_service=True
        )
        by_class = {a.job_class.name for a in arrivals}
        for arrival in arrivals:
            assert arrival.service_time_s == arrival.job_class.service_time_s
        assert by_class  # at least one class sampled

    def test_class_mix_respects_weights(self):
        trace = flat_trace(0.8)
        arrivals = generate_arrivals(trace, server_count=200, seed=11)
        counts = {name: 0 for name in ("search", "orkut", "mapreduce")}
        for arrival in arrivals:
            counts[arrival.job_class.name] += 1
        total = sum(counts.values())
        assert counts["search"] / total == pytest.approx(0.5, abs=0.05)
        assert counts["orkut"] / total == pytest.approx(0.3, abs=0.05)

    def test_time_varying_rate_tracks_trace(self):
        times = np.array([0.0, 43200.0, 43200.0 + 1.0, 86400.0])
        values = np.array([0.9, 0.9, 0.1, 0.1])
        trace = LoadTrace(times, values)
        arrivals = generate_arrivals(trace, server_count=100, seed=5)
        first_half = sum(1 for a in arrivals if a.time_s < 43200.0)
        second_half = len(arrivals) - first_half
        assert first_half > 5 * second_half

    def test_invalid_inputs_rejected(self):
        trace = flat_trace(0.5)
        with pytest.raises(WorkloadError):
            generate_arrivals(trace, server_count=0)
        with pytest.raises(WorkloadError):
            generate_arrivals(trace, server_count=10, slots_per_server=0)
        with pytest.raises(WorkloadError):
            generate_arrivals(trace, server_count=10, job_classes=())

    def test_zero_trace_rejected(self):
        times = np.array([0.0, 100.0])
        trace = LoadTrace(times, np.array([0.0, 0.0]))
        with pytest.raises(WorkloadError):
            generate_arrivals(trace, server_count=10)


class TestColumnGenerator:
    """The column loop against the per-candidate NumPy oracle above."""

    @settings(deadline=None)
    @given(
        trace=thinning_traces(),
        job_classes=class_mixes(),
        server_count=st.integers(1, 3),
        slots=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.booleans(),
    )
    @example(
        trace=flat_trace(0.5, duration=3600.0),
        job_classes=DEFAULT_JOB_CLASSES,
        server_count=3,
        slots=3,
        seed=0,
        fixed=False,
    )
    def test_columns_match_oracle(
        self, trace, job_classes, server_count, slots, seed, fixed
    ):
        stream = arrival_stream(
            trace,
            server_count,
            slots_per_server=slots,
            job_classes=job_classes,
            seed=seed,
            deterministic_service=fixed,
        )
        assert_matches_oracle(
            stream, trace, server_count, slots, job_classes, seed, fixed
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidate_on_a_knot(self, seed):
        """A candidate exactly on a knot reads that knot's value, as
        ``np.interp`` does, not the end of the previous segment."""
        server_count, slots = 4, 2
        mean_service = float(
            sum(jc.weight * jc.service_time_s for jc in DEFAULT_JOB_CLASSES)
            / sum(jc.weight for jc in DEFAULT_JOB_CLASSES)
        )
        base = LoadTrace(
            np.array([0.0, 400.0, 3600.0]), np.array([0.2, 0.9, 0.3])
        )
        peak_rate = base.peak * server_count * slots / mean_service
        first = float(np.random.default_rng(seed).exponential(1.0 / peak_rate))
        assert 0.0 < first < 400.0
        # The added knot is below the peak, so peak_rate (and with it the
        # first candidate) is unchanged, and the candidate lands on it.
        times = np.array([0.0, first, 400.0, 3600.0])
        trace = LoadTrace(times, np.array([0.2, 0.7, 0.9, 0.3]))
        stream = arrival_stream(
            trace, server_count, slots_per_server=slots, seed=seed
        )
        assert_matches_oracle(
            stream, trace, server_count, slots, DEFAULT_JOB_CLASSES, seed, False
        )

    def test_generate_arrivals_materializes_the_stream(self):
        trace = flat_trace(0.4, duration=3600.0)
        stream = arrival_stream(trace, server_count=8, seed=3)
        arrivals = generate_arrivals(trace, server_count=8, seed=3)
        assert arrivals == stream.to_arrivals()
        assert [a.job_class for a in arrivals] == [
            DEFAULT_JOB_CLASSES[i] for i in stream.class_index
        ]


def _day_trace():
    from repro.units import hours
    from repro.workload.synthetic import diurnal_trace

    return diurnal_trace(duration_s=hours(2.0))


def _day_stream():
    """The arrivals of a 2 h diurnal day on 16 servers with 8 slots."""
    return arrival_stream(
        _day_trace(), server_count=16, slots_per_server=8, seed=3
    )


def _simulate_day(engine, arrivals, characterization, spec):
    """Run that day on an event engine with ``arrivals`` supplied."""
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point

    return DatacenterSimulator(
        characterization,
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        _day_trace(),
        topology=ClusterTopology(server_count=16),
        config=SimulationConfig(mode="event", engine=engine, seed=3),
        arrivals=arrivals,
    ).run()


class TestArrivalOrder:
    """User-supplied arrivals must come in time order."""

    @staticmethod
    def _reversed_day():
        return _day_stream().to_arrivals()[::-1]

    def test_list_out_of_order_rejected(self):
        arrivals = self._reversed_day()
        with pytest.raises(WorkloadError, match="arrival 1 at"):
            coerce_arrival_stream(arrivals)

    def test_stream_out_of_order_rejected(self):
        stream = ArrivalStream(
            times_s=np.array([0.0, 5.0, 5.0, 4.0]),
            service_s=np.ones(4),
            class_index=np.zeros(4, dtype=np.int64),
            job_classes=DEFAULT_JOB_CLASSES[:1],
        )
        with pytest.raises(WorkloadError, match="arrival 3 at"):
            coerce_arrival_stream(stream)

    def test_ties_accepted(self):
        # Zero is a valid time and a valid service.
        stream = ArrivalStream(
            times_s=np.array([0.0, 5.0, 5.0]),
            service_s=np.array([1.0, 0.0, 1.0]),
            class_index=np.zeros(3, dtype=np.int64),
            job_classes=DEFAULT_JOB_CLASSES[:1],
        )
        assert coerce_arrival_stream(stream) is stream

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_both_event_engines_reject_reversed_arrivals(
        self, engine, one_u_characterization, one_u_spec
    ):
        # The reference engine used to return a near-zero throughput and
        # the batched engine a broadcast error.
        arrivals = self._reversed_day()
        with pytest.raises(WorkloadError, match="time order"):
            _simulate_day(engine, arrivals, one_u_characterization, one_u_spec)


class TestArrivalValues:
    """User-supplied times and services must be finite and non-negative.

    NaN cannot be ordered, either among arrivals or in the completion
    heap, and a negative service completes before it starts.
    """

    @staticmethod
    def _with(stream, column, index, value):
        columns = {
            "times_s": stream.times_s.copy(),
            "service_s": stream.service_s.copy(),
        }
        columns[column][index] = value
        return ArrivalStream(
            class_index=stream.class_index,
            job_classes=stream.job_classes,
            **columns,
        )

    # Each bad time keeps the column in order, so only the value check
    # can catch it: a NaN compares false with its neighbours, -1 s comes
    # first and infinity last.
    CASES = [
        ("times_s", 5, math.nan, "time nan"),
        ("times_s", 0, -1.0, "time -1.0"),
        ("times_s", -1, math.inf, "time inf"),
        ("service_s", 5, math.nan, "service nan"),
        ("service_s", 5, -1.0, "service -1.0"),
        ("service_s", 5, math.inf, "service inf"),
    ]

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    @pytest.mark.parametrize(
        "column, index, value, named", CASES, ids=[c[3] for c in CASES]
    )
    def test_both_event_engines_reject_bad_values(
        self, engine, column, index, value, named,
        one_u_characterization, one_u_spec,
    ):
        # Before the check, a NaN time failed later with a misleading
        # ConfigurationError about utilization, and the other cases ran
        # to the end without an error.
        stream = _day_stream()
        index %= len(stream)
        arrivals = self._with(stream, column, index, value)
        with pytest.raises(WorkloadError, match=f"arrival {index} has {named}:"):
            _simulate_day(engine, arrivals, one_u_characterization, one_u_spec)

    def test_first_bad_index_named_for_lists_and_streams(self):
        stream = ArrivalStream(
            times_s=np.array([0.0, 1.0, 2.0, 3.0]),
            service_s=np.array([1.0, 1.0, -2.0, math.nan]),
            class_index=np.zeros(4, dtype=np.int64),
            job_classes=DEFAULT_JOB_CLASSES[:1],
        )
        for arrivals in (stream, stream.to_arrivals()):
            with pytest.raises(WorkloadError, match="arrival 2 has service -2.0:"):
                coerce_arrival_stream(arrivals)


def traced_peak(call):
    """``call()`` and the peak bytes it held above what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before


class TestGenerationMemory:
    def test_columns_cost_about_24_bytes_per_arrival(self):
        # The loop appends to typed buffers and the columns view them, so
        # no list of Python floats (about 100 bytes an arrival, counting
        # the final copy) is alive at the peak.
        from repro.units import hours
        from repro.workload.synthetic import diurnal_trace

        trace = diurnal_trace(duration_s=hours(6.0))
        stream, peak = traced_peak(
            lambda: arrival_stream(
                trace, server_count=128, slots_per_server=8, seed=0
            )
        )
        assert len(stream) == 43_499
        assert peak / len(stream) < 60
        for column in (stream.times_s, stream.service_s, stream.class_index):
            assert column.itemsize == 8


class TestCachedArrivalStream:
    @pytest.fixture(autouse=True)
    def _fresh_state(self):
        from repro.obs import get_registry
        from repro.workload.jobs import clear_arrival_memo

        obs = get_registry()
        was_enabled = obs.enabled
        obs.enable()
        obs.reset()
        clear_arrival_memo()
        yield
        clear_arrival_memo()
        obs.reset()
        if not was_enabled:
            obs.disable()

    @staticmethod
    def _counters():
        from repro.obs import get_registry

        return get_registry().snapshot().counters

    def test_matches_direct_generation(self):
        from repro.workload.jobs import cached_arrival_stream

        trace = flat_trace(0.4, duration=3600.0)
        stream = cached_arrival_stream(trace, server_count=8, seed=3, cache=False)
        direct = generate_arrivals(trace, server_count=8, seed=3)
        assert len(stream) == len(direct)
        assert np.array_equal(stream.times_s, [a.time_s for a in direct])
        assert np.array_equal(stream.service_s, [a.service_time_s for a in direct])

    def test_second_call_hits_memo_and_skips_generation(self, monkeypatch):
        import repro.workload.jobs as jobs

        trace = flat_trace(0.4, duration=3600.0)
        first = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=False)
        counters = self._counters()
        assert counters["dcsim.arrival_cache.miss"] == 1
        assert "dcsim.arrival_cache.hit" not in counters

        def boom(*args, **kwargs):
            raise AssertionError("arrival_stream must not run on a hit")

        monkeypatch.setattr(jobs, "arrival_stream", boom)
        second = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=False)
        assert second is first
        counters = self._counters()
        assert counters["dcsim.arrival_cache.hit"] == 1
        assert counters["dcsim.arrival_cache.memo_hit"] == 1
        assert counters["dcsim.arrival_cache.miss"] == 1

    def test_disk_cache_survives_memo_clear(self, tmp_path, monkeypatch):
        import repro.workload.jobs as jobs
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path, salt="test")
        trace = flat_trace(0.4, duration=3600.0)
        first = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=cache)
        assert self._counters()["dcsim.arrival_cache.store"] == 1
        jobs.clear_arrival_memo()

        def boom(*args, **kwargs):
            raise AssertionError("arrival_stream must not run on a disk hit")

        monkeypatch.setattr(jobs, "arrival_stream", boom)
        second = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=cache)
        assert second is not first
        assert np.array_equal(second.times_s, first.times_s)
        assert np.array_equal(second.service_s, first.service_s)
        assert np.array_equal(second.class_index, first.class_index)
        counters = self._counters()
        assert counters["dcsim.arrival_cache.hit"] == 1
        assert "dcsim.arrival_cache.memo_hit" not in counters

    @staticmethod
    def _column_bytes(stream):
        return [
            column.tobytes()
            for column in (stream.times_s, stream.service_s, stream.class_index)
        ]

    @pytest.mark.parametrize("disk", [False, True], ids=["generated", "disk"])
    def test_memoized_columns_are_read_only(self, disk, tmp_path):
        import repro.workload.jobs as jobs
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path, salt="test") if disk else False
        trace = flat_trace(0.4, duration=3600.0)
        stream = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=cache)
        if disk:
            jobs.clear_arrival_memo()
            stream = jobs.cached_arrival_stream(
                trace, server_count=8, seed=3, cache=cache
            )
            assert self._counters()["dcsim.arrival_cache.hit"] == 1
        original = self._column_bytes(stream)
        for column in (stream.times_s, stream.service_s, stream.class_index):
            with pytest.raises(ValueError, match="read-only"):
                column[5] = 10**9
        again = jobs.cached_arrival_stream(trace, server_count=8, seed=3, cache=cache)
        assert again is stream
        assert self._column_bytes(again) == original

    def test_key_distinguishes_cluster_shape_and_seed(self):
        from repro.workload.jobs import arrival_stream_spec

        trace = flat_trace(0.4, duration=3600.0)
        base = arrival_stream_spec(trace, 8, 1, DEFAULT_JOB_CLASSES, 3, False)
        assert base != arrival_stream_spec(trace, 9, 1, DEFAULT_JOB_CLASSES, 3, False)
        assert base != arrival_stream_spec(trace, 8, 2, DEFAULT_JOB_CLASSES, 3, False)
        assert base != arrival_stream_spec(trace, 8, 1, DEFAULT_JOB_CLASSES, 4, False)
        assert base != arrival_stream_spec(trace, 8, 1, DEFAULT_JOB_CLASSES, 3, True)
        assert base == arrival_stream_spec(trace, 8, 1, DEFAULT_JOB_CLASSES, 3, False)

    def test_memo_is_lru_bounded(self):
        import repro.workload.jobs as jobs

        trace = flat_trace(0.4, duration=600.0)
        for seed in range(jobs._STREAM_MEMO_LIMIT + 3):
            jobs.cached_arrival_stream(trace, server_count=4, seed=seed, cache=False)
        assert len(jobs._STREAM_MEMO) == jobs._STREAM_MEMO_LIMIT
