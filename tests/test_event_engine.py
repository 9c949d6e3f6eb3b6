"""Equivalence and property tests for the event engines.

The batched engine's contract is *bit-identity*: for any workload,
policy, balancer, and fault schedule, it must produce byte-identical
result traces and final enthalpies to the per-event reference loop.
These tests drive both engines over hypothesis-generated scenarios and
hand-built arrivals at exact ties and tick edges, check the FIFO queue of
saturated jobs against a deque, and bound the memory a batched run holds.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.dcsim.event_engine as ee
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.loadbalancer import LeastLoaded, RoundRobin
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import identical_results
from repro.faults.schedule import Fault, FaultSchedule
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.server.characterization import characterize_platform
from repro.server.configs import one_u_commodity
from repro.workload.jobs import (
    DEFAULT_JOB_CLASSES,
    ArrivalStream,
    cached_arrival_stream,
)
from repro.workload.trace import LoadTrace
from tests.test_workload_jobs import traced_peak

SPEC = one_u_commodity()
CHARACTERIZATION = characterize_platform(SPEC)
MATERIAL = commercial_paraffin_with_melting_point(43.0)


def _trace(levels, duration_s):
    n = len(levels)
    times = np.linspace(0.0, duration_s, n)
    return LoadTrace(times, np.asarray(levels, dtype=float))


def _stream(times, services):
    return ArrivalStream(
        times_s=np.array(times, dtype=np.float64),
        service_s=np.array(services, dtype=np.float64),
        class_index=np.zeros(len(times), dtype=np.int64),
        job_classes=DEFAULT_JOB_CLASSES[:1],
    )


def _run(engine, *, levels, duration_s, servers, seed, balancer, schedule,
         slots=8, arrivals=None):
    simulator = DatacenterSimulator(
        CHARACTERIZATION,
        SPEC.power_model,
        MATERIAL,
        _trace(levels, duration_s),
        topology=ClusterTopology(server_count=servers),
        load_balancer={"rr": RoundRobin, "ll": LeastLoaded}[balancer](),
        config=SimulationConfig(mode="event", wax_enabled=True, seed=seed,
                                slots_per_server=slots, engine=engine),
        fault_injector=(
            FaultInjector(schedule) if schedule is not None else None
        ),
        arrivals=arrivals,
    )
    result = simulator.run()
    return result, np.array(
        simulator.final_state.specific_enthalpy_j_per_kg, copy=True
    )


def _assert_engines_agree(**kwargs):
    batched, enthalpy_b = _run("batched", **kwargs)
    reference, enthalpy_r = _run("reference", **kwargs)
    assert identical_results(batched, reference)
    assert np.array_equal(enthalpy_b, enthalpy_r)


class TestEngineEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        data=st.data(),
        servers=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=4),
        balancer=st.sampled_from(["rr", "ll"]),
        outage=st.booleans(),
    )
    def test_bit_identical_traces(self, data, servers, seed, balancer, outage):
        levels = data.draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=2,
                max_size=5,
            )
        )
        schedule = None
        if outage:
            schedule = FaultSchedule(
                faults=(
                    Fault(
                        kind="server_outage",
                        start_s=600.0,
                        end_s=2400.0,
                        magnitude=0.5,
                    ),
                    Fault(
                        kind="power_cap",
                        start_s=1200.0,
                        end_s=3000.0,
                        magnitude=0.4,
                    ),
                ),
                name="equiv",
            )
        _assert_engines_agree(
            levels=levels,
            duration_s=3600.0,
            servers=servers,
            seed=seed,
            balancer=balancer,
            schedule=schedule,
        )

    def test_saturating_burst_queues_identically(self):
        # A burst over capacity exercises the FIFO queue and the
        # bulk-queue stretch.
        _assert_engines_agree(
            levels=[0.2, 1.0, 1.0, 0.1],
            duration_s=7200.0,
            servers=3,
            seed=1,
            balancer="rr",
            schedule=None,
        )

    def test_default_gates_also_agree(self):
        # A larger cluster through a load ramp.
        _assert_engines_agree(
            levels=[0.3, 0.8, 0.5],
            duration_s=7200.0,
            servers=8,
            seed=2,
            balancer="rr",
            schedule=None,
        )

    def test_exact_ties_at_the_bulk_queue_cut(self):
        # One slot on a nominal clock: (11, 1) and (12, 2) arrive while
        # the server is full and queue in bulk up to the completion at
        # 15.0; the arrival at 15.0 ties that completion (completions
        # win), and the one at 60.0 sits on the first tick's boundary.
        times, services = zip(
            (10.0, 5.0), (11.0, 1.0), (12.0, 2.0), (15.0, 3.0),
            (60.0, 4.0), (61.0, 1.0),
        )
        arrivals = _stream(times, services)
        batched, reference = [
            DatacenterSimulator(
                CHARACTERIZATION,
                SPEC.power_model,
                MATERIAL,
                _trace([0.5, 0.5], 300.0),
                topology=ClusterTopology(server_count=1),
                config=SimulationConfig(
                    mode="event", slots_per_server=1, engine=engine
                ),
                arrivals=arrivals,
            ).run()
            for engine in ("batched", "reference")
        ]
        assert identical_results(batched, reference)
        assert np.all(
            batched.frequency_ghz == SPEC.power_model.nominal_frequency_ghz
        )
        # The first tick completes 5 + 1 + 2 + 3 s of work, the second
        # 4 + 1 s.
        assert batched.completed_work_s[:2].tolist() == [11.0, 5.0]

    def test_least_loaded_always_scalar_but_identical(self):
        _assert_engines_agree(
            levels=[0.4, 0.9, 0.3],
            duration_s=3600.0,
            servers=5,
            seed=3,
            balancer="ll",
            schedule=None,
        )


#: The default tick length; a tick ``k`` (from 1) ends at ``k * TICK_S``.
TICK_S = 60.0

#: One slot, held from t=0 past the run's end: every later arrival of a
#: tick queues in one bulk stretch cut at the tick end, including the one
#: an ulp below it; the arrival exactly on the first tick's end opens the
#: second tick's stretch.
SATURATED = (
    3,
    [0.0, 10.0, 20.0, math.nextafter(TICK_S, 0.0), TICK_S, 61.0,
     math.nextafter(2 * TICK_S, 0.0)],
    [4 * TICK_S, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
)


@st.composite
def tick_edge_arrivals(draw):
    """(ticks, times, services) of arrivals crowding the tick edges.

    Each tick draws up to six times (often none, which leaves it empty)
    from its start, which is the previous tick's end, an ulp above it, an
    ulp below its own end, and its interior. Some arrivals may sit on the
    last tick's end, which no tick processes. Services include 0 and
    whole fractions of a tick, so completions can land on tick ends too.
    """
    ticks = draw(st.integers(2, 5))
    times = []
    for k in range(ticks):
        start, end = k * TICK_S, (k + 1) * TICK_S
        edge = st.sampled_from(
            [start, math.nextafter(start, math.inf), math.nextafter(end, 0.0)]
        )
        inside = st.floats(start, end, exclude_max=True)
        times += sorted(draw(st.lists(st.one_of(edge, inside), max_size=6)))
    times += [ticks * TICK_S] * draw(st.integers(0, 2))
    services = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, TICK_S / 2, TICK_S, 3 * TICK_S]),
                st.floats(0.5, 3 * TICK_S),
            ),
            min_size=len(times),
            max_size=len(times),
        )
    )
    return ticks, times, services


class TestTickEdges:
    """The batched core reads each tick's arrivals as a slice ending at
    the first time not before the tick end; the reference core reads the
    whole run. They must agree wherever arrivals meet a tick's edges."""

    @settings(max_examples=30, deadline=None)
    @given(
        arrivals=tick_edge_arrivals(),
        servers=st.integers(1, 3),
        slots=st.integers(1, 2),
        balancer=st.sampled_from(["rr", "ll"]),
    )
    @example(arrivals=SATURATED, servers=1, slots=1, balancer="rr")
    def test_engines_agree_at_tick_edges(self, arrivals, servers, slots,
                                         balancer):
        ticks, times, services = arrivals
        _assert_engines_agree(
            levels=[0.5, 0.5],
            duration_s=ticks * TICK_S,
            servers=servers,
            seed=0,
            balancer=balancer,
            schedule=None,
            slots=slots,
            arrivals=_stream(times, services),
        )

    def test_saturated_tick_queues_up_to_its_end(self):
        ticks, times, services = SATURATED
        result, _ = _run(
            "batched",
            levels=[0.5, 0.5],
            duration_s=ticks * TICK_S,
            servers=1,
            seed=0,
            balancer="rr",
            schedule=None,
            slots=1,
            arrivals=_stream(times, services),
        )
        # 10, 20 and 60 - ulp queue in the first tick; 60, 61 and
        # 120 - ulp in the second.
        assert result.queue_length.tolist() == [3.0, 6.0, 6.0]


class TestEngineMemory:
    # Slow-marked: tracemalloc makes the 87k-event run take about 2 s.
    @pytest.mark.slow
    def test_batched_run_holds_one_tick_of_arrivals(self):
        # With the stream memoized, a batched run converts only each
        # tick's arrivals to Python floats (the reference core still
        # mirrors the whole run as its oracle).
        from repro.units import hours
        from repro.workload.synthetic import diurnal_trace

        trace = diurnal_trace(duration_s=hours(6.0))
        stream = cached_arrival_stream(
            trace, server_count=128, slots_per_server=8, seed=0, cache=False
        )
        simulator = DatacenterSimulator(
            CHARACTERIZATION,
            SPEC.power_model,
            MATERIAL,
            trace,
            topology=ClusterTopology(server_count=128),
            config=SimulationConfig(mode="event", engine="batched", seed=0),
        )
        _, peak = traced_peak(simulator.run)
        assert len(stream) == 43_499
        assert peak / len(stream) < 40


class TestEngineKnob:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(mode="event", engine="warp")

    def test_counts_engine_choice(self):
        from repro.obs import get_registry

        obs = get_registry()
        was_enabled = obs.enabled
        obs.enable()
        obs.reset()
        try:
            _run(
                "reference",
                levels=[0.3, 0.3],
                duration_s=600.0,
                servers=2,
                seed=0,
                balancer="rr",
                schedule=None,
            )
            counters = obs.snapshot().counters
            assert counters["dcsim.engine.reference"] == 1
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()


class TestQueueCompaction:
    def test_compaction_does_not_change_behaviour(self, monkeypatch):
        # Force compaction after every few consumed entries on one arm;
        # the runs must stay bit-identical.
        kwargs = dict(
            levels=[0.2, 1.0, 1.0, 0.2],
            duration_s=7200.0,
            servers=2,
            seed=4,
            balancer="rr",
            schedule=None,
        )
        eager, enthalpy_e = None, None
        monkeypatch.setattr(ee, "QUEUE_COMPACT_THRESHOLD", 2)
        eager, enthalpy_e = _run("batched", **kwargs)
        monkeypatch.setattr(ee, "QUEUE_COMPACT_THRESHOLD", 1 << 30)
        lazy, enthalpy_l = _run("batched", **kwargs)
        assert identical_results(eager, lazy)
        assert np.array_equal(enthalpy_e, enthalpy_l)

    def test_consumed_prefix_is_compacted(self, monkeypatch):
        monkeypatch.setattr(ee, "QUEUE_COMPACT_THRESHOLD", 4)
        # Saturate a tiny cluster so the FIFO queue builds a backlog,
        # then verify the consumed prefix never grows past the threshold.
        result, _ = _run(
            "batched",
            levels=[1.0, 1.0, 0.05],
            duration_s=7200.0,
            servers=2,
            seed=5,
            balancer="rr",
            schedule=None,
        )
        assert result.queue_length.max() > 0

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e3),
                st.none(),
            ),
            max_size=200,
        ),
        threshold=st.integers(min_value=1, max_value=16),
    )
    def test_fifo_accounting_matches_deque_oracle(self, ops, threshold):
        # The compaction audit's pin: drive the list+head FIFO through
        # the exact append/consume/compact protocol the event loops use
        # (a float op = append, None = consume) against a plain deque.
        # Accounting must agree op for op, and the consumed prefix must
        # stay bounded by the compaction rule.
        saved = ee.QUEUE_COMPACT_THRESHOLD
        ee.QUEUE_COMPACT_THRESHOLD = threshold
        try:
            core = ee._CoreBase(
                np.empty(0), np.empty(0), 2, RoundRobin()
            )
            oracle = deque()
            high_water = 0
            for op in ops:
                if op is not None:
                    core.queue.append(op)
                    core._note_queue_depth()
                    oracle.append(op)
                    high_water = max(high_water, len(oracle))
                elif oracle:
                    assert core.queue[core.queue_head] == oracle.popleft()
                    core.queue_head += 1
                    core._compact_queue()
                assert core.queue_depth() == len(oracle)
                assert list(core.queue[core.queue_head :]) == list(oracle)
                # Post-compaction invariant: the consumed prefix is below
                # the threshold, or still a minority of the list.
                assert (
                    core.queue_head < ee.QUEUE_COMPACT_THRESHOLD
                    or core.queue_head * 2 < len(core.queue)
                )
            assert core.queue_high_water == high_water
        finally:
            ee.QUEUE_COMPACT_THRESHOLD = saved
