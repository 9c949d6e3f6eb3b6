"""Tests for the observability layer (repro.obs)."""

import json
import threading

import pytest

from repro.obs import (
    ObsRegistry,
    TimerStat,
    get_registry,
)
from repro.obs.registry import _NULL_TIMER
from repro.experiments.registry import run_experiment


@pytest.fixture
def registry():
    return ObsRegistry(enabled=True)


@pytest.fixture
def global_obs_enabled():
    """Enable the global registry for one test, restoring state after."""
    obs = get_registry()
    was_enabled = obs.enabled
    obs.enable()
    obs.reset()
    yield obs
    obs.reset()
    if not was_enabled:
        obs.disable()


class TestTimers:
    def test_timer_records_calls_and_totals(self, registry):
        for _ in range(3):
            with registry.timer("work"):
                pass
        stat = registry.snapshot().timers["work"]
        assert stat.calls == 3
        assert stat.total_s >= 0.0
        assert stat.min_s <= stat.max_s
        assert stat.mean_s == pytest.approx(stat.total_s / 3)

    def test_timers_nest_into_slash_paths(self, registry):
        with registry.timer("outer"):
            with registry.timer("inner"):
                pass
            with registry.timer("inner"):
                pass
        report = registry.snapshot()
        assert set(report.timers) == {"outer", "outer/inner"}
        assert report.timers["outer"].calls == 1
        assert report.timers["outer/inner"].calls == 2

    def test_same_name_at_different_depths_is_distinct(self, registry):
        with registry.timer("solve"):
            pass
        with registry.timer("outer"):
            with registry.timer("solve"):
                pass
        report = registry.snapshot()
        assert report.timers["solve"].calls == 1
        assert report.timers["outer/solve"].calls == 1

    def test_wall_time_counts_only_root_timers(self, registry):
        with registry.timer("outer"):
            with registry.timer("inner"):
                pass
        report = registry.snapshot()
        assert report.wall_time_s == pytest.approx(
            report.timers["outer"].total_s
        )

    def test_disabled_timer_is_shared_noop(self):
        registry = ObsRegistry(enabled=False)
        assert registry.timer("anything") is _NULL_TIMER
        with registry.timer("anything"):
            pass
        assert registry.snapshot().is_empty()

    def test_timed_decorator_checks_enablement_per_call(self, registry):
        @registry.timed("decorated")
        def work():
            return 42

        registry.disable()
        assert work() == 42
        assert registry.snapshot().is_empty()

        registry.enable()
        assert work() == 42
        assert registry.snapshot().timers["decorated"].calls == 1

    def test_timed_decorator_defaults_to_qualname(self, registry):
        @registry.timed()
        def named_function():
            return None

        named_function()
        (path,) = registry.snapshot().timers
        assert "named_function" in path

    def test_timer_closes_on_exception(self, registry):
        with pytest.raises(ValueError):
            with registry.timer("failing"):
                raise ValueError("boom")
        assert registry.snapshot().timers["failing"].calls == 1
        # The stack unwound: the next timer is a root again.
        with registry.timer("after"):
            pass
        assert "after" in registry.snapshot().timers


class TestCountersAndValues:
    def test_counters_accumulate(self, registry):
        registry.count("steps")
        registry.count("steps", 9)
        assert registry.snapshot().counters["steps"] == 10

    def test_counters_aggregate_across_threads(self, registry):
        n_threads, per_thread = 8, 2500

        def work():
            for _ in range(per_thread):
                registry.count("shared")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot().counters["shared"] == n_threads * per_thread

    def test_timers_are_per_thread_but_merge_by_path(self, registry):
        def work():
            with registry.timer("threaded"):
                pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot().timers["threaded"].calls == 4

    def test_record_last_write_wins(self, registry):
        registry.record("gauge", 1.0)
        registry.record("gauge", 2.5)
        assert registry.snapshot().values["gauge"] == 2.5

    def test_record_max_keeps_high_water(self, registry):
        registry.record_max("depth", 3)
        registry.record_max("depth", 7)
        registry.record_max("depth", 5)
        assert registry.snapshot().values["depth"] == 7

    def test_disabled_registry_collects_nothing(self):
        registry = ObsRegistry(enabled=False)
        registry.count("steps")
        registry.record("gauge", 1.0)
        registry.record_max("depth", 1.0)
        assert registry.snapshot().is_empty()

    def test_reset_clears_everything(self, registry):
        registry.count("steps")
        with registry.timer("work"):
            pass
        registry.reset()
        assert registry.snapshot().is_empty()


class TestRunReport:
    def test_diff_subtracts_counters_and_timer_calls(self, registry):
        registry.count("steps", 5)
        with registry.timer("work"):
            pass
        before = registry.snapshot()
        registry.count("steps", 2)
        registry.count("fresh", 1)
        with registry.timer("work"):
            pass
        delta = registry.snapshot().diff(before)
        assert delta.counters == {"steps": 2, "fresh": 1}
        assert delta.timers["work"].calls == 1

    def test_collect_scope_isolates_activity(self, registry):
        registry.count("steps", 100)
        with registry.collect() as collection:
            registry.count("steps", 3)
        assert collection.report.counters["steps"] == 3
        assert collection.report.values["collect.wall_time_s"] > 0

    def test_timer_stat_round_trip(self):
        stat = TimerStat(calls=2, total_s=1.5, min_s=0.5, max_s=1.0)
        assert TimerStat(**stat.to_dict()) == stat


class TestExperimentPerf:
    def test_disabled_mode_adds_no_perf_keys(self):
        obs = get_registry()
        was_enabled = obs.enabled
        obs.disable()
        try:
            result = run_experiment("table1", quick=True)
        finally:
            if was_enabled:
                obs.enable()
        assert result.perf == {}

    def test_enabled_experiment_gains_perf_section(self, global_obs_enabled):
        result = run_experiment("table1", quick=True)
        assert result.perf["wall_time_s"] > 0
        assert "experiment.table1" in result.perf["timers"]
        # perf must be JSON-safe for export.
        json.dumps(result.perf)

    def test_solver_counters_flow_into_perf(self, global_obs_enabled):
        from repro.server.chassis import constant_utilization
        from repro.server.configs import one_u_commodity
        from repro.thermal.solver import simulate_transient, simulate_transient_batch
        from repro.units import hours
        from tests.test_thermal_solver import rc_network

        network = one_u_commodity().chassis.build_network(
            constant_utilization(0.5), with_wax=True
        )
        simulate_transient(network, hours(0.1), output_interval_s=60.0)
        report = global_obs_enabled.snapshot()
        assert report.counters["solver.runs"] == 1
        assert report.counters["solver.rk4_steps"] > 0
        assert report.counters["solver.rhs_evals"] == 4 * (
            report.counters["solver.rk4_steps"]
            - report.counters["solver.rk4_fixed_steps"]
        )
        assert "solver.transient" in report.timers

        # Each batch member is an RK4 run of its own, and counts as one.
        global_obs_enabled.reset()
        members = [rc_network(capacity=20.0), rc_network(capacity=200.0)]
        simulate_transient_batch(members, 150.0, output_interval_s=10.0)
        counters = global_obs_enabled.snapshot().counters
        assert counters["solver.runs"] == 2
        assert counters["solver.rk4_steps"] == 30
        assert counters["solver.rhs_evals"] == 4 * (
            counters["solver.rk4_steps"] - counters["solver.rk4_fixed_steps"]
        )

    def test_fixed_steps_are_counted(self, global_obs_enabled):
        """A 1U without wax at a constant load reaches a bit-exact fixed
        point, whose steps only advance the time."""
        from repro.server.chassis import constant_utilization
        from repro.server.configs import one_u_commodity
        from repro.thermal.solver import simulate_transient
        from repro.units import hours

        network = one_u_commodity().chassis.build_network(constant_utilization(0.5))
        simulate_transient(network, hours(6.0), output_interval_s=60.0)
        counters = global_obs_enabled.snapshot().counters
        assert counters["solver.inputs.certified"] == 1
        assert 0 < counters["solver.rk4_fixed_steps"] < counters["solver.rk4_steps"]
        assert counters["solver.rhs_evals"] == 4 * (
            counters["solver.rk4_steps"] - counters["solver.rk4_fixed_steps"]
        )

    def test_simulator_counters_flow_into_perf(self, global_obs_enabled):
        from repro.dcsim.cluster import ClusterTopology
        from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
        from repro.materials.library import (
            commercial_paraffin_with_melting_point,
        )
        from repro.server.characterization import characterize_platform
        from repro.server.configs import one_u_commodity
        from repro.units import hours
        from repro.workload.synthetic import diurnal_trace

        spec = one_u_commodity()
        result = DatacenterSimulator(
            characterize_platform(spec),
            spec.power_model,
            commercial_paraffin_with_melting_point(43.0),
            diurnal_trace(duration_s=hours(2.0)),
            topology=ClusterTopology(server_count=8),
            config=SimulationConfig(mode="event", wax_enabled=True),
        ).run()
        report = global_obs_enabled.snapshot()
        assert report.counters["dcsim.runs"] == 1
        assert report.counters["dcsim.ticks"] == len(result.times_s)
        assert report.counters["dcsim.events"] > 0
        assert report.values["dcsim.ticks_per_sec"] > 0
        assert "dcsim.run" in report.timers


class TestRegistryThreadSafety:
    """The registry's concurrency contract: counter increments from any
    number of threads are exact — no lost updates."""

    def test_threaded_hammer_loses_no_increments(self, registry):
        threads, per_thread = 8, 10_000

        def hammer():
            for _ in range(per_thread):
                registry.count("hot")
                registry.count("hot", 2)
                registry.count("warm")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        counters = registry.snapshot().counters
        assert counters["hot"] == threads * per_thread * 3
        assert counters["warm"] == threads * per_thread
