"""Equivalence and property tests for the fluid-mode stretch engine.

The batched fluid engine's contract is *bit-identity*, exactly as PR 5
held for event mode: for any workload, policy, room coupling, and fault
schedule, it must produce byte-identical result traces and final
enthalpies to the per-tick reference loop. These tests drive both
engines over hypothesis-generated scenarios (random traces × fault
schedules × planners and throttling policies), and pin the stretch
machinery's edges: when the plant may compute one server column, the
policy certificate protocol, the injector's dormancy/boundary queries,
and the stretch/scalar/column observability counters.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.dcsim.fluid_engine as fe
from repro.control import ControlLoop
from repro.control.planners import NoOpPlanner, ScheduledPolicy
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig, _Plant
from repro.dcsim.thermal_coupling import UniformStretchAdvancer
from repro.dcsim.throttling import (
    FaultResponsePolicy,
    NoThermalLimit,
    RoomTemperaturePolicy,
    ThermalLimitPolicy,
)
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import identical_results
from repro.faults.schedule import Fault, FaultSchedule
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.server.characterization import characterize_platform
from repro.server.configs import one_u_commodity
from repro.workload.trace import LoadTrace

SPEC = one_u_commodity()
CHARACTERIZATION = characterize_platform(SPEC)
MATERIAL = commercial_paraffin_with_melting_point(43.0)

TICK_S = 60.0


def _trace(levels, duration_s):
    n = len(levels)
    times = np.linspace(0.0, duration_s, n)
    return LoadTrace(times, np.asarray(levels, dtype=float))


def _room(servers, per_server_w=260.0):
    return RoomModel.sized_for_cluster(
        cooling_capacity_w=per_server_w * servers, server_count=servers
    )


def _policy(planner, room, injector):
    if planner == "plain":
        return None  # simulator default: NoThermalLimit (certified)
    # The throttling policies themselves, without a control loop.
    if planner == "room":
        return RoomTemperaturePolicy(room)
    if planner == "limit":
        return ThermalLimitPolicy(room.cooling_capacity_w)
    if planner == "fault":
        return FaultResponsePolicy(RoomTemperaturePolicy(room), injector)
    if planner == "plain_fault":
        return FaultResponsePolicy(NoThermalLimit(), injector)
    planners = {"noop": NoOpPlanner, "scheduled": ScheduledPolicy}
    return ControlLoop(planners[planner](), room, injector=injector)


def _simulator(
    engine,
    *,
    levels,
    duration_s,
    servers,
    planner,
    schedule,
    with_room,
    offsets=None,
    capacity_per_server_w=260.0,
):
    if schedule is None and planner in ("fault", "plain_fault"):
        # The fault-response policy reads a live injector.
        schedule = FaultSchedule.empty()
    injector = FaultInjector(schedule) if schedule is not None else None
    room = _room(servers, capacity_per_server_w) if with_room else None
    simulator = DatacenterSimulator(
        CHARACTERIZATION,
        SPEC.power_model,
        MATERIAL,
        _trace(levels, duration_s),
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(
            mode="fluid",
            wax_enabled=True,
            tick_interval_s=TICK_S,
            engine=engine,
        ),
        room=room,
        policy=_policy(planner, room, injector),
        fault_injector=injector,
        inlet_offsets_c=offsets,
    )
    return simulator


def _run(engine, **kwargs):
    simulator = _simulator(engine, **kwargs)
    result = simulator.run()
    return result, np.array(
        simulator.final_state.specific_enthalpy_j_per_kg, copy=True
    )


def _assert_engines_agree(**kwargs):
    batched, enthalpy_b = _run("batched", **kwargs)
    reference, enthalpy_r = _run("reference", **kwargs)
    assert identical_results(batched, reference)
    assert np.array_equal(enthalpy_b, enthalpy_r)


def _counted_runs(make_simulator):
    """Run the simulator ``make_simulator(engine)`` builds on both engines,
    assert byte-identical results and that the reference engine took no
    column tick, and return the batched run's counters and result."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    runs = {}
    try:
        for engine in ("batched", "reference"):
            simulator = make_simulator(engine)
            with registry.collect() as collection:
                result = simulator.run()
            runs[engine] = (
                result,
                np.array(simulator.final_state.specific_enthalpy_j_per_kg),
                collection.report.counters,
            )
    finally:
        if not was_enabled:
            registry.disable()
    batched, enthalpy_b, counters_b = runs["batched"]
    reference, enthalpy_r, counters_r = runs["reference"]
    assert identical_results(batched, reference)
    assert np.array_equal(enthalpy_b, enthalpy_r)
    assert counters_r.get("dcsim.column_ticks", 0) == 0
    return counters_b, batched


def _engine_counters(**kwargs):
    """:func:`_counted_runs` of :func:`_simulator`'s scenario; returns the
    batched engine's counters."""
    return _counted_runs(lambda engine: _simulator(engine, **kwargs))[0]


_FAULT_KINDS = (
    "cooling_loss",
    "supply_excursion",
    "fan_derate",
    "sensor_dropout",
    "sensor_noise",
    "power_cap",
    "server_outage",
)


@st.composite
def _schedules(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    if n == 0:
        return None
    faults = []
    for index in range(n):
        kind = draw(st.sampled_from(_FAULT_KINDS))
        start = draw(
            st.floats(min_value=0.0, max_value=20000.0).map(
                lambda x: round(x, 1)
            )
        )
        width = draw(
            st.floats(min_value=60.0, max_value=12000.0).map(
                lambda x: round(x, 1)
            )
        )
        magnitude = draw(st.floats(min_value=0.05, max_value=0.8))
        faults.append(
            Fault(
                kind=kind,
                start_s=start,
                end_s=start + width,
                magnitude=magnitude,
                seed=index,
            )
        )
    return FaultSchedule(faults=tuple(faults), name="fluid-equiv")


class TestEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        levels=st.lists(
            st.floats(min_value=0.0, max_value=1.2), min_size=2, max_size=6
        ),
        servers=st.integers(min_value=2, max_value=12),
        planner=st.sampled_from(["plain", "plain_fault", "noop", "scheduled"]),
        schedule=_schedules(),
        with_room=st.booleans(),
        hours=st.floats(min_value=1.0, max_value=10.0),
    )
    # A fault starting at t = 0 must bound the first stretch.
    @example(
        levels=[1.0, 0.0],
        servers=2,
        planner="plain",
        schedule=FaultSchedule(
            faults=(
                Fault(
                    kind="cooling_loss",
                    start_s=0.0,
                    end_s=61.0,
                    magnitude=0.5,
                    seed=0,
                ),
            ),
            name="fluid-equiv",
        ),
        with_room=True,
        hours=1.0,
    )
    def test_bit_identical_traces(
        self, levels, servers, planner, schedule, with_room, hours
    ):
        # The control loop needs a plant to read; force the room on for
        # planner-wrapped runs.
        if planner in ("noop", "scheduled"):
            with_room = True
        _assert_engines_agree(
            levels=levels,
            duration_s=hours * 3600.0,
            servers=servers,
            planner=planner,
            schedule=schedule,
            with_room=with_room,
        )

    def test_quiet_run_is_one_stretch(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=6 * 3600.0,
                servers=4,
                planner="plain",
                schedule=None,
                with_room=False,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters["dcsim.fluid.stretch_ticks"] == 360
        assert counters.get("dcsim.fluid.scalar_ticks", 0) == 0

    def test_fault_response_over_no_limit_stretches(self):
        # The wrapper passes the unconditional certificate on while no
        # fault is live: the quiet prefix and suffix stretch.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="cooling_loss",
                    start_s=7200.0,
                    end_s=10800.0,
                    magnitude=0.8,
                ),
            ),
            name="split",
        )
        for with_room in (False, True):
            counters = _engine_counters(
                levels=[0.3, 0.8],
                duration_s=6 * 3600.0,
                servers=4,
                planner="plain_fault",
                schedule=schedule,
                with_room=with_room,
            )
            stretch = counters.get("dcsim.fluid.stretch_ticks", 0)
            assert stretch > 0
            assert stretch + counters["dcsim.fluid.scalar_ticks"] == 360
            assert counters["faults.ticks_active"] == 60

    def test_stateful_policy_runs_fully_scalar(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=3600.0,
                servers=4,
                planner="scheduled",
                schedule=None,
                with_room=True,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters.get("dcsim.fluid.stretch_ticks", 0) == 0
        assert counters["dcsim.fluid.scalar_ticks"] == 60

    def test_fault_window_splits_the_run(self):
        # One mid-run fault: quiet prefix and suffix stretch, the fault
        # window (and its recovery tick) runs scalar.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="power_cap",
                    start_s=7200.0,
                    end_s=10800.0,
                    magnitude=0.4,
                ),
            ),
            name="split",
        )
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.3, 0.8],
                duration_s=6 * 3600.0,
                servers=4,
                planner="plain",
                schedule=schedule,
                with_room=False,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters["dcsim.fluid.stretch_ticks"] > 0
        assert counters["dcsim.fluid.scalar_ticks"] > 0
        assert (
            counters["dcsim.fluid.stretch_ticks"]
            + counters["dcsim.fluid.scalar_ticks"]
            == 360
        )
        _assert_engines_agree(
            levels=[0.3, 0.8],
            duration_s=6 * 3600.0,
            servers=4,
            planner="plain",
            schedule=schedule,
            with_room=False,
        )


class TestColumnEquivalence:
    """Single ticks under stateful policies: the batched engine steps a
    uniform cluster as one server column, the reference engine steps the
    per-server arrays, and the two must stay byte-identical."""

    @settings(max_examples=20, deadline=None)
    @given(
        levels=st.lists(
            st.floats(min_value=0.0, max_value=1.2), min_size=2, max_size=6
        ),
        servers=st.integers(min_value=1, max_value=12),
        planner=st.sampled_from(["room", "limit", "fault"]),
        schedule=_schedules(),
        hours=st.floats(min_value=1.0, max_value=10.0),
        # Below the 185 W peak the policies throttle and shed.
        capacity=st.floats(min_value=120.0, max_value=260.0),
    )
    def test_throttling_policies_bit_identical(
        self, levels, servers, planner, schedule, hours, capacity
    ):
        _assert_engines_agree(
            levels=levels,
            duration_s=hours * 3600.0,
            servers=servers,
            planner=planner,
            schedule=schedule,
            with_room=True,
            capacity_per_server_w=capacity,
        )

    # numpy's pairwise sum adds fewer than 8 values in order (1, 7), up
    # to 128 with eight accumulators (9), and splits longer rows in
    # halves (129, and 1008, the paper's cluster).
    @pytest.mark.parametrize("servers", [1, 7, 9, 129, 1008])
    @pytest.mark.parametrize("planner", ["room", "limit", "fault", "scheduled"])
    def test_every_tick_on_the_column(self, servers, planner):
        batched = _engine_counters(
            levels=[0.3, 1.0, 1.0, 0.6, 0.2],
            duration_s=8 * 3600.0,
            servers=servers,
            planner=planner,
            schedule=None,
            with_room=True,
            capacity_per_server_w=140.0,
        )
        scalar = batched["dcsim.fluid.scalar_ticks"]
        stretch = batched.get("dcsim.fluid.stretch_ticks", 0)
        assert batched["dcsim.column_ticks"] == scalar
        assert batched["dcsim.throttle_ticks"] > 0
        if planner in ("room", "fault"):
            # The released latch stretches while the room is below its
            # limit; the latched ticks run scalar on the column.
            assert stretch > 0
            assert stretch + scalar == 480
        else:
            assert scalar == 480


class _RoomAtItsLimit(RoomModel):
    """A room that each run starts exactly at its limit."""

    def reset(self) -> None:
        self.temperature_c = self.max_temperature_c


class TestConditionalCertificate:
    """Stretches under the room latch's conditional certificate: nominal
    clocks while the latch is released and the plant's room is below its
    limit, with the tick that reaches the limit run scalar."""

    SERVERS = 8
    LEVELS = [0.3, 1.0, 1.0, 0.6, 0.2]
    HOURS = 8.0

    def _simulator(self, engine, *, room, policy, schedule=None):
        injector = FaultInjector(schedule) if schedule is not None else None
        if callable(policy):
            policy = policy(injector)
        return DatacenterSimulator(
            CHARACTERIZATION,
            SPEC.power_model,
            MATERIAL,
            _trace(self.LEVELS, self.HOURS * 3600.0),
            topology=ClusterTopology(server_count=self.SERVERS),
            config=SimulationConfig(
                mode="fluid", tick_interval_s=TICK_S, engine=engine
            ),
            room=room,
            policy=policy,
            fault_injector=injector,
        )

    def test_latch_sets_inside_a_stretch_and_releases(self):
        room = _room(self.SERVERS, 140.0)
        counters, result = _counted_runs(
            lambda engine: self._simulator(
                engine, room=room, policy=RoomTemperaturePolicy(room)
            )
        )
        throttled = np.flatnonzero(result.throttled_mask())
        stretch = counters["dcsim.fluid.stretch_ticks"]
        scalar = counters["dcsim.fluid.scalar_ticks"]
        assert stretch + scalar == 480
        # The latch set mid-run, inside what was a stretch ...
        assert throttled[0] > 0
        assert counters["dcsim.column_ticks"] == scalar
        # ... and the run stretched again once it released.
        assert throttled[-1] < 479
        assert stretch > throttled[0]
        # Only the ticks that consult the policy count a decision.
        assert counters["dcsim.throttle_ticks"] == len(throttled)

    @pytest.mark.parametrize(
        ("kind", "magnitude"),
        [("cooling_loss", 0.8), ("sensor_dropout", 1.0), ("power_cap", 0.4)],
    )
    def test_fault_starts_and_ends_inside_a_stretch(self, kind, magnitude):
        # Ticks at 60 s: the fault covers ticks 120-179 (t = 7260-10800).
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind=kind,
                    start_s=7230.0,
                    end_s=10830.0,
                    magnitude=magnitude,
                ),
            ),
            name="inside",
        )
        room = _room(self.SERVERS, 260.0)
        counters, _ = _counted_runs(
            lambda engine: self._simulator(
                engine,
                room=room,
                policy=lambda injector: FaultResponsePolicy(
                    RoomTemperaturePolicy(room), injector
                ),
                schedule=schedule,
            )
        )
        assert counters["faults.ticks_active"] == 60
        stretch = counters["dcsim.fluid.stretch_ticks"]
        assert stretch + counters["dcsim.fluid.scalar_ticks"] == 480
        # Stretched up to the fault, and again after its recovery tick.
        assert stretch > 120

    def test_room_starting_at_its_limit_latches_on_the_first_tick(self):
        room = _RoomAtItsLimit(
            cooling_capacity_w=260.0 * self.SERVERS,
            thermal_mass_j_per_k=500.0 * self.SERVERS,
        )
        counters, result = _counted_runs(
            lambda engine: self._simulator(
                engine, room=room, policy=RoomTemperaturePolicy(room)
            )
        )
        # The stretch stops before its first tick, which runs scalar and
        # latches; the stretch resumes once the latch releases.
        assert result.throttled_mask()[0]
        assert counters["dcsim.fluid.scalar_ticks"] >= 1
        assert counters["dcsim.fluid.stretch_ticks"] > 0

    def test_policy_watching_another_room_is_never_stretched(self):
        plant_room = _room(self.SERVERS, 260.0)
        other = _room(self.SERVERS, 260.0)
        # The plant never steps or resets the policy's room, which stays
        # over its limit: the policy latches on the first tick.
        other.temperature_c = other.max_temperature_c + 1.0
        counters, result = _counted_runs(
            lambda engine: self._simulator(
                engine, room=plant_room, policy=RoomTemperaturePolicy(other)
            )
        )
        assert counters.get("dcsim.fluid.stretch_ticks", 0) == 0
        assert counters["dcsim.fluid.scalar_ticks"] == 480
        assert result.throttled_mask().all()

    def test_room_policy_certificate(self):
        room = _room(4)
        policy = RoomTemperaturePolicy(room)
        state = TestStretchMachinery._state()
        decision, certified_room, limit = policy.conditional_decision(state)
        assert certified_room is room
        assert limit == room.max_temperature_c
        # Below the limit, decide returns that decision and stays released.
        room.temperature_c = math.nextafter(limit, -math.inf)
        assert policy.decide(state, np.full(4, 1.0)) == decision
        assert policy.conditional_decision(state) is not None
        # At the limit it latches, and a latched policy has no certificate.
        room.temperature_c = limit
        assert policy.decide(state, np.full(4, 1.0)) != decision
        assert policy.conditional_decision(state) is None

    def test_fault_policy_passes_the_certificate_only_while_no_fault_is_live(
        self,
    ):
        room = _room(4)
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="sensor_dropout",
                    start_s=600.0,
                    end_s=1200.0,
                    magnitude=1.0,
                ),
            ),
            name="live",
        )
        injector = FaultInjector(schedule)
        state = TestStretchMachinery._state()
        base = RoomTemperaturePolicy(room)
        policy = FaultResponsePolicy(base, injector)
        assert policy.conditional_decision(state) == base.conditional_decision(
            state
        )
        injector.advance_to(600.0)
        assert injector.current is not None
        assert policy.conditional_decision(state) is None
        injector.advance_to(1260.0)
        assert policy.conditional_decision(state) is not None
        # A base without a certificate gives none.
        plain = FaultResponsePolicy(ThermalLimitPolicy(1000.0), injector)
        assert plain.conditional_decision(state) is None


class TestStretchMachinery:
    @staticmethod
    def _state(servers=4, offsets=None):
        from repro.dcsim.thermal_coupling import ClusterThermalState

        return ClusterThermalState(
            CHARACTERIZATION,
            SPEC.power_model,
            MATERIAL,
            server_count=servers,
            inlet_temperature_c=25.0,
            initial_utilization=0.4,
            inlet_offset_c=offsets,
        )

    def test_uniform_advancer_matches_array_step(self):
        state_a = self._state()
        state_b = self._state()
        advancer = UniformStretchAdvancer(state_a, TICK_S)
        nominal = SPEC.power_model.nominal_frequency_ghz
        # At nominal frequency the DVFS factor is exactly 1.0, so the
        # effective utilization equals the raw utilization on both arms.
        u_eff = np.array([0.3, 0.55, 0.9, 0.2])
        zone_delta, ua = advancer.interp_series(u_eff)
        for k, u in enumerate(u_eff.tolist()):
            power, release, wax, melt = advancer.tick(
                25.0, u, float(zone_delta[k]), float(ua[k])
            )
            p_arr, r_arr, w_arr = state_b.step(TICK_S, np.full(4, u), nominal)
            assert np.all(p_arr == power)
            assert np.all(r_arr == release)
            assert np.all(w_arr == wax)
        advancer.commit()
        assert np.array_equal(
            state_a.zone_temperature_c, state_b.zone_temperature_c
        )
        assert np.array_equal(
            state_a.specific_enthalpy_j_per_kg,
            state_b.specific_enthalpy_j_per_kg,
        )

    @staticmethod
    def _plant(engine="batched", offsets=None):
        return _Plant(
            _simulator(
                engine,
                levels=[0.2, 0.9, 0.4],
                duration_s=6 * 3600.0,
                servers=4,
                planner="room",
                schedule=None,
                with_room=True,
                offsets=offsets,
            )
        )

    def test_advancer_ineligible_with_offsets(self):
        offsets = np.array([0.0, 0.5, -0.5, 0.0])
        assert self._plant(offsets=offsets).column() is None
        # All-zero offsets leave the servers uniform.
        assert self._plant(offsets=np.zeros(4)).column() is not None
        # The reference engine never takes the column.
        assert self._plant("reference").column() is None
        batched = _engine_counters(
            levels=[0.3, 1.0, 0.5],
            duration_s=6 * 3600.0,
            servers=4,
            planner="room",
            schedule=None,
            with_room=True,
            offsets=offsets,
        )
        assert batched.get("dcsim.column_ticks", 0) == 0
        assert batched["dcsim.fluid.scalar_ticks"] == 360

    def test_advancer_ineligible_with_fault_scales(self):
        plant = self._plant()
        plant.state.set_fault_scales(ua_scale=0.8)
        assert plant.column() is None
        plant.state.set_fault_scales()  # restore
        assert plant.column() is not None
        # A fan derate scales the UA, so its ticks take the array step;
        # the scales are per-cluster, so the column resumes after it.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="fan_derate",
                    start_s=7200.0,
                    end_s=10800.0,
                    magnitude=0.5,
                ),
            ),
            name="derate",
        )
        batched = _engine_counters(
            levels=[0.3, 1.0, 0.5],
            duration_s=6 * 3600.0,
            servers=4,
            planner="room",
            schedule=schedule,
            with_room=True,
        )
        assert batched["faults.ticks_active"] == 60
        # Outside the fault every tick is on the column: stretched under
        # the released latch, or a scalar column tick.
        on_column = batched.get("dcsim.column_ticks", 0)
        on_column += batched.get("dcsim.fluid.stretch_ticks", 0)
        assert on_column == 360 - 60

    def test_advancer_ineligible_with_nonuniform_state(self):
        # An outage concentrates load on the survivors: the per-server
        # step clears the plant's uniform flag for the rest of the run.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="server_outage",
                    start_s=7200.0,
                    end_s=9000.0,
                    magnitude=0.25,
                ),
            ),
            name="outage",
        )
        for planner in ("plain", "room"):
            batched = _engine_counters(
                levels=[0.3, 1.0, 0.5],
                duration_s=6 * 3600.0,
                servers=4,
                planner=planner,
                schedule=schedule,
                with_room=True,
            )
            on_column = batched.get("dcsim.column_ticks", 0)
            on_column += batched.get("dcsim.fluid.stretch_ticks", 0)
            assert on_column == 7200.0 / TICK_S - 1

    def test_column_tick_checks_the_busy_fraction(self):
        nominal = SPEC.power_model.nominal_frequency_ghz
        record = dict(
            demand=0.5,
            utilization=0.5,
            throughput=0.5,
            queue_length=0.0,
            shed_work=0.0,
        )
        for engine in ("batched", "reference"):
            plant = self._plant(engine)
            for bad in (math.nan, 1.5, -0.5, math.inf):
                with pytest.raises(ConfigurationError):
                    plant.step(0, TICK_S, bad, nominal, **record)
            plant.step(0, TICK_S, 1.0 + 5e-10, nominal, **record)
            assert plant.column_ticks == (engine == "batched")

    @pytest.mark.parametrize(
        ("planner", "with_room", "latched", "fault"),
        [
            pytest.param("plain", False, False, None, id="none"),
            pytest.param("plain", True, False, None, id="none-room"),
            pytest.param("plain_fault", False, False, "quiet", id="fault(none)"),
            pytest.param("plain_fault", False, False, "live", id="fault(none)-live"),
            pytest.param("plain_fault", True, False, "quiet", id="fault(none)-room"),
            pytest.param(
                "plain_fault", True, False, "live", id="fault(none)-room-live"
            ),
            pytest.param("room", True, False, None, id="released"),
            pytest.param("room", True, True, None, id="latched"),
            pytest.param("fault", True, False, "quiet", id="fault(released)"),
            pytest.param("fault", True, False, "live", id="fault(released)-live"),
            pytest.param("fault", True, True, "quiet", id="fault(latched)"),
            pytest.param("fault", True, True, "live", id="fault(latched)-live"),
        ],
    )
    def test_certificate_matches_decide(self, planner, with_room, latched, fault):
        """Below its limit, the certificate the engine accepts is what
        ``decide`` returns, and neither moves the room latch."""
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="sensor_dropout",
                    start_s=600.0,
                    end_s=1200.0,
                    magnitude=1.0,
                ),
            ),
            name="live",
        )
        loop = fe._FluidLoop(
            _simulator(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=6 * 3600.0,
                servers=4,
                planner=planner,
                schedule=schedule if fault else None,
                with_room=with_room,
            )
        )
        work = np.full(4, 0.6)
        room = loop.room
        policy = getattr(loop.policy, "base", loop.policy)
        if latched:
            room.temperature_c = room.max_temperature_c
            policy.decide(loop.state, work)
        if fault == "live":
            loop.injector.advance_to(600.0)
            assert loop.injector.current is not None
        latch = getattr(policy, "_throttled", None)
        assert latch is (None if planner.startswith("plain") else latched)

        certified = loop._certified(loop._certificate())
        assert getattr(policy, "_throttled", None) is latch
        if latched or fault == "live":
            assert certified is None
            return
        decision, limit = certified
        if planner.startswith("plain"):
            # No limit: it holds at any room temperature.
            assert limit is None
            if room is not None:
                room.temperature_c = room.max_temperature_c + 5.0
        else:
            assert limit == room.max_temperature_c
            room.temperature_c = math.nextafter(limit, -math.inf)
        assert loop.policy.decide(loop.state, work) == decision
        assert getattr(policy, "_throttled", None) is latch

    def test_control_loop_has_no_certificate(self):
        """The loop's begin_tick clock hook keeps every tick scalar."""
        plant = fe._FluidLoop(
            _simulator(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=6 * 3600.0,
                servers=4,
                planner="noop",
                schedule=None,
                with_room=True,
            )
        )
        assert isinstance(plant.policy, ControlLoop)
        assert plant._certificate() is None

    def test_injector_boundary_and_dormancy(self):
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="power_cap",
                    start_s=600.0,
                    end_s=1200.0,
                    magnitude=0.4,
                ),
                Fault(
                    kind="cooling_loss",
                    start_s=5000.0,
                    end_s=6000.0,
                    magnitude=0.3,
                ),
            ),
            name="bounds",
        )
        injector = FaultInjector(schedule)
        assert injector.next_boundary(0.0) == 600.0
        assert injector.next_boundary(600.0) == 5000.0
        assert injector.next_boundary(5000.0) == math.inf
        assert injector.is_dormant
        injector.advance_to(600.0)
        assert not injector.is_dormant  # power cap active
        injector.advance_to(1500.0)
        # The recovery tick tallies the cleared fault and settles back.
        assert injector.current is None
        assert injector.is_dormant

    def test_fast_forward_updates_held_observation(self):
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="sensor_dropout",
                    start_s=6000.0,
                    end_s=9000.0,
                    magnitude=1.0,
                ),
            ),
            name="dropout",
        )
        injector = FaultInjector(schedule)
        injector.fast_forward(5940.0, observed=np.full(3, 0.7))
        injector.advance_to(6000.0)
        observed = injector.observe(np.full(3, 0.9))
        assert np.array_equal(observed, np.full(3, 0.7))

    def test_min_stretch_short_runs_go_scalar(self, monkeypatch):
        # With the threshold above the run length nothing stretches, and
        # results stay identical (the fallback *is* the reference body).
        monkeypatch.setattr(fe, "_MIN_STRETCH", 10_000)
        _assert_engines_agree(
            levels=[0.2, 0.9, 0.4],
            duration_s=3600.0,
            servers=4,
            planner="plain",
            schedule=None,
            with_room=True,
        )


class TestChunkedReduction:
    def test_reduce_matches_per_row_reductions(self):
        loop = fe._FluidLoop.__new__(fe._FluidLoop)
        loop.n_servers = 7
        loop._mat_buf = None
        values = np.linspace(0.1, 987.3, 1000)
        summed = loop._reduce(values, "sum")
        meaned = loop._reduce(values, "mean")
        for k in (0, 1, 499, 999):
            row = np.full(7, values[k])
            assert summed[k] == float(np.sum(row))
            assert meaned[k] == float(np.mean(row))
