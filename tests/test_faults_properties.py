"""Property-based tests for the fault subsystem.

Two layers. Pure-function properties exercise the schedule algebra over
arbitrary generated schedules: serialization round-trips losslessly,
composed effects stay inside their physical ranges, and activity windows
resolve exactly. Simulation-backed properties run generated schedules
through the real chaos scenario (on a deliberately small configuration)
and require every global invariant of :mod:`repro.faults.invariants` to
hold — no NaN/inf traces, melt fraction in [0, 1], sane temperatures,
energy closure — plus the strongest transparency property: a schedule
whose faults all fall outside the simulated horizon leaves the run
bit-identical to an unfaulted one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    COOLING_LOSS,
    FAN_DERATE,
    PCM_DEGRADATION,
    POWER_CAP,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    SERVER_OUTAGE,
    SUPPLY_EXCURSION,
    Fault,
    FaultSchedule,
)
from repro.faults.chaos import (
    ChaosConfig,
    build_simulator,
    random_schedule,
    result_fingerprint,
    run_schedule,
)
from repro.dcsim.simulator import SimulationResult
from repro.faults.injector import FaultInjector
from repro.faults.invariants import check_monotone_recovery
from repro.units import hours

#: Scaled-down chaos scenario so simulation-backed properties stay cheap
#: (~0.1 s per run) while exercising the full injector path.
SMALL = ChaosConfig(
    server_count=8,
    duration_s=hours(12.0),
    fault_start_s=hours(1.0),
    fault_end_s=hours(6.0),
    min_fault_s=hours(0.25),
    max_fault_s=hours(2.0),
    quiet_from_s=hours(8.0),
    relax_s=hours(2.0),
)


def _magnitude_strategy(kind: str):
    """Valid (non-degenerate) magnitudes for one fault kind."""
    finite = {"allow_nan": False, "allow_infinity": False}
    if kind == FAN_DERATE:
        return st.floats(min_value=0.02, max_value=1.0, **finite)
    if kind == COOLING_LOSS:
        return st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True,
            **finite,
        )
    if kind == SUPPLY_EXCURSION:
        return st.floats(min_value=0.1, max_value=30.0, **finite) | st.floats(
            min_value=-30.0, max_value=-0.1, **finite
        )
    if kind == SENSOR_DROPOUT:
        return st.just(0.0)
    if kind == SENSOR_NOISE:
        return st.floats(
            min_value=0.0, max_value=2.0, exclude_min=True, **finite
        )
    if kind in (POWER_CAP, SERVER_OUTAGE):
        return st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True,
            **finite,
        )
    # PCM_DEGRADATION
    return st.floats(min_value=0.0, max_value=1.0, exclude_min=True, **finite)


@st.composite
def faults(draw):
    kind = draw(
        st.sampled_from(
            (
                FAN_DERATE,
                COOLING_LOSS,
                SUPPLY_EXCURSION,
                SENSOR_DROPOUT,
                SENSOR_NOISE,
                POWER_CAP,
                SERVER_OUTAGE,
                PCM_DEGRADATION,
            )
        )
    )
    start = draw(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    duration = draw(
        st.floats(
            min_value=1.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    return Fault(
        kind=kind,
        start_s=start,
        end_s=start + duration,
        magnitude=draw(_magnitude_strategy(kind)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@st.composite
def schedules(draw):
    return FaultSchedule(
        faults=tuple(draw(st.lists(faults(), max_size=6))),
        name=draw(st.text(min_size=1, max_size=20)),
        seed=draw(st.none() | st.integers(min_value=0, max_value=2**31 - 1)),
    )


class TestScheduleAlgebra:
    @given(event=faults())
    @settings(max_examples=200)
    def test_fault_dict_round_trip(self, event):
        assert Fault.from_dict(event.to_dict()) == event

    @given(schedule=schedules())
    @settings(max_examples=100)
    def test_schedule_json_round_trip(self, schedule):
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    @given(
        schedule=schedules(),
        time_s=st.floats(
            min_value=0.0,
            max_value=3e6,
            allow_nan=False,
            allow_infinity=False,
        ),
    )
    @settings(max_examples=200)
    def test_activity_matches_effect_resolution(self, schedule, time_s):
        """effects_at is None exactly when no fault window covers t."""
        active = schedule.active_at(time_s)
        effects = schedule.effects_at(time_s)
        if active:
            assert effects is not None
        else:
            assert effects is None

    @given(
        schedule=schedules(),
        time_s=st.floats(
            min_value=0.0,
            max_value=3e6,
            allow_nan=False,
            allow_infinity=False,
        ),
    )
    @settings(max_examples=200)
    def test_combined_effects_stay_physical(self, schedule, time_s):
        effects = schedule.effects_at(time_s)
        if effects is None:
            return
        assert effects.ua_scale > 0.0
        assert effects.zone_delta_scale >= 1.0  # derates only slow the air
        assert 0.0 <= effects.cooling_capacity_factor <= 1.0
        assert 0.0 < effects.wax_capacity_factor <= 1.0
        assert 0.0 <= effects.utilization_cap <= 1.0
        assert 0.0 <= effects.offline_fraction < 1.0
        assert effects.sensor_noise_sigma >= 0.0

    @given(
        schedule=schedules(),
        time_s=st.floats(
            min_value=0.0,
            max_value=3e6,
            allow_nan=False,
            allow_infinity=False,
        ),
    )
    @settings(max_examples=200)
    def test_inlet_offsets_add(self, schedule, time_s):
        effects = schedule.effects_at(time_s)
        if effects is None:
            return
        expected = sum(
            f.magnitude
            for f in schedule.active_at(time_s)
            if f.kind == SUPPLY_EXCURSION
        )
        assert effects.inlet_delta_c == expected

    @given(schedule=schedules())
    @settings(max_examples=100)
    def test_nothing_active_after_clearance(self, schedule):
        assert schedule.effects_at(schedule.last_clearance_s) is None

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=100)
    def test_generated_schedules_are_seed_deterministic(self, seed):
        first = random_schedule(seed, SMALL)
        second = random_schedule(seed, SMALL)
        assert first == second
        assert 1 <= len(first) <= SMALL.max_faults


class TestSimulationInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    # A fan derate leaves the wax molten; its refreeze heat warms the
    # room inside the recovery window without any fresh peak.
    @example(seed=476)
    def test_generated_schedules_hold_all_invariants(self, seed):
        """Finite traces, melt in [0,1], energy closure, recovery."""
        run = run_schedule(random_schedule(seed, SMALL), SMALL)
        assert run.ok, run.describe()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_out_of_horizon_faults_are_bit_transparent(self, seed):
        """A fault that never activates must leave no trace at all.

        Shift every fault of a generated schedule past the simulated
        horizon: the injector is installed and advanced every tick, but
        nothing ever resolves, so the run must be byte-identical to the
        plain unfaulted simulator.
        """
        shift = SMALL.duration_s + hours(1.0)
        dormant = FaultSchedule(
            faults=tuple(
                Fault(
                    kind=f.kind,
                    start_s=f.start_s + shift,
                    end_s=f.end_s + shift,
                    magnitude=f.magnitude,
                    seed=f.seed,
                )
                for f in random_schedule(seed, SMALL).faults
            ),
            name="dormant",
        )
        faulted = build_simulator(SMALL, FaultInjector(dormant)).run()
        assert result_fingerprint(faulted) == _plain_fingerprint()


def _recovery_result(room_c, wax_heat_w) -> SimulationResult:
    """A synthetic run whose only populated traces are room and wax."""
    n = len(room_c)
    zeros = np.zeros(n)
    return SimulationResult(
        times_s=np.arange(1, n + 1) * 60.0,
        demand=zeros,
        utilization=zeros,
        frequency_ghz=zeros,
        power_w=zeros,
        cooling_load_w=zeros,
        wax_heat_w=np.asarray(wax_heat_w, dtype=float),
        melt_fraction=zeros,
        throughput=zeros,
        queue_length=zeros,
        shed_work=zeros,
        room_temperature_c=np.asarray(room_c, dtype=float),
    )


class TestMonotoneRecovery:
    """The first sample (t = 60 s) precedes the window opening at 120 s."""

    MASS_J_PER_K = 60_000.0

    def violated(self, room_c, wax_heat_w) -> list[str]:
        result = _recovery_result(room_c, wax_heat_w)
        violations = check_monotone_recovery(
            result, 120.0, 0.0, thermal_mass_j_per_k=self.MASS_J_PER_K
        )
        return [v.invariant for v in violations]

    def test_refreeze_heat_is_credited(self):
        # 500 W of refreeze heat over two 60 s ticks: 1.0 C of credit.
        room = [30.0, 27.0, 27.4, 27.9]
        assert self.violated(room, [0.0, 0.0, -500.0, -500.0]) == []
        assert self.violated(room, [0.0, 0.0, 0.0, 0.0]) == [
            "monotone_recovery"
        ]

    def test_fresh_peak_still_fails(self):
        # The wax is absorbing, not refreezing, so nothing is credited.
        room = [30.0, 27.0, 27.4, 27.9]
        assert self.violated(room, [0.0, 0.0, 500.0, 500.0]) == [
            "monotone_recovery"
        ]

    def test_rise_beyond_the_credit_fails(self):
        # 50 W over two ticks credits 0.1 C; the room rises 0.9 C.
        room = [30.0, 27.0, 27.4, 27.9]
        assert self.violated(room, [0.0, 0.0, -50.0, -50.0]) == [
            "monotone_recovery"
        ]

    def test_refreeze_cannot_excuse_a_new_peak(self):
        # 5 kW of refreeze heat credits 10 C, but the room climbs past
        # its 28.0 C peak from before the window, so the rise fails.
        room = [28.0, 27.0, 27.4, 28.5]
        assert self.violated(room, [0.0, 0.0, -5000.0, -5000.0]) == [
            "monotone_recovery"
        ]


_PLAIN_FINGERPRINT: list[str] = []


def _plain_fingerprint() -> str:
    if not _PLAIN_FINGERPRINT:
        _PLAIN_FINGERPRINT.append(
            result_fingerprint(build_simulator(SMALL, injector=None).run())
        )
    return _PLAIN_FINGERPRINT[0]
