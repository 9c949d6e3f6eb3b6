"""Tests for thermal-limit policies."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import (
    NoThermalLimit,
    RoomTemperaturePolicy,
    ThermalLimitPolicy,
    _fill_threshold,
    _shed_cap,
    busy_fraction,
    projected_release_w,
    shared_busy_fits,
)
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry


@pytest.fixture
def state(one_u_spec, one_u_characterization):
    return ClusterThermalState(
        characterization=one_u_characterization,
        power_model=one_u_spec.power_model,
        material=commercial_paraffin_with_melting_point(43.0),
        server_count=8,
    )


class TestHelpers:
    def test_busy_fraction_at_nominal(self, state):
        work = np.full(8, 0.6)
        assert np.allclose(busy_fraction(state, work, 2.4), 0.6)

    def test_busy_fraction_rises_when_downclocked(self, state):
        work = np.full(8, 0.6)
        busy = busy_fraction(state, work, 1.6)
        assert np.allclose(busy, 0.6 / (1.6 / 2.4))

    def test_busy_fraction_clips_at_one(self, state):
        work = np.full(8, 0.9)
        assert np.allclose(busy_fraction(state, work, 1.6), 1.0)

    def test_projected_release_counts_wax(self, state):
        # Heat the zone so the wax absorbs, then the projection must be
        # below raw power.
        for _ in range(240):
            state.step(60.0, np.ones(8), 2.4)
        work = np.ones(8)
        release = projected_release_w(state, work, 2.4)
        power = float(np.sum(state.power_w(np.ones(8), 2.4)))
        assert release < power


class TestNoThermalLimit:
    def test_always_nominal(self, state):
        decision = NoThermalLimit().decide(state, np.ones(8))
        assert decision.frequency_ghz == pytest.approx(2.4)
        assert decision.utilization_cap == 1.0
        assert not decision.limited


class TestThermalLimitPolicy:
    def test_nominal_when_release_fits(self, state):
        generous = ThermalLimitPolicy(capacity_w=1e6)
        decision = generous.decide(state, np.ones(8))
        assert decision.frequency_ghz == pytest.approx(2.4)

    def test_downclocks_when_nominal_overruns(self, state, one_u_spec):
        model = one_u_spec.power_model
        # Capacity between the min-freq and nominal full-load release.
        nominal_release = 8 * model.wall_power_w(1.0, 2.4)
        min_release = 8 * model.wall_power_w(1.0, 1.6)
        policy = ThermalLimitPolicy(capacity_w=0.5 * (nominal_release + min_release))
        decision = policy.decide(state, np.ones(8))
        assert decision.frequency_ghz == pytest.approx(1.6)
        assert decision.limited

    def test_sheds_when_even_min_overruns(self, state, one_u_spec):
        model = one_u_spec.power_model
        min_release = 8 * model.wall_power_w(1.0, 1.6)
        policy = ThermalLimitPolicy(capacity_w=0.9 * min_release)
        decision = policy.decide(state, np.ones(8))
        assert decision.limited
        assert decision.utilization_cap < 1.0
        # The cap actually satisfies the limit.
        capped = np.minimum(
            busy_fraction(state, np.ones(8), 1.6), decision.utilization_cap
        )
        release = float(
            np.sum(
                state.power_w(capped, 1.6) - state.wax_exchange_w(capped, 1.6)
            )
        )
        assert release <= policy.capacity_w * (1.0 + policy.tolerance) + 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThermalLimitPolicy(capacity_w=0.0)
        with pytest.raises(ConfigurationError):
            ThermalLimitPolicy(capacity_w=100.0, tolerance=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"capacity_w": math.nan}, {"capacity_w": 100.0, "tolerance": math.nan}],
    )
    def test_nan_parameter_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ThermalLimitPolicy(**kwargs)


class TestRoomTemperaturePolicy:
    def _room(self, capacity):
        return RoomModel(
            cooling_capacity_w=capacity,
            thermal_mass_j_per_k=1e4,
            setpoint_c=25.0,
            max_temperature_c=30.0,
        )

    def test_nominal_below_limit(self, state):
        room = self._room(1e6)
        policy = RoomTemperaturePolicy(room)
        decision = policy.decide(state, np.ones(8))
        assert decision.frequency_ghz == pytest.approx(2.4)

    def test_throttles_when_room_over_limit(self, state):
        room = self._room(1e6)
        room.temperature_c = 31.0
        policy = RoomTemperaturePolicy(room)
        decision = policy.decide(state, np.ones(8))
        assert decision.frequency_ghz == pytest.approx(1.6)
        assert decision.limited

    def test_latch_holds_until_cool_and_fitting(self, state, one_u_spec):
        # Capacity below the nominal release so unthrottling is unsafe.
        nominal_release = 8 * one_u_spec.power_model.wall_power_w(1.0, 2.4)
        room = self._room(0.8 * nominal_release)
        policy = RoomTemperaturePolicy(room, deadband_c=1.0)
        room.temperature_c = 31.0
        assert policy.decide(state, np.ones(8)).limited
        room.temperature_c = 25.0  # cooled, but nominal still does not fit
        assert policy.decide(state, np.ones(8)).limited

    def test_latch_releases_when_both_conditions_met(self, state):
        room = self._room(1e6)
        policy = RoomTemperaturePolicy(room, deadband_c=1.0)
        room.temperature_c = 31.0
        assert policy.decide(state, np.ones(8)).limited
        room.temperature_c = 26.0
        decision = policy.decide(state, np.zeros(8))
        assert not decision.limited

    def test_reset_clears_latch(self, state):
        room = self._room(1e6)
        policy = RoomTemperaturePolicy(room)
        room.temperature_c = 31.0
        policy.decide(state, np.ones(8))
        policy.reset()
        room.temperature_c = 25.0
        assert not policy.decide(state, np.ones(8)).limited

    def test_negative_deadband_rejected(self, state):
        with pytest.raises(ConfigurationError):
            RoomTemperaturePolicy(self._room(1e6), deadband_c=-1.0)
        with pytest.raises(ConfigurationError):
            RoomTemperaturePolicy(self._room(1e6), deadband_c=math.nan)


def _oracle_release(state, busy, frequency_ghz):
    """The per-server preview: every server's power minus wax exchange."""
    return float(
        np.sum(
            state.power_w(busy, frequency_ghz)
            - state.wax_exchange_w(busy, frequency_ghz)
        )
    )


def _oracle_shed_cap(state, work, frequency_ghz, capacity_w):
    """The 40-round busy-cap bisection over the per-server preview."""
    factor = state.power_model.throughput_factor(frequency_ghz)
    busy = np.clip(work / factor, 0.0, 1.0)
    low, high = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (low + high)
        if _oracle_release(state, busy * mid, frequency_ghz) <= capacity_w:
            low = mid
        else:
            high = mid
    return low * float(np.max(busy))


@contextmanager
def _preview_paths():
    """Collect the preview path counters of the body."""
    obs = get_registry()
    was_enabled = obs.enabled
    obs.enable()
    try:
        with obs.collect() as collection:
            yield collection
    finally:
        if not was_enabled:
            obs.disable()


def _paths(collection):
    counters = collection.report.counters
    return (
        counters.get("dcsim.preview.uniform", 0),
        counters.get("dcsim.preview.array", 0),
    )


class TestUniformPreview:
    """Uniform states preview one server column; the totals must equal
    the per-server arrays exactly."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_server_oracle(
        self, one_u_spec, one_u_characterization, data
    ):
        model = one_u_spec.power_model
        material = commercial_paraffin_with_melting_point(
            data.draw(st.floats(36.0, 60.0), label="melting point")
        )
        fusion = material.heat_of_fusion_j_per_kg
        servers = data.draw(st.integers(1, 1100), label="servers")
        wax = data.draw(st.booleans(), label="wax")
        state = ClusterThermalState(
            one_u_characterization,
            model,
            material,
            server_count=servers,
            wax_enabled=wax,
        )
        # Solid, mushy and liquid, with both phase boundaries exactly.
        state.specific_enthalpy_j_per_kg[:] = data.draw(
            st.one_of(
                st.just(0.0), st.just(fusion), st.floats(-1e5, fusion + 1e5)
            ),
            label="enthalpy",
        )
        state.zone_temperature_c[:] = data.draw(st.floats(20.0, 70.0))
        ua_scale = data.draw(
            st.one_of(st.just(1.0), st.floats(0.05, 0.999)), label="ua scale"
        )
        state.set_fault_scales(ua_scale=ua_scale)
        low, high = model.min_frequency_ghz, model.nominal_frequency_ghz
        frequency = data.draw(
            st.one_of(st.just(low), st.just(high), st.floats(low, high)),
            label="frequency",
        )
        # Work rates up to 1.5 give busy fractions across [0, 1].
        work = np.full(servers, data.draw(st.floats(0.0, 1.5), label="work"))
        capacity = data.draw(st.floats(0.0, 1.2)) * servers * model.peak_power_w

        busy = busy_fraction(state, work, frequency)
        with _preview_paths() as collection:
            release = projected_release_w(state, work, frequency)
            cap = _shed_cap(state, work, frequency, capacity)
        # With or without wax, a uniform state previews one server.
        assert _paths(collection) == (2, 0)
        assert release == _oracle_release(state, busy, frequency)
        assert cap == _oracle_shed_cap(state, work, frequency, capacity)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_busy_fits_matches_the_per_server_oracle(
        self, one_u_spec, one_u_characterization, data
    ):
        model = one_u_spec.power_model
        material = commercial_paraffin_with_melting_point(43.0)
        servers = data.draw(st.integers(1, 1100), label="servers")
        state = ClusterThermalState(
            one_u_characterization,
            model,
            material,
            server_count=servers,
            wax_enabled=data.draw(st.booleans(), label="wax"),
        )
        state.specific_enthalpy_j_per_kg[:] = data.draw(
            st.floats(-1e5, material.heat_of_fusion_j_per_kg + 1e5),
            label="enthalpy",
        )
        state.zone_temperature_c[:] = data.draw(st.floats(20.0, 70.0))
        uniform = data.draw(st.booleans(), label="uniform")
        if not uniform:
            server = data.draw(st.integers(0, servers - 1), label="server")
            state.zone_temperature_c[server] += 0.25
        state.set_fault_scales(
            ua_scale=data.draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
        )
        frequency = data.draw(
            st.floats(model.min_frequency_ghz, model.nominal_frequency_ghz),
            label="frequency",
        )
        busy = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
            label="busy",
        )
        oracle = [
            _oracle_release(state, np.full(servers, b), frequency) for b in busy
        ]
        # A capacity exactly at one of the totals puts a round on the edge.
        capacity = data.draw(
            st.one_of(
                st.sampled_from(oracle),
                st.floats(0.0, 1.2).map(lambda f: f * servers * model.peak_power_w),
            ),
            label="capacity",
        )
        with _preview_paths() as collection:
            fits = shared_busy_fits(state, frequency, capacity)
            verdicts = [fits(b) for b in busy]
        # One uniformity test for every busy fraction.
        uniform = uniform or servers == 1
        assert _paths(collection) == ((1, 0) if uniform else (0, 1))
        assert verdicts == [total <= capacity for total in oracle]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fill_threshold_is_the_exact_per_server_bound(self, data):
        servers = data.draw(st.integers(1, 1100), label="servers")
        capacity = data.draw(
            st.one_of(
                st.just(0.0),
                st.just(5e-324),
                st.floats(0.0, 2.2e-308),
                st.floats(1e300, 1.7976931348623157e308),
                st.floats(-1e7, 1e7),
            ),
            label="capacity",
        )

        def total(value):
            return float(np.full(servers, value).sum())

        # Sums next to the largest double overflow to inf, which is the
        # fill-and-sum's answer there too.
        with np.errstate(over="ignore"):
            t = _fill_threshold(capacity, np.empty(servers))
            # The largest double whose fill-and-sum fits ...
            assert total(t) <= capacity < total(math.nextafter(t, math.inf))
            # ... so the one-server comparison is the fill-and-sum's verdict.
            value = t
            for _ in range(64):
                value = math.nextafter(value, -math.inf)
            for _ in range(129):
                assert (value <= t) == (total(value) <= capacity)
                value = math.nextafter(value, math.inf)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_bisects_exactly(
        self, one_u_spec, one_u_characterization, capacity
    ):
        model = one_u_spec.power_model
        state = ClusterThermalState(
            one_u_characterization,
            model,
            commercial_paraffin_with_melting_point(43.0),
            server_count=1008,
        )
        work = np.full(1008, 0.8)
        frequency = model.min_frequency_ghz
        with _preview_paths() as collection:
            cap = _shed_cap(state, work, frequency, capacity)
        assert _paths(collection) == (1, 0)
        assert cap == _oracle_shed_cap(state, work, frequency, capacity)

    @pytest.mark.parametrize("server", [0, 500, 1007])
    def test_one_ulp_off_takes_the_array_path(
        self, one_u_spec, one_u_characterization, server
    ):
        model = one_u_spec.power_model
        state = ClusterThermalState(
            one_u_characterization,
            model,
            commercial_paraffin_with_melting_point(43.0),
            server_count=1008,
        )
        for _ in range(120):
            state.step(60.0, np.full(1008, 0.9), model.nominal_frequency_ghz)
        enthalpy = state.specific_enthalpy_j_per_kg
        enthalpy[server] = np.nextafter(enthalpy[server], np.inf)
        work = np.full(1008, 0.8)
        frequency = model.min_frequency_ghz
        capacity = 0.5 * 1008 * model.peak_power_w

        busy = busy_fraction(state, work, frequency)
        with _preview_paths() as collection:
            release = projected_release_w(state, work, frequency)
            cap = _shed_cap(state, work, frequency, capacity)
        assert _paths(collection) == (0, 2)
        assert release == _oracle_release(state, busy, frequency)
        assert cap == _oracle_shed_cap(state, work, frequency, capacity)
