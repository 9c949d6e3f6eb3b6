"""Tests for the room-air thermal model."""

import math

import pytest

from repro.dcsim.room import RoomModel
from repro.errors import ConfigurationError


@pytest.fixture
def room():
    return RoomModel(
        cooling_capacity_w=10_000.0,
        thermal_mass_j_per_k=1e5,
        setpoint_c=25.0,
        max_temperature_c=35.0,
    )


class TestValidation:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RoomModel(cooling_capacity_w=0.0)

    def test_max_below_setpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            RoomModel(
                cooling_capacity_w=1.0, setpoint_c=30.0, max_temperature_c=25.0
            )

    @pytest.mark.parametrize(
        "field",
        [
            "cooling_capacity_w",
            "thermal_mass_j_per_k",
            "setpoint_c",
            "max_temperature_c",
        ],
    )
    def test_nan_parameter_rejected(self, field):
        with pytest.raises(ConfigurationError):
            RoomModel(**{"cooling_capacity_w": 1.0, field: float("nan")})

    def test_negative_release_rejected(self, room):
        with pytest.raises(ConfigurationError):
            room.step(60.0, -1.0)

    @pytest.mark.parametrize("tick", [0.0, -60.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tick_rejected(self, room, tick):
        with pytest.raises(ConfigurationError):
            room.step(tick, 1000.0)
        assert room.temperature_c == 25.0

    @pytest.mark.parametrize("release", [math.nan, math.inf])
    def test_non_finite_release_rejected(self, room, release):
        with pytest.raises(ConfigurationError):
            room.removal_w(release)
        with pytest.raises(ConfigurationError):
            room.step(60.0, release)
        assert room.temperature_c == 25.0


class TestCRACBehaviour:
    def test_starts_at_setpoint(self, room):
        assert room.temperature_c == pytest.approx(25.0)

    def test_holds_setpoint_under_capacity(self, room):
        for _ in range(100):
            room.step(60.0, 8_000.0)
        assert room.temperature_c == pytest.approx(25.0)

    def test_heats_when_overloaded(self, room):
        room.step(10.0, 12_000.0)
        # 2 kW surplus for 10 s into 1e5 J/K: +0.2 degC.
        assert room.temperature_c == pytest.approx(25.2)

    def test_over_limit_flag(self, room):
        for _ in range(200):
            room.step(60.0, 20_000.0)
            if room.over_limit:
                break
        assert room.over_limit
        assert room.headroom_c <= 0.0

    def test_cools_back_to_setpoint_but_not_below(self, room):
        room.step(100.0, 20_000.0)
        assert room.temperature_c > 25.0
        for _ in range(1000):
            room.step(60.0, 0.0)
        assert room.temperature_c == pytest.approx(25.0)

    def test_removal_modulates_at_setpoint(self, room):
        assert room.removal_w(4_000.0) == pytest.approx(4_000.0)
        assert room.removal_w(40_000.0) == pytest.approx(10_000.0)

    def test_removal_full_blast_above_setpoint(self, room):
        room.step(100.0, 20_000.0)
        assert room.removal_w(1_000.0) == pytest.approx(10_000.0)

    def test_energy_balance(self, room):
        removed = room.step(50.0, 14_000.0)
        stored = (room.temperature_c - 25.0) * room.thermal_mass_j_per_k
        assert stored == pytest.approx((14_000.0 - removed) * 50.0)

    def test_reset(self, room):
        room.step(100.0, 50_000.0)
        room.reset()
        assert room.temperature_c == pytest.approx(25.0)

    def test_invalid_tick_rejected(self, room):
        with pytest.raises(ConfigurationError):
            room.step(0.0, 100.0)
