"""Tests for the computational sprinting comparison model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.materials.library import COMMERCIAL_PARAFFIN, EICOSANE
from repro.sprinting import SprintChip, run_sprint, sprint_extension_ratio


@pytest.fixture
def chip():
    return SprintChip()


class TestChip:
    def test_sustainable_power_stays_under_limit(self, chip):
        assert chip.steady_junction_c(chip.sustainable_power_w) < (
            chip.junction_limit_c
        )

    def test_sprint_power_would_exceed_limit_at_steady_state(self, chip):
        assert chip.steady_junction_c(16.0) > chip.junction_limit_c

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SprintChip(die_heat_capacity_j_per_k=0.0)
        with pytest.raises(ConfigurationError):
            SprintChip(junction_limit_c=20.0, ambient_c=25.0)
        with pytest.raises(ConfigurationError):
            SprintChip(idle_power_w=2.0, sustainable_power_w=1.0)

    def test_network_has_pcm_node_when_loaded(self, chip):
        network = chip.build_network(16.0, pcm_grams=10.0)
        assert network.pcm_names == ["pcm"]
        bare = chip.build_network(16.0)
        assert not bare.pcm_names

    def test_negative_pcm_rejected(self, chip):
        with pytest.raises(ConfigurationError):
            chip.build_network(16.0, pcm_grams=-1.0)


class TestNonFiniteInputs:
    """NaN and infinite inputs fail with ConfigurationError naming the field.

    They used to get through: ``pcm_grams=nan`` sprinted a bare chip (NaN
    fails both ``< 0`` and ``> 0``), a NaN or infinite capacity,
    conductance, temperature or power built a chip, a NaN sprint power
    failed inside the solver with SolverError, and ``steady_junction_c``
    returned NaN for a NaN power.
    """

    @pytest.mark.parametrize("pcm_grams", [math.nan, math.inf])
    def test_pcm_grams(self, chip, pcm_grams):
        with pytest.raises(ConfigurationError, match="pcm_grams"):
            run_sprint(chip, 16.0, pcm_grams=pcm_grams, horizon_s=1800.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "die_heat_capacity_j_per_k",
            "spreader_heat_capacity_j_per_k",
            "die_to_spreader_w_per_k",
            "spreader_to_ambient_w_per_k",
            "pcm_to_spreader_w_per_k",
        ],
    )
    def test_capacities_and_conductances(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SprintChip(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["ambient_c", "junction_limit_c", "idle_power_w", "sustainable_power_w"],
    )
    def test_temperatures_and_powers(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SprintChip(**{name: value})

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_sprint_power(self, chip, power):
        with pytest.raises(ConfigurationError, match="sprint_power_w"):
            run_sprint(chip, power)

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_steady_power(self, chip, power):
        with pytest.raises(ConfigurationError, match="power_w"):
            chip.steady_junction_c(power)


class TestSprints:
    def test_bare_sprint_seconds_scale(self, chip):
        result = run_sprint(chip, 16.0)
        assert result.hit_limit
        assert 1.0 < result.duration_s < 120.0

    def test_pcm_extends_sprint(self, chip):
        ratio = sprint_extension_ratio(chip, 16.0, pcm_grams=10.0, horizon_s=1800.0)
        assert ratio > 3.0

    def test_more_pcm_longer_sprint(self, chip):
        small = run_sprint(chip, 16.0, pcm_grams=5.0, horizon_s=1800.0)
        large = run_sprint(chip, 16.0, pcm_grams=20.0, horizon_s=1800.0)
        assert large.duration_s > small.duration_s

    def test_sustainable_power_never_limits(self, chip):
        result = run_sprint(chip, chip.sustainable_power_w, horizon_s=300.0)
        assert not result.hit_limit
        assert result.duration_s == pytest.approx(300.0)

    def test_higher_power_shorter_sprint(self, chip):
        low = run_sprint(chip, 10.0)
        high = run_sprint(chip, 20.0)
        assert high.duration_s < low.duration_s

    def test_eicosane_beats_commercial_at_chip_scale(self, chip):
        """At the chip's ~30-50 degC swing, eicosane's 36.6 degC melting
        point engages where the 39 degC commercial blend engages slightly
        later; with equal mass, the higher heat of fusion also wins."""
        eicosane = run_sprint(
            chip, 16.0, pcm_grams=10.0, material=EICOSANE, horizon_s=1800.0
        )
        commercial = run_sprint(
            chip, 16.0, pcm_grams=10.0, material=COMMERCIAL_PARAFFIN,
            horizon_s=1800.0,
        )
        assert eicosane.duration_s >= commercial.duration_s

    def test_melt_fraction_reported(self, chip):
        result = run_sprint(chip, 16.0, pcm_grams=5.0, horizon_s=1800.0)
        assert result.hit_limit
        assert result.final_melt_fraction == pytest.approx(1.0, abs=0.05)

    def test_validation(self, chip):
        with pytest.raises(ConfigurationError):
            run_sprint(chip, 0.0)
        with pytest.raises(ConfigurationError):
            run_sprint(chip, 16.0, horizon_s=0.0)


class TestBatchedSweep:
    def test_batch_matches_serial_sprints(self, chip):
        from repro.sprinting import run_sprint_batch

        powers = [12.0, 16.0, 20.0]
        batch = run_sprint_batch(
            chip, powers, pcm_grams=10.0, horizon_s=900.0
        )
        assert [outcome.sprint_power_w for outcome in batch] == powers
        assert batch == [
            run_sprint(chip, power, pcm_grams=10.0, horizon_s=900.0)
            for power in powers
        ]

    def test_batch_durations_decrease_with_power(self, chip):
        from repro.sprinting import run_sprint_batch

        batch = run_sprint_batch(
            chip, [12.0, 16.0, 20.0], pcm_grams=10.0, horizon_s=900.0
        )
        durations = [outcome.duration_s for outcome in batch]
        assert durations == sorted(durations, reverse=True)

    def test_batch_validation(self, chip):
        from repro.sprinting import run_sprint_batch

        with pytest.raises(ConfigurationError):
            run_sprint_batch(chip, [16.0], horizon_s=0.0)
