"""Tests for wax containers and loadouts."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.materials.library import COMMERCIAL_PARAFFIN
from repro.server.wax_box import WaxBox, WaxLoadout
from repro.units import liters


@pytest.fixture
def box():
    return WaxBox.rectangular(
        wax_volume_m3=liters(0.3),
        length_m=0.19, width_m=0.13, height_m=0.014,
    )


class TestGeometry:
    def test_rectangular_derives_area(self, box):
        expected = 2 * (0.19 * 0.13 + 0.19 * 0.014 + 0.13 * 0.014)
        assert box.exterior_area_m2 == pytest.approx(expected)

    def test_rectangular_derives_depth(self, box):
        assert box.internal_path_length_m == pytest.approx(0.007)

    def test_overfull_box_rejected(self):
        with pytest.raises(ConfigurationError):
            WaxBox.rectangular(
                wax_volume_m3=liters(1.0),
                length_m=0.1, width_m=0.1, height_m=0.05,
            )

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            WaxBox.rectangular(
                wax_volume_m3=liters(0.1),
                length_m=0.0, width_m=0.1, height_m=0.05,
            )

    def test_fin_multiplier_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            WaxBox(
                wax_volume_m3=liters(0.1),
                exterior_area_m2=0.05,
                fin_area_multiplier=0.5,
            )


    @pytest.mark.parametrize(
        "field, value",
        [
            ("wax_volume_m3", math.nan),
            ("wax_volume_m3", math.inf),
            ("exterior_area_m2", math.nan),
            ("exterior_area_m2", math.inf),
            ("wall_thickness_m", math.nan),
            ("air_film_coefficient_w_per_m2_k", math.inf),
            ("internal_path_length_m", math.nan),
            ("fin_area_multiplier", math.nan),
            ("fin_area_multiplier", math.inf),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        parameters = dict(wax_volume_m3=liters(0.1), exterior_area_m2=0.1)
        parameters[field] = value
        with pytest.raises(ConfigurationError):
            WaxBox(**parameters)


class TestConductance:
    def test_positive(self, box):
        assert box.conductance_w_per_k() > 0.0

    def test_series_resistance_below_film_limit(self, box):
        # The air film alone would give h*A; adding wall and wax
        # resistances must only reduce the conductance.
        film_only = box.air_film_coefficient_w_per_m2_k * box.exterior_area_m2
        assert box.conductance_w_per_k() < film_only

    def test_wax_conductivity_matters(self, box):
        poor = box.conductance_w_per_k(wax_conductivity_w_per_m_k=0.1)
        good = box.conductance_w_per_k(wax_conductivity_w_per_m_k=0.4)
        assert poor < good

    def test_fins_increase_conductance(self):
        plain = WaxBox.rectangular(
            wax_volume_m3=liters(0.3), length_m=0.19, width_m=0.13,
            height_m=0.014,
        )
        finned = WaxBox.rectangular(
            wax_volume_m3=liters(0.3), length_m=0.19, width_m=0.13,
            height_m=0.014, fin_area_multiplier=2.5,
        )
        assert finned.conductance_w_per_k() > plain.conductance_w_per_k()

    def test_thin_box_beats_thick_box_per_liter(self):
        thin = WaxBox.rectangular(
            wax_volume_m3=liters(0.3), length_m=0.25, width_m=0.17,
            height_m=0.009,
        )
        thick = WaxBox.rectangular(
            wax_volume_m3=liters(0.3), length_m=0.09, width_m=0.09,
            height_m=0.05,
        )
        assert thin.conductance_w_per_k() > thick.conductance_w_per_k()

    def test_invalid_conductivity_rejected(self, box):
        with pytest.raises(ConfigurationError):
            box.conductance_w_per_k(0.0)


class TestLoadout:
    def _loadout(self, n_boxes=4, blockage=0.7):
        boxes = tuple(
            WaxBox.rectangular(
                wax_volume_m3=liters(0.3), length_m=0.19, width_m=0.13,
                height_m=0.014,
            )
            for _ in range(n_boxes)
        )
        return WaxLoadout(
            boxes=boxes, material=COMMERCIAL_PARAFFIN, zone="wax",
            blockage_fraction=blockage,
        )

    def test_totals(self):
        loadout = self._loadout()
        assert loadout.total_volume_m3 == pytest.approx(liters(1.2))
        assert loadout.total_mass_kg == pytest.approx(0.96)
        # 0.96 kg * 200 kJ/kg = 192 kJ.
        assert loadout.latent_capacity_j == pytest.approx(192_000.0)

    def test_conductance_sums_over_boxes(self):
        one = self._loadout(n_boxes=1)
        four = self._loadout(n_boxes=4)
        assert four.total_conductance_w_per_k() == pytest.approx(
            4 * one.total_conductance_w_per_k()
        )

    def test_multiple_containers_beat_one_big_box(self):
        # The paper's surface-area observation: the same 1.2 L split into
        # four boxes exchanges faster than a single brick.
        four = self._loadout(n_boxes=4)
        brick = WaxLoadout(
            boxes=(
                WaxBox.rectangular(
                    wax_volume_m3=liters(1.2), length_m=0.20, width_m=0.14,
                    height_m=0.046,
                ),
            ),
            material=COMMERCIAL_PARAFFIN,
            zone="wax",
        )
        assert four.total_conductance_w_per_k() > (
            brick.total_conductance_w_per_k()
        )

    def test_make_samples_equilibrated(self):
        loadout = self._loadout()
        samples = loadout.make_samples(25.0)
        assert len(samples) == 4
        assert all(s.temperature_c == pytest.approx(25.0) for s in samples)

    def test_with_material_preserves_geometry(self):
        from repro.materials.library import commercial_paraffin_with_melting_point

        loadout = self._loadout()
        blend = loadout.with_material(
            commercial_paraffin_with_melting_point(45.0)
        )
        assert blend.total_volume_m3 == pytest.approx(loadout.total_volume_m3)
        assert blend.material.melting_point_c == pytest.approx(45.0)

    def test_empty_loadout_rejected(self):
        with pytest.raises(ConfigurationError):
            WaxLoadout(boxes=(), material=COMMERCIAL_PARAFFIN, zone="wax")

    def test_full_blockage_rejected(self):
        with pytest.raises(ConfigurationError):
            self._loadout(blockage=1.0)
