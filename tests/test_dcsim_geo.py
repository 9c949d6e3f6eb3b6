"""Tests for geographic work relocation between constrained sites."""

import math

import numpy as np
import pytest

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.geo import GeoPair, GeoSite
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point


@pytest.fixture(scope="module")
def geo_setup(one_u_spec, one_u_characterization, google_trace):
    """Shared capacity and factory for geo-pair tests."""
    material = commercial_paraffin_with_melting_point(45.0)
    topology = ClusterTopology(server_count=128)
    ideal = DatacenterSimulator(
        one_u_characterization,
        one_u_spec.power_model,
        material,
        google_trace.total,
        topology=topology,
        config=SimulationConfig(wax_enabled=False),
    ).run()
    capacity = 0.836 * ideal.peak_cooling_load_w

    def make_site(name, shift_s, wax):
        return GeoSite(
            name=name,
            characterization=one_u_characterization,
            power_model=one_u_spec.power_model,
            material=material,
            trace=google_trace.total.shifted(shift_s),
            room=RoomModel.sized_for_cluster(capacity, topology.server_count),
            topology=topology,
            wax_enabled=wax,
        )

    return make_site, capacity


@pytest.fixture(scope="module")
def offset_no_wax(geo_setup):
    make_site, _ = geo_setup
    pair = GeoPair(
        make_site("west", 0.0, False), make_site("east", 8 * 3600.0, False)
    )
    return pair.run()


class TestGeoPair:
    def test_mismatched_horizons_rejected(self, geo_setup, google_trace):
        make_site, capacity = geo_setup
        site_a = make_site("a", 0.0, False)
        site_b = make_site("b", 0.0, False)
        object.__setattr__  # (sites are plain classes; rebuild trace)
        from repro.workload.trace import LoadTrace

        site_b.trace = LoadTrace(
            np.array([0.0, 3600.0]), np.array([0.5, 0.5])
        )
        with pytest.raises(ConfigurationError):
            GeoPair(site_a, site_b)

    def test_invalid_parameters_rejected(self, geo_setup):
        make_site, _ = geo_setup
        with pytest.raises(ConfigurationError):
            GeoPair(
                make_site("a", 0.0, False),
                make_site("b", 0.0, False),
                tick_interval_s=0.0,
            )
        with pytest.raises(ConfigurationError):
            GeoPair(
                make_site("a", 0.0, False),
                make_site("b", 0.0, False),
                relocation_loss_fraction=1.0,
            )

    @pytest.mark.parametrize("tick", [0.0, -60.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tick_rejected(self, geo_setup, tick):
        make_site, _ = geo_setup
        with pytest.raises(ConfigurationError):
            GeoPair(
                make_site("a", 0.0, False),
                make_site("b", 0.0, False),
                tick_interval_s=tick,
            )

    def test_offset_sites_relocate_work(self, offset_no_wax):
        assert offset_no_wax.relocated_fraction > 0.02

    def test_relocation_improves_served_fraction(
        self, offset_no_wax, geo_setup
    ):
        make_site, capacity = geo_setup
        aligned = GeoPair(
            make_site("a", 0.0, False), make_site("b", 0.0, False)
        ).run()
        # Coincident peaks: nowhere to send the work.
        assert aligned.relocated_fraction == pytest.approx(0.0, abs=1e-6)
        assert offset_no_wax.served_fraction > aligned.served_fraction + 0.03

    def test_pcm_reduces_relocation_need(self, offset_no_wax, geo_setup):
        make_site, _ = geo_setup
        with_wax = GeoPair(
            make_site("west", 0.0, True), make_site("east", 8 * 3600.0, True)
        ).run()
        assert with_wax.relocated_fraction < (
            offset_no_wax.relocated_fraction
        )
        assert with_wax.served_fraction >= offset_no_wax.served_fraction

    def test_rooms_held_at_limit(self, offset_no_wax):
        for site in (offset_no_wax.site_a, offset_no_wax.site_b):
            assert np.max(site.room_temperature_c) < 36.5

    def test_relocation_pays_the_wan_tax(self, offset_no_wax):
        accepted = float(
            np.sum(
                offset_no_wax.site_a.accepted_remote
                + offset_no_wax.site_b.accepted_remote
            )
        )
        relocated = float(
            np.sum(
                offset_no_wax.site_a.relocated_out
                + offset_no_wax.site_b.relocated_out
            )
        )
        assert accepted == pytest.approx(relocated * 0.95, rel=1e-6)

    def test_work_accounting_closed(self, offset_no_wax):
        """Demand = local service + relocated + lost, per site."""
        for site in (offset_no_wax.site_a, offset_no_wax.site_b):
            unaccounted = site.demand - site.served_local - site.relocated_out
            # Lost covers the unserved remainder plus the WAN tax on what
            # was relocated out.
            reconstructed = np.clip(unaccounted, 0, None) + (
                site.relocated_out * 0.05
            )
            assert np.allclose(site.lost, reconstructed, atol=1e-9)

    def test_run_is_repeatable(self, geo_setup):
        make_site, _ = geo_setup
        pair = GeoPair(
            make_site("west", 0.0, False), make_site("east", 8 * 3600.0, False)
        )
        first = pair.run()
        second = pair.run()
        assert np.array_equal(
            first.site_a.cooling_load_w, second.site_a.cooling_load_w
        )
