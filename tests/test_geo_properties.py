"""Property-based tests for geographic load routing.

Two layers, mirroring ``test_faults_properties``. Pure-function
properties drive :func:`repro.dcsim.geo.route_unserved` over arbitrary
generated site vectors: routed work is conserved (no site sends more
than its backlog, no receiver absorbs more than its spare), offline
sites and the diagonal never receive anything, the router is
deterministic, and a single site degenerates to no routing at all.
Simulation-backed tests then check the same stories at the
:class:`~repro.dcsim.geo.GeoPair` level: an offline twin degrades the
pair to single-site behaviour, and a repeated run is byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.geo import GeoPair, GeoSite, route_unserved
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.dcsim.throttling import RoomTemperaturePolicy
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.core.scenarios import cached_characterization
from repro.workload.synthetic import diurnal_trace

#: Sum of row/column routed work may exceed its bound by accumulated
#: rounding only.
EPS = 1e-9

loads = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=6,
)
losses = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@st.composite
def site_vectors(draw):
    """(unserved, spare, online) with one entry per site."""
    unserved = draw(loads)
    n = len(unserved)
    spare = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    online = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return unserved, spare, online


class TestRouteUnservedProperties:
    @given(vectors=site_vectors(), loss=losses)
    @settings(max_examples=200, deadline=None)
    def test_routing_conserves_total_load(self, vectors, loss):
        unserved, spare, online = vectors
        moved, delivered = route_unserved(unserved, spare, online, loss)
        # No sender routes more than its backlog, no receiver absorbs
        # more than its spare, and the loss tax is applied exactly.
        for i, backlog in enumerate(unserved):
            assert float(np.sum(moved[i])) <= backlog + EPS
        for j, capacity in enumerate(spare):
            assert float(np.sum(moved[:, j])) <= capacity + EPS
        assert np.allclose(delivered, moved * (1.0 - loss))
        assert np.all(moved >= 0.0)

    @given(vectors=site_vectors(), loss=losses)
    @settings(max_examples=200, deadline=None)
    def test_never_routes_to_offline_sites_or_self(self, vectors, loss):
        unserved, spare, online = vectors
        moved, _ = route_unserved(unserved, spare, online, loss)
        for j, up in enumerate(online):
            if not up:
                assert np.all(moved[:, j] == 0.0)
        assert np.all(np.diag(moved) == 0.0)

    @given(vectors=site_vectors(), loss=losses)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, vectors, loss):
        unserved, spare, online = vectors
        first = route_unserved(unserved, spare, online, loss)
        second = route_unserved(unserved, spare, online, loss)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @given(
        backlog=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        capacity=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        loss=losses,
    )
    @settings(max_examples=100, deadline=None)
    def test_single_site_routes_nothing(self, backlog, capacity, loss):
        moved, delivered = route_unserved([backlog], [capacity], None, loss)
        assert np.all(moved == 0.0)
        assert np.all(delivered == 0.0)

    def test_two_site_swap_matches_pairwise_formula(self):
        moved, delivered = route_unserved(
            [0.4, 0.1], [0.2, 0.3], loss_fraction=0.05
        )
        assert moved[0, 1] == min(0.4, 0.3)
        assert moved[1, 0] == min(0.1, 0.2)
        assert delivered[0, 1] == moved[0, 1] * 0.95

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            route_unserved([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            route_unserved([1.0, 1.0], [1.0, 1.0], [True])
        with pytest.raises(ConfigurationError):
            route_unserved([-1.0], [1.0])
        with pytest.raises(ConfigurationError):
            route_unserved([1.0], [-1.0])
        with pytest.raises(ConfigurationError):
            route_unserved([1.0, 1.0], [1.0, 1.0], loss_fraction=1.0)
        # NaN passes every "< 0" guard; infinite work cannot be routed.
        with pytest.raises(ConfigurationError):
            route_unserved([float("nan"), 1.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            route_unserved([1.0, 1.0], [1.0, float("nan")])
        with pytest.raises(ConfigurationError):
            route_unserved([float("inf"), 1.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def tiny_pair_factory(one_u_spec):
    """A cheap two-site pair builder (8 servers, 12 h, 5 min ticks)."""
    characterization = cached_characterization(one_u_spec)
    material = commercial_paraffin_with_melting_point(45.0)
    trace = diurnal_trace(duration_s=12 * 3600.0, interval_s=300.0)

    def make_pair(offline=(), capacity_w=2000.0, east_trace=None, servers=8):
        topology = ClusterTopology(server_count=servers)

        def make_site(name, site_trace):
            return GeoSite(
                name=name,
                characterization=characterization,
                power_model=one_u_spec.power_model,
                material=material,
                trace=site_trace,
                room=RoomModel.sized_for_cluster(
                    capacity_w, topology.server_count
                ),
                topology=topology,
                online=name not in offline,
            )

        return GeoPair(
            make_site("west", trace),
            make_site(
                "east", trace if east_trace is None else east_trace
            ),
            tick_interval_s=300.0,
        )

    return make_pair


class TestGeoPairDegradation:
    def test_repeated_run_is_byte_identical(self, tiny_pair_factory):
        first = tiny_pair_factory().run()
        second = tiny_pair_factory().run()
        for name in (
            "demand",
            "served_local",
            "accepted_remote",
            "relocated_out",
            "lost",
            "frequency_ghz",
            "room_temperature_c",
            "cooling_load_w",
        ):
            assert np.array_equal(
                getattr(first.site_a, name), getattr(second.site_a, name)
            )
            assert np.array_equal(
                getattr(first.site_b, name), getattr(second.site_b, name)
            )

    def test_offline_site_serves_and_receives_nothing(
        self, tiny_pair_factory
    ):
        result = tiny_pair_factory(offline=("east",)).run()
        east = result.site_b
        assert np.all(east.served_local == 0.0)
        assert np.all(east.accepted_remote == 0.0)
        # Whatever west could absorb was offered; the rest is lost.
        assert np.all(
            east.relocated_out + east.lost
            >= east.demand * (1.0 - 1e-12)
        )

    def test_offline_twin_degrades_to_single_site(self, tiny_pair_factory):
        """A dead idle twin leaves west byte-identical to an idle twin.

        With a generous plant west never sheds, so nothing is ever
        routed in either direction and west's behaviour must be exactly
        its single-site behaviour — whether the zero-demand twin is
        offline or merely idle. (``route_unserved``'s n=1 property is
        the pure-function face of the same degradation.)
        """
        from repro.workload.synthetic import flat_trace

        idle = flat_trace(0.0, duration_s=12 * 3600.0, interval_s=300.0)
        dead_twin = tiny_pair_factory(
            offline=("east",), capacity_w=1e6, east_trace=idle
        ).run()
        idle_twin = tiny_pair_factory(
            capacity_w=1e6, east_trace=idle
        ).run()
        for name in (
            "served_local",
            "accepted_remote",
            "relocated_out",
            "lost",
            "frequency_ghz",
            "room_temperature_c",
            "cooling_load_w",
        ):
            assert np.array_equal(
                getattr(dead_twin.site_a, name),
                getattr(idle_twin.site_a, name),
            ), name
        assert np.all(dead_twin.site_b.served_local == 0.0)

    def test_site_with_dead_idle_twin_is_the_single_site_simulator(
        self, tiny_pair_factory, one_u_spec
    ):
        """A site whose twin is offline and idle is byte-identical to a
        standalone room-throttled simulator.

        Nothing can be routed, so the site runs exactly the single-site
        plant: same room, same :class:`RoomTemperaturePolicy` latch,
        same thermal steps. The plant here is small enough that the
        latch engages, so the throttled path is covered too.
        """
        from repro.workload.synthetic import flat_trace

        capacity_w = 1000.0
        idle = flat_trace(0.0, duration_s=12 * 3600.0, interval_s=300.0)
        west = tiny_pair_factory(
            offline=("east",), capacity_w=capacity_w, east_trace=idle
        ).run().site_a
        room = RoomModel.sized_for_cluster(capacity_w, 8)
        solo = DatacenterSimulator(
            cached_characterization(one_u_spec),
            one_u_spec.power_model,
            commercial_paraffin_with_melting_point(45.0),
            diurnal_trace(duration_s=12 * 3600.0, interval_s=300.0),
            topology=ClusterTopology(server_count=8),
            policy=RoomTemperaturePolicy(room),
            config=SimulationConfig(tick_interval_s=300.0),
            room=room,
        ).run()
        assert np.any(solo.throttled_mask())
        for geo_name, solo_name in (
            ("times_s", "times_s"),
            ("demand", "demand"),
            ("served_local", "throughput"),
            ("frequency_ghz", "frequency_ghz"),
            ("room_temperature_c", "room_temperature_c"),
            ("cooling_load_w", "cooling_load_w"),
        ):
            assert np.array_equal(
                getattr(west, geo_name), getattr(solo, solo_name)
            ), geo_name
        assert not np.any(west.accepted_remote)
        assert not np.any(west.relocated_out)

    @pytest.mark.parametrize("servers", [8, 128])
    def test_site_column_matches_the_reference_simulator(
        self, tiny_pair_factory, one_u_spec, servers
    ):
        """The same degradation against the reference engine.

        The geo site steps its uniform cluster as one server column and
        bisects its spare capacity on it; the reference engine steps
        and previews per-server arrays. Both must agree to the byte.
        """
        from repro.workload.synthetic import flat_trace

        capacity_w = 125.0 * servers
        idle = flat_trace(0.0, duration_s=12 * 3600.0, interval_s=300.0)
        obs = get_registry()
        was_enabled = obs.enabled
        obs.enable()
        try:
            with obs.collect() as collection:
                west = tiny_pair_factory(
                    offline=("east",),
                    capacity_w=capacity_w,
                    east_trace=idle,
                    servers=servers,
                ).run().site_a
        finally:
            if not was_enabled:
                obs.disable()
        # Every step of both sites (144 ticks each) took the column.
        assert collection.report.counters["dcsim.column_ticks"] == 288
        room = RoomModel.sized_for_cluster(capacity_w, servers)
        solo = DatacenterSimulator(
            cached_characterization(one_u_spec),
            one_u_spec.power_model,
            commercial_paraffin_with_melting_point(45.0),
            diurnal_trace(duration_s=12 * 3600.0, interval_s=300.0),
            topology=ClusterTopology(server_count=servers),
            policy=RoomTemperaturePolicy(room),
            config=SimulationConfig(tick_interval_s=300.0, engine="reference"),
            room=room,
        ).run()
        assert np.any(solo.throttled_mask())
        for geo_name, solo_name in (
            ("times_s", "times_s"),
            ("demand", "demand"),
            ("served_local", "throughput"),
            ("frequency_ghz", "frequency_ghz"),
            ("room_temperature_c", "room_temperature_c"),
            ("cooling_load_w", "cooling_load_w"),
        ):
            assert np.array_equal(
                getattr(west, geo_name), getattr(solo, solo_name)
            ), geo_name

    def test_pair_level_conservation_identity(self, tiny_pair_factory):
        """Every tick: lost = un-routed backlog + relocation tax.

        Together with the router's row/column bounds this pins down the
        pair-wide ledger — demand is served locally, delivered remotely,
        or accounted as lost; nothing is double-counted or invented.
        """
        result = tiny_pair_factory().run()
        loss = 0.05
        for traces in (result.site_a, result.site_b):
            np.testing.assert_allclose(
                traces.lost,
                np.maximum(
                    traces.demand
                    - traces.served_local
                    - traces.relocated_out,
                    0.0,
                )
                + traces.relocated_out * loss,
                atol=1e-12,
            )
