"""Tests for the vectorized cluster thermal state."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dcsim.thermal_coupling as tc
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.server.characterization import LumpedServerModel


@pytest.fixture
def material():
    return commercial_paraffin_with_melting_point(43.0)


@pytest.fixture
def cluster_state(one_u_spec, one_u_characterization, material):
    return ClusterThermalState(
        characterization=one_u_characterization,
        power_model=one_u_spec.power_model,
        material=material,
        server_count=16,
    )


def _state_at_enthalpies(spec, characterization, material, h):
    state = ClusterThermalState(
        characterization, spec.power_model, material, server_count=len(h)
    )
    state.specific_enthalpy_j_per_kg[:] = h
    return state


class TestVectorizedEnthalpyMap:
    """The state's per-server enthalpy maps equal the scalar material's
    exactly: one-column previews take the scalar map for a uniform state."""

    @given(h=st.floats(min_value=-2e5, max_value=4e5))
    @settings(max_examples=200)
    def test_matches_scalar_material(self, one_u_spec, one_u_characterization, h):
        material = commercial_paraffin_with_melting_point(43.0)
        state = _state_at_enthalpies(
            one_u_spec, one_u_characterization, material, np.array([h])
        )
        assert state.wax_temperature_c[0] == material.temperature_at_enthalpy(h)

    @given(h=st.floats(min_value=-2e5, max_value=4e5))
    @settings(max_examples=200)
    def test_melt_fraction_matches_scalar(
        self, one_u_spec, one_u_characterization, h
    ):
        material = commercial_paraffin_with_melting_point(43.0)
        state = _state_at_enthalpies(
            one_u_spec, one_u_characterization, material, np.array([h])
        )
        assert state.melt_fraction[0] == material.melt_fraction_at_enthalpy(h)

    def test_array_shapes_preserved(
        self, one_u_spec, one_u_characterization, material
    ):
        fusion = material.heat_of_fusion_j_per_kg
        h = np.concatenate([np.linspace(-1e5, 3e5, 37), [0.0, fusion]])
        state = _state_at_enthalpies(
            one_u_spec, one_u_characterization, material, h
        )
        assert state.wax_temperature_c.shape == h.shape
        assert state.melt_fraction.shape == h.shape
        assert state.wax_temperature_c.tolist() == [
            material.temperature_at_enthalpy(x) for x in h.tolist()
        ]


class TestClusterState:
    def test_initial_state_uniform(self, cluster_state):
        assert np.allclose(cluster_state.melt_fraction, 0.0)
        assert np.ptp(cluster_state.zone_temperature_c) == pytest.approx(0.0)

    def test_step_returns_triple(self, cluster_state):
        u = np.full(16, 0.5)
        power, release, wax = cluster_state.step(60.0, u, 2.4)
        assert power.shape == release.shape == wax.shape == (16,)
        assert np.allclose(power - wax, release)

    def test_power_matches_model(self, cluster_state, one_u_spec):
        u = np.full(16, 0.75)
        power, _, _ = cluster_state.step(60.0, u, 2.4)
        assert power[0] == pytest.approx(
            one_u_spec.power_model.wall_power_w(0.75)
        )

    def test_shape_mismatch_rejected(self, cluster_state):
        with pytest.raises(ConfigurationError):
            cluster_state.step(60.0, np.zeros(5), 2.4)

    def test_out_of_range_utilization_rejected(self, cluster_state):
        with pytest.raises(ConfigurationError):
            cluster_state.step(60.0, np.full(16, 1.5), 2.4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_utilization_rejected(self, cluster_state, bad):
        zone = cluster_state.zone_temperature_c.copy()
        enthalpy = cluster_state.specific_enthalpy_j_per_kg.copy()
        utilization = np.full(16, 0.5)
        utilization[1] = bad
        with pytest.raises(ConfigurationError):
            cluster_state.step(60.0, utilization, 2.4)
        # Rejected before any server moved.
        assert np.array_equal(cluster_state.zone_temperature_c, zone)
        assert np.array_equal(
            cluster_state.specific_enthalpy_j_per_kg, enthalpy
        )

    def test_wax_disabled_never_exchanges(
        self, one_u_spec, one_u_characterization, material
    ):
        state = ClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            server_count=4,
            wax_enabled=False,
        )
        for _ in range(200):
            _, release, wax = state.step(60.0, np.ones(4), 2.4)
        assert np.allclose(wax, 0.0)
        assert np.allclose(release, state.power_model.wall_power_w(1.0))

    def test_sustained_load_melts_wax(self, cluster_state):
        u = np.ones(16)
        for _ in range(12 * 60):
            cluster_state.step(60.0, u, 2.4)
        assert np.all(cluster_state.melt_fraction > 0.5)

    def test_heterogeneous_utilization_diverges_state(self, cluster_state):
        u = np.zeros(16)
        u[:8] = 1.0
        for _ in range(240):
            cluster_state.step(60.0, u, 2.4)
        melt = cluster_state.melt_fraction
        assert np.all(melt[:8] >= melt[8:])
        assert melt[:8].max() > melt[8:].max()

    def test_stored_latent_heat_accounting(self, cluster_state):
        u = np.ones(16)
        for _ in range(240):
            cluster_state.step(60.0, u, 2.4)
        expected = (
            float(np.sum(cluster_state.melt_fraction))
            * cluster_state.wax_mass_kg
            * cluster_state.material.heat_of_fusion_j_per_kg
        )
        assert cluster_state.stored_latent_heat_j == pytest.approx(expected)

    def test_inlet_override_propagates(self, cluster_state):
        cluster_state.inlet_temperature_c = 35.0
        u = np.full(16, 0.5)
        for _ in range(240):
            cluster_state.step(60.0, u, 2.4)
        # Zone temperatures settle at the hotter inlet plus the delta.
        expected = 35.0 + cluster_state.characterization.zone_delta_at(0.5)
        assert np.allclose(cluster_state.zone_temperature_c, expected, atol=0.2)


class TestAgainstScalarModel:
    def test_matches_lumped_server_model(
        self, one_u_spec, one_u_characterization, material, rng
    ):
        """The vectorized cluster state and the scalar LumpedServerModel
        implement the same physics; drive both identically and compare."""
        scalar = LumpedServerModel(
            one_u_characterization, one_u_spec.power_model, material
        )
        vector = ClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            server_count=3,
        )
        for _ in range(300):
            u = float(rng.uniform(0, 1))
            scalar_result = scalar.step(60.0, u)
            power, release, wax = vector.step(60.0, np.full(3, u), 2.4)
            assert power[0] == pytest.approx(scalar_result.power_w, rel=1e-9)
            assert wax[0] == pytest.approx(scalar_result.wax_heat_w, rel=1e-6, abs=1e-6)
        assert vector.melt_fraction[0] == pytest.approx(
            scalar.sample.melt_fraction, abs=1e-9
        )


class TestBatchedClusterState:
    def test_batch_matches_serial_clusters_exactly(
        self, one_u_spec, one_u_characterization, rng
    ):
        """Stacking clusters along the leading axis performs the same
        arithmetic elementwise, so the batched state must reproduce
        serial per-cluster stepping bit for bit."""
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        materials = [
            commercial_paraffin_with_melting_point(melt)
            for melt in (41.0, 43.0, 47.0)
        ]
        wax_enabled = np.array([False, True, True])
        batched = BatchedClusterThermalState(
            characterization=one_u_characterization,
            power_model=one_u_spec.power_model,
            material=materials,
            cluster_count=3,
            server_count=8,
            wax_enabled=wax_enabled,
        )
        serial = [
            ClusterThermalState(
                characterization=one_u_characterization,
                power_model=one_u_spec.power_model,
                material=materials[i],
                server_count=8,
                wax_enabled=bool(wax_enabled[i]),
            )
            for i in range(3)
        ]
        for _ in range(200):
            utilization = rng.uniform(0.0, 1.0, size=8)
            stacked = np.tile(utilization, (3, 1))
            b_power, b_release, b_wax = batched.step(60.0, stacked, 2.4)
            for i, state in enumerate(serial):
                s_power, s_release, s_wax = state.step(60.0, utilization, 2.4)
                assert np.array_equal(b_power[i], s_power), i
                assert np.array_equal(b_release[i], s_release), i
                assert np.array_equal(b_wax[i], s_wax), i
        for i, state in enumerate(serial):
            assert np.array_equal(
                batched.specific_enthalpy_j_per_kg[i],
                state.specific_enthalpy_j_per_kg,
            )
            assert np.array_equal(
                batched.zone_temperature_c[i], state.zone_temperature_c
            )

    def test_material_list_length_validated(
        self, one_u_spec, one_u_characterization, material
    ):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        with pytest.raises(ConfigurationError):
            BatchedClusterThermalState(
                characterization=one_u_characterization,
                power_model=one_u_spec.power_model,
                material=[material, material],
                cluster_count=3,
                server_count=4,
            )

    @pytest.mark.parametrize(
        "field", ["inlet_temperature_c", "initial_utilization", "wax_enabled"]
    )
    def test_per_cluster_field_of_the_wrong_length_is_rejected(
        self, one_u_spec, one_u_characterization, material, field
    ):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        with pytest.raises(ConfigurationError, match=field):
            BatchedClusterThermalState(
                characterization=one_u_characterization,
                power_model=one_u_spec.power_model,
                material=material,
                cluster_count=3,
                server_count=4,
                **{field: np.ones(2)},
            )

    def test_step_frequency_of_the_wrong_length_is_rejected(
        self, one_u_spec, one_u_characterization, material
    ):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        state = BatchedClusterThermalState(
            characterization=one_u_characterization,
            power_model=one_u_spec.power_model,
            material=material,
            cluster_count=3,
            server_count=4,
        )
        with pytest.raises(ConfigurationError, match="frequency_ghz"):
            state.step(60.0, np.full((3, 4), 0.5), np.full(2, 2.4))

    def test_uniformity_is_exact_per_cluster(
        self, one_u_spec, one_u_characterization, material
    ):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        state = BatchedClusterThermalState(
            characterization=one_u_characterization,
            power_model=one_u_spec.power_model,
            material=material,
            cluster_count=2,
            server_count=4,
            inlet_temperature_c=np.array([25.0, 30.0]),
        )
        busy = np.array([[0.5] * 4, [0.7] * 4])
        assert state.is_uniform()
        assert state.is_uniform(busy)
        assert not state.is_uniform(busy[:, :3])
        busy[1, 3] = np.nextafter(0.7, 1.0)
        assert not state.is_uniform(busy)
        enthalpy = state.specific_enthalpy_j_per_kg
        enthalpy[0, 2] = np.nextafter(enthalpy[0, 2], np.inf)
        assert not state.is_uniform()

    def test_scalar_wrapper_delegates(self, cluster_state):
        """ClusterThermalState is a one-cluster view over the batched
        implementation; its public arrays must stay (S,)-shaped."""
        assert cluster_state.zone_temperature_c.shape == (16,)
        assert cluster_state.melt_fraction.shape == (16,)
        power, release, wax = cluster_state.step(
            60.0, np.full(16, 0.8), 2.4
        )
        assert power.shape == (16,)
        assert release.shape == (16,)
        assert wax.shape == (16,)
        assert isinstance(cluster_state.stored_latent_heat_j, float)


class TestUniformTotals:
    def test_match_the_full_row_sum_and_mean(self):
        from repro.dcsim.thermal_coupling import uniform_totals

        values = np.array([0.1, 987.3, -4.25e3, 1.0 / 3.0])
        for servers in range(1, 1010):
            totals = uniform_totals(values, servers)
            for value, total in zip(values, totals):
                row = np.full(servers, value)
                assert total == np.sum(row), servers
                assert total / servers == np.mean(row), servers


#: The guard's probe values and a few ordinary ones.
_SPECIAL_VALUES = (*tc._PROBES, 1.0, -1.0, 2.0**-1074 * 3, 1e-300, 123456.789)

_totals_values = st.one_of(
    st.sampled_from(_SPECIAL_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e4, 1e4),
)

#: Lengths below 8, in the 8-accumulator range, just past a split and the
#: paper's cluster, besides any length up to a few thousand.
_totals_lengths = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 1008, 4096]),
    st.integers(1, 3000),
)


def _same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestTotalsPlan:
    """The compiled plan against NumPy's own reduction, and the guard
    that keeps the fill-and-sum where a plan would differ."""

    @given(servers=_totals_lengths, value=_totals_values)
    @settings(max_examples=300, deadline=None)
    def test_plan_on_a_float_is_the_row_sum(self, servers, value):
        plan = tc.compile_plan(servers)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.sum(np.full(servers, value))
        assert _same_bytes(plan(value), expected)

    @given(
        servers=_totals_lengths,
        values=st.lists(_totals_values, min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_on_rows_is_each_row_sum(self, servers, values):
        values = np.array(values, dtype=float)
        plan = tc.compile_plan(servers)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.empty((len(values), servers))
            rows[:] = values[:, None]
            expected = rows.sum(axis=1)
            assert _same_bytes(plan(values), expected)
            assert _same_bytes(tc.uniform_totals(values, servers), expected)

    @pytest.mark.parametrize("servers", [1, 7, 8, 9, 129, 1008])
    def test_the_guard_takes_the_plan_here(self, servers):
        plan = tc.compile_plan(servers)
        assert tc._checked(servers, plan) is plan

    def test_the_guard_falls_back_on_a_wrong_plan(self, monkeypatch):
        servers = 1009
        # n * x is not NumPy's pairwise sum: 0.1 * 1009 differs from it.
        monkeypatch.setattr(tc, "compile_plan", lambda n: (lambda x: x * n))
        monkeypatch.setattr(tc, "_TOTALS", {})
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            with registry.collect() as collection:
                total = tc.uniform_total(servers)
                assert tc.uniform_total(servers) is total  # checked once
        finally:
            if not was_enabled:
                registry.disable()
        counters = collection.report.counters
        assert counters.get("dcsim.totals.fill") == 1
        assert "dcsim.totals.plan" not in counters
        for value in (0.1, 263.7, -0.0, 1.0 / 3.0):
            assert _same_bytes(total(value), np.sum(np.full(servers, value)))
        values = np.linspace(-5.0, 300.0, 64)
        assert _same_bytes(
            tc.uniform_totals(values, servers), tc.fill_totals(values, servers)
        )

    def test_a_plan_is_counted_once_per_server_count(self, monkeypatch):
        monkeypatch.setattr(tc, "_TOTALS", {})
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            with registry.collect() as collection:
                for _ in range(3):
                    tc.uniform_totals(np.array([1.0, 2.0]), 1008)
                    tc.uniform_totals(1.0, 7)
        finally:
            if not was_enabled:
                registry.disable()
        assert collection.report.counters.get("dcsim.totals.plan") == 2


def _three_branch_map(state, h):
    """The map before the one-branch shortcut: the nested np.where."""
    solid = state._solidus + h / state._c_solid
    mushy = state._solidus + (h / state._fusion) * state._melt_range
    liquid = state._liquidus + (h - state._fusion) / state._c_liquid
    return np.where(h <= 0, solid, np.where(h >= state._fusion, liquid, mushy))


#: A melting point and range whose mushy map at the full heat of fusion
#: differs from the liquid map there (43.0 - 1.55 + 3.1 != 43.0 + 1.55),
#: so taking the wrong branch at that boundary changes bits.
_EDGE_MATERIAL = dataclasses.replace(
    commercial_paraffin_with_melting_point(43.0), melting_range_c=3.1
)


class TestOneBranchEnthalpyMap:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_three_branch_map(
        self, one_u_spec, one_u_characterization, data
    ):
        clusters = data.draw(st.integers(1, 4), label="clusters")
        servers = data.draw(st.integers(1, 6), label="servers")
        fusions = st.sampled_from([2.0e5, 1.7e5, 2.3e5])
        if data.draw(st.booleans(), label="one material"):
            # The one-branch path: every cluster shares one material.
            material = dataclasses.replace(
                _EDGE_MATERIAL, heat_of_fusion_j_per_kg=data.draw(fusions)
            )
            materials = [material] * clusters
        else:
            # A melting-point search's shape: the nested np.where.
            materials = [
                dataclasses.replace(
                    _EDGE_MATERIAL, heat_of_fusion_j_per_kg=data.draw(fusions)
                )
                for _ in range(clusters)
            ]
        state = tc.BatchedClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            materials,
            cluster_count=clusters,
            server_count=servers,
        )
        fusion_min = min(m.heat_of_fusion_j_per_kg for m in materials)
        fusion_max = max(m.heat_of_fusion_j_per_kg for m in materials)
        regime = data.draw(
            st.sampled_from(["solid", "mushy", "liquid", "mixed"]), label="regime"
        )
        values = {
            "solid": st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3e5, 0.0)),
            "mushy": st.one_of(
                st.just(5e-324),
                st.just(float(np.nextafter(fusion_min, 0.0))),
                st.floats(5e-324, fusion_min, exclude_max=True),
            ),
            "liquid": st.one_of(st.just(fusion_max), st.floats(fusion_max, 6e5)),
            "mixed": st.one_of(
                st.just(0.0),
                st.sampled_from([m.heat_of_fusion_j_per_kg for m in materials]),
                st.just(float("nan")),
                st.floats(-3e5, 6e5),
            ),
        }[regime]
        h = np.array(
            [[data.draw(values) for _ in range(servers)] for _ in range(clusters)]
        )
        assert _same_bytes(state._temperature_at_enthalpy(h), _three_branch_map(state, h))

    @pytest.mark.parametrize("fill", ["zero", "fusion", "nan"])
    def test_exact_boundaries(self, one_u_spec, one_u_characterization, fill):
        state = tc.BatchedClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            _EDGE_MATERIAL,
            cluster_count=2,
            server_count=3,
        )
        value = {
            "zero": 0.0,
            "fusion": _EDGE_MATERIAL.heat_of_fusion_j_per_kg,
            "nan": float("nan"),
        }[fill]
        h = np.full((2, 3), value)
        mapped = state._temperature_at_enthalpy(h)
        assert _same_bytes(mapped, _three_branch_map(state, h))
        if fill == "fusion":
            # Every element is at the liquidus: the liquid branch.
            assert np.all(mapped == _EDGE_MATERIAL.liquidus_c)


# -- the step before it folded the DVFS factor once, checked the range in
# -- one pass and held the lookup tables as arrays: the oracle of the step


def _reference_effective_utilization(state, utilization, frequency_ghz):
    frequencies = np.broadcast_to(
        np.asarray(frequency_ghz, dtype=float), (state.cluster_count,)
    )
    factors = np.array(
        [state.power_model.frequency_factor(float(f)) for f in frequencies]
    )
    return np.asarray(utilization) * factors[:, None]


def _reference_power_w(state, utilization, frequency_ghz):
    u_eff = _reference_effective_utilization(state, utilization, frequency_ghz)
    return state.power_model.idle_power_w + (
        state.power_model.dynamic_range_w * u_eff
    )


def _reference_wax_exchange_w(state, utilization, frequency_ghz):
    u_eff = _reference_effective_utilization(state, utilization, frequency_ghz)
    ua = state.characterization.ua_at(u_eff)
    ua_scale = state.fault_scales[0]
    if ua_scale != 1.0:
        ua = ua * ua_scale
    exchange = ua * (state.zone_temperature_c - state.wax_temperature_c)
    return np.where(state.wax_enabled[:, None], exchange, 0.0)


def _reference_step(state, dt_s, utilization, frequency_ghz):
    """``BatchedClusterThermalState.step`` as it was, on ``state``."""
    if dt_s <= 0:
        raise ConfigurationError(f"tick must be positive, got {dt_s}")
    utilization = np.asarray(utilization, dtype=float)
    if utilization.shape != (state.cluster_count, state.server_count):
        raise ConfigurationError("utilization shape")
    if not (np.all(utilization >= -1e-9) and np.all(utilization <= 1.0 + 1e-9)):
        raise ConfigurationError("utilization must be finite and lie in [0, 1]")

    u_eff = _reference_effective_utilization(state, utilization, frequency_ghz)
    power = state.power_model.idle_power_w + (
        state.power_model.dynamic_range_w * u_eff
    )
    ua_scale, zone_delta_scale, _ = state.fault_scales
    zone_delta = state.characterization.zone_delta_at(u_eff)
    if zone_delta_scale != 1.0:
        zone_delta = zone_delta * zone_delta_scale
    target = state.inlet_temperature_c[:, None] + state.inlet_offset_c + zone_delta
    blend = 1.0 - np.exp(-dt_s / state.characterization.zone_time_constant_s)

    ua = state.characterization.ua_at(u_eff)
    if ua_scale != 1.0:
        ua = ua * ua_scale

    state.zone_temperature_c += blend * (target - state.zone_temperature_c)
    exchange = ua * (state.zone_temperature_c - state.wax_temperature_c)
    wax_heat = np.where(state.wax_enabled[:, None], exchange, 0.0)
    state.specific_enthalpy_j_per_kg += np.where(
        state.wax_enabled[:, None],
        wax_heat * dt_s / state.effective_wax_mass_kg,
        0.0,
    )
    return power, power - wax_heat, wax_heat


def _same(new, old):
    """Equal shape, dtype and bytes."""
    new, old = np.asarray(new), np.asarray(old)
    return (new.shape, new.dtype, new.tobytes()) == (
        old.shape,
        old.dtype,
        old.tobytes(),
    )


def _twin_states(spec, characterization, rng, clusters, servers, draw):
    """Two equal batched states from one set of drawn knobs."""
    from repro.dcsim.thermal_coupling import BatchedClusterThermalState

    kwargs = dict(
        characterization=characterization,
        power_model=spec.power_model,
        material=[
            commercial_paraffin_with_melting_point(float(melt))
            for melt in rng.choice(np.arange(36.0, 60.5, 0.5), clusters)
        ],
        cluster_count=clusters,
        server_count=servers,
        inlet_temperature_c=rng.uniform(18.0, 45.0, clusters),
        initial_utilization=rng.uniform(0.0, 1.0, clusters),
        wax_enabled=rng.random(clusters) < 0.75,
        inlet_offset_c=(
            rng.normal(0.0, 2.0, (clusters, servers)) if draw["offsets"] else None
        ),
    )
    states = [BatchedClusterThermalState(**kwargs) for _ in range(2)]
    if draw["faults"]:
        scales = dict(
            ua_scale=float(rng.uniform(0.3, 1.5)),
            zone_delta_scale=float(rng.uniform(0.5, 1.5)),
            wax_capacity_factor=float(rng.uniform(0.2, 1.0)),
        )
        for state in states:
            state.set_fault_scales(**scales)
    return states


def _utilization(rng, clusters, servers):
    """Per-server busy fractions with exact 0, 1 and uniform rows mixed in."""
    u = rng.uniform(0.0, 1.0, (clusters, servers))
    u[rng.random((clusters, servers)) < 0.1] = 0.0
    u[rng.random((clusters, servers)) < 0.1] = 1.0
    u[rng.random(clusters) < 0.3] = rng.uniform(0.0, 1.0)
    return u


def _check_against_reference(spec, characterization, seed, clusters, servers, draw):
    rng = np.random.default_rng(seed)
    state, reference = _twin_states(
        spec, characterization, rng, clusters, servers, draw
    )
    model = spec.power_model
    frequencies = [model.min_frequency_ghz, 2.0, model.nominal_frequency_ghz]
    for _ in range(draw["steps"]):
        u = _utilization(rng, clusters, servers)
        if draw["per_cluster_frequency"]:
            f = rng.choice(frequencies, clusters)
        else:
            f = float(rng.choice(frequencies))
        dt = float(rng.choice([1.0, 60.0, 600.0, rng.uniform(0.5, 900.0)]))
        assert _same(
            state.effective_utilization(u, f),
            _reference_effective_utilization(reference, u, f),
        )
        assert _same(state.power_w(u, f), _reference_power_w(reference, u, f))
        assert _same(
            state.wax_exchange_w(u, f), _reference_wax_exchange_w(reference, u, f)
        )
        new = state.step(dt, u, f)
        old = _reference_step(reference, dt, u, f)
        for a, b in zip(new, old):
            assert _same(a, b)
        assert _same(state.zone_temperature_c, reference.zone_temperature_c)
        assert _same(
            state.specific_enthalpy_j_per_kg, reference.specific_enthalpy_j_per_kg
        )


class TestStepAgainstReference:
    """The step returns, and leaves in its zone and enthalpy arrays, the
    reference step's bytes; the DVFS, power and wax-exchange helpers keep
    their old values and shapes. Per-cluster materials (36-60 degC),
    inlets (18-45 degC) and initial loads put the wax of one state in
    every branch of the enthalpy map."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        clusters=st.integers(1, 16),
        servers=st.integers(1, 64),
        draw=st.fixed_dictionaries(
            {
                "offsets": st.booleans(),
                "faults": st.booleans(),
                "per_cluster_frequency": st.booleans(),
                "steps": st.integers(1, 8),
            }
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_equal_to_the_reference_step(
        self, one_u_spec, one_u_characterization, seed, clusters, servers, draw
    ):
        _check_against_reference(
            one_u_spec, one_u_characterization, seed, clusters, servers, draw
        )

    @pytest.mark.parametrize("clusters", [1, 3])
    def test_byte_equal_at_1008_servers(
        self, one_u_spec, one_u_characterization, rng, clusters
    ):
        draw = {
            "offsets": True,
            "faults": clusters > 1,
            "per_cluster_frequency": clusters > 1,
            "steps": 6,
        }
        _check_against_reference(
            one_u_spec,
            one_u_characterization,
            int(rng.integers(2**32)),
            clusters,
            1008,
            draw,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.5])
    def test_out_of_range_utilization_raises_on_both(
        self, one_u_spec, one_u_characterization, rng, bad
    ):
        state, reference = _twin_states(
            one_u_spec,
            one_u_characterization,
            rng,
            2,
            4,
            {"offsets": False, "faults": False},
        )
        u = np.full((2, 4), 0.5)
        u[1, 2] = bad
        for step in (state.step, lambda *a: _reference_step(reference, *a)):
            with pytest.raises(ConfigurationError, match="utilization"):
                step(60.0, u, 2.4)

    @pytest.mark.parametrize("dt", [0.0, -60.0, np.nan, np.inf])
    def test_bad_tick_rejected_before_any_server_moves(
        self, one_u_spec, one_u_characterization, rng, dt
    ):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        state = BatchedClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            commercial_paraffin_with_melting_point(43.0),
            cluster_count=2,
            server_count=4,
        )
        zone = state.zone_temperature_c.copy()
        with pytest.raises(ConfigurationError, match="tick"):
            state.step(dt, np.full((2, 4), 0.5), 2.4)
        assert np.array_equal(state.zone_temperature_c, zone)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf])
    def test_column_rejects_a_bad_tick(self, cluster_state, dt):
        from repro.dcsim.thermal_coupling import UniformStretchAdvancer

        with pytest.raises(ConfigurationError, match="tick"):
            UniformStretchAdvancer(cluster_state, dt)
