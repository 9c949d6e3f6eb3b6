"""Tests for the melting-point optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.melting_point import optimize_melting_point
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.simulator import SimulationConfig
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def search(one_u_spec, one_u_characterization, google_trace):
    """One shared coarse search for the whole module."""
    return optimize_melting_point(
        one_u_characterization,
        one_u_spec.power_model,
        google_trace.total,
        topology=ClusterTopology(server_count=128),
        window_c=(40.0, 50.0),
        step_c=1.0,
    )


class TestSearch:
    def test_candidates_cover_window(self, search):
        assert search.candidates_c[0] == pytest.approx(40.0)
        assert search.candidates_c[-1] == pytest.approx(50.0)

    def test_best_is_argmin(self, search):
        best_index = int(np.argmin(search.peak_cooling_w))
        assert search.best_melting_point_c == pytest.approx(
            search.candidates_c[best_index]
        )
        assert search.best_peak_w == pytest.approx(
            search.peak_cooling_w[best_index]
        )

    def test_best_never_exceeds_baseline(self, search):
        assert search.best_peak_w <= search.baseline_peak_w

    def test_reduction_meaningful(self, search):
        # The optimized wax clips several percent off the 1U peak.
        assert search.best_reduction_fraction > 0.04

    def test_best_in_expected_band(self, search):
        # The 1U wax-zone swing puts the optimum in the low 40s: the wax
        # "begins to melt when a server exceeds 75% load".
        assert 41.0 <= search.best_melting_point_c <= 46.0


class TestValidation:
    def test_inverted_window_rejected(
        self, one_u_characterization, google_trace
    ):
        from repro.server.configs import one_u_commodity

        with pytest.raises(ConfigurationError):
            optimize_melting_point(
                one_u_characterization,
                one_u_commodity().power_model,
                google_trace.total,
                window_c=(50.0, 40.0),
            )

    def test_wax_disabled_config_rejected(
        self, one_u_characterization, google_trace
    ):
        from repro.server.configs import one_u_commodity

        with pytest.raises(ConfigurationError):
            optimize_melting_point(
                one_u_characterization,
                one_u_commodity().power_model,
                google_trace.total,
                config=SimulationConfig(wax_enabled=False),
            )


def test_event_mode_baseline_keeps_the_config(
    monkeypatch, one_u_characterization, google_trace
):
    """The wax-off baseline differs from the search config only in
    ``wax_enabled``; the engine choice carries over."""
    import dataclasses

    import repro.core.melting_point as melting_point
    from repro.server.configs import one_u_commodity

    configs = []

    def fake_sweep(func, tasks, jobs, label):
        configs.extend(task[4] for task in tasks)
        return [1.0] * len(tasks)

    monkeypatch.setattr(melting_point, "sweep", fake_sweep)
    config = SimulationConfig(mode="event", engine="reference", seed=3)
    optimize_melting_point(
        one_u_characterization,
        one_u_commodity().power_model,
        google_trace.total,
        window_c=(40.0, 41.0),
        step_c=1.0,
        config=config,
    )
    assert configs[0] == dataclasses.replace(config, wax_enabled=False)
    assert configs[1:] == [config, config]


class TestBatchedFluidEquivalence:
    # 7 and 16 cover the pairwise sum's 8-wide unroll, 129 and 1008 its
    # 128-element blocks.
    @pytest.mark.parametrize("servers", [1, 7, 16, 129, 1008])
    def test_batched_peaks_match_serial_runs(
        self, one_u_spec, one_u_characterization, short_diurnal_trace, servers
    ):
        """Every member of one batched fluid run must reproduce its own
        serial simulation's peak exactly (bit-identical stepping): the
        search steps one server column, the reference engine every
        server."""
        from repro.core.melting_point import batched_fluid_peaks
        from repro.dcsim.simulator import DatacenterSimulator
        from repro.materials.library import (
            commercial_paraffin_with_melting_point,
        )

        topology = ClusterTopology(server_count=servers)
        materials = [
            commercial_paraffin_with_melting_point(melt)
            for melt in (40.0, 43.0, 47.0)
        ]
        wax_enabled = np.array([False, True, True])
        peaks = batched_fluid_peaks(
            one_u_characterization,
            one_u_spec.power_model,
            materials,
            wax_enabled,
            short_diurnal_trace,
            topology,
            SimulationConfig(mode="fluid"),
        )
        for index, material in enumerate(materials):
            serial = DatacenterSimulator(
                one_u_characterization,
                one_u_spec.power_model,
                material,
                short_diurnal_trace,
                topology=topology,
                config=SimulationConfig(
                    mode="fluid",
                    engine="reference",
                    wax_enabled=bool(wax_enabled[index]),
                ),
            ).run()
            assert peaks[index] == serial.peak_cooling_load_w

    def test_wax_flags_of_the_wrong_length_are_rejected(
        self, one_u_spec, one_u_characterization, short_diurnal_trace
    ):
        from repro.core.melting_point import batched_fluid_peaks
        from repro.materials.library import (
            commercial_paraffin_with_melting_point,
        )

        materials = [
            commercial_paraffin_with_melting_point(melt)
            for melt in (40.0, 43.0, 47.0)
        ]
        with pytest.raises(ConfigurationError, match="wax_enabled"):
            batched_fluid_peaks(
                one_u_characterization,
                one_u_spec.power_model,
                materials,
                np.array([False, True]),
                short_diurnal_trace,
                ClusterTopology(server_count=16),
                SimulationConfig(mode="fluid"),
            )

    def test_fluid_search_matches_event_free_serial_grid(
        self, one_u_spec, one_u_characterization, short_diurnal_trace
    ):
        """The batched fluid search returns the same winner as explicit
        per-candidate serial simulations."""
        from repro.dcsim.simulator import DatacenterSimulator
        from repro.materials.library import (
            commercial_paraffin_with_melting_point,
        )

        topology = ClusterTopology(server_count=16)
        search = optimize_melting_point(
            one_u_characterization,
            one_u_spec.power_model,
            short_diurnal_trace,
            topology=topology,
            window_c=(42.0, 46.0),
            step_c=2.0,
        )
        for melt_c, peak in zip(search.candidates_c, search.peak_cooling_w):
            serial = DatacenterSimulator(
                one_u_characterization,
                one_u_spec.power_model,
                commercial_paraffin_with_melting_point(float(melt_c)),
                short_diurnal_trace,
                topology=topology,
                config=SimulationConfig(mode="fluid", wax_enabled=True),
            ).run()
            assert peak == serial.peak_cooling_load_w


def _per_tick_peaks(
    characterization, power_model, materials, wax_enabled, trace, topology, config
):
    """The search loop as it was: a demand lookup and a cluster total
    every tick, the peak taken over the totals."""
    from repro.dcsim.thermal_coupling import (
        BatchedClusterThermalState,
        uniform_totals,
    )

    n_servers = topology.server_count
    dt = config.tick_interval_s
    n_ticks = int(np.floor(trace.duration_s / dt))
    ticks = (np.arange(n_ticks) + 1) * dt
    state = BatchedClusterThermalState(
        characterization=characterization,
        power_model=power_model,
        material=materials,
        cluster_count=len(materials),
        server_count=1,
        inlet_temperature_c=config.inlet_temperature_c,
        initial_utilization=float(np.clip(trace.value_at(0.0), 0.0, 1.0)),
        wax_enabled=wax_enabled,
    )
    nominal = power_model.nominal_frequency_ghz
    tf = power_model.throughput_factor(nominal)
    peaks = np.full(len(materials), -np.inf)
    utilization = np.empty((len(materials), 1))
    for t in ticks:
        demand = float(np.clip(trace.value_at(t - 0.5 * dt), 0.0, 1.0))
        utilization[:] = np.minimum(demand / tf, 1.0)
        _power, release, _wax = state.step(dt, utilization, nominal)
        np.maximum(peaks, uniform_totals(release, n_servers), out=peaks)
    return peaks


def _boundary_materials(characterization, power_model, trace, config):
    """Paraffins whose solidus, or liquidus, is exactly the search's
    initial zone temperature, so the wax starts on that phase boundary
    (enthalpy exactly 0, or exactly the heat of fusion)."""
    import dataclasses

    from repro.dcsim.thermal_coupling import BatchedClusterThermalState
    from repro.materials.library import commercial_paraffin_with_melting_point

    base = commercial_paraffin_with_melting_point(40.0)
    zone = float(
        BatchedClusterThermalState(
            characterization,
            power_model,
            base,
            cluster_count=1,
            server_count=1,
            inlet_temperature_c=config.inlet_temperature_c,
            initial_utilization=float(np.clip(trace.value_at(0.0), 0.0, 1.0)),
        ).zone_temperature_c[0, 0]
    )
    half = 0.5 * base.melting_range_c
    at_solidus = dataclasses.replace(base, melting_point_c=zone + half)
    at_liquidus = dataclasses.replace(base, melting_point_c=zone - half)
    assert at_solidus.solidus_c == zone
    assert at_liquidus.liquidus_c == zone
    return [at_solidus, at_liquidus]


class TestSearchAgainstPerTickLoop:
    """One demand lookup and one fill-and-sum per search give the peaks
    of a lookup and a total every tick, byte for byte."""

    @given(
        servers=st.one_of(st.integers(1, 1008), st.sampled_from([1, 8, 129, 1008])),
        melting_points=st.lists(
            st.sampled_from([36.0, 39.0, 40.5, 43.0, 47.0, 52.0, 60.0]),
            min_size=0,
            max_size=6,
        ),
        wax=st.lists(st.booleans(), min_size=10, max_size=10),
        inlet_c=st.sampled_from([20.0, 25.0, 30.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_byte_equal_peaks(
        self,
        one_u_spec,
        one_u_characterization,
        short_diurnal_trace,
        servers,
        melting_points,
        wax,
        inlet_c,
    ):
        from repro.core.melting_point import batched_fluid_peaks
        from repro.materials.library import commercial_paraffin_with_melting_point

        config = SimulationConfig(mode="fluid", inlet_temperature_c=inlet_c)
        args = (one_u_characterization, one_u_spec.power_model)
        materials = _boundary_materials(*args, short_diurnal_trace, config)
        materials += [
            commercial_paraffin_with_melting_point(melt) for melt in melting_points
        ]
        wax_enabled = np.array(wax[: len(materials)])
        topology = ClusterTopology(server_count=servers)
        peaks = batched_fluid_peaks(
            *args, materials, wax_enabled, short_diurnal_trace, topology, config
        )
        reference = _per_tick_peaks(
            *args, materials, wax_enabled, short_diurnal_trace, topology, config
        )
        assert peaks.tobytes() == reference.tobytes()


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_c": np.nan},
            {"step_c": np.inf},
            {"window_c": (-np.inf, 60.0)},
            {"window_c": (40.0, np.inf)},
            {"window_c": (np.nan, 60.0)},
        ],
    )
    def test_search_rejects_non_finite_grid(
        self, one_u_characterization, one_u_spec, short_diurnal_trace, kwargs
    ):
        with pytest.raises(ConfigurationError, match="melting window|grid step"):
            optimize_melting_point(
                one_u_characterization,
                one_u_spec.power_model,
                short_diurnal_trace,
                **kwargs,
            )
