"""Tests for the melting-point optimizer."""

import numpy as np
import pytest

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
    def test_batched_peaks_match_serial_runs(
        self, one_u_spec, one_u_characterization, short_diurnal_trace
    ):
        """Every member of one batched fluid run must reproduce its own
        serial simulation's peak exactly (bit-identical stepping)."""
        from repro.core.melting_point import batched_fluid_peaks
        from repro.dcsim.simulator import DatacenterSimulator
        from repro.materials.library import (
            commercial_paraffin_with_melting_point,
        )

        topology = ClusterTopology(server_count=16)
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
                    mode="fluid", wax_enabled=bool(wax_enabled[index])
                ),
            ).run()
            assert peaks[index] == serial.peak_cooling_load_w

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
