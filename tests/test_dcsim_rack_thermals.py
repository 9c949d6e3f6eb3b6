"""Tests for rack-level inlet heterogeneity."""

import numpy as np
import pytest

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.rack_thermals import RackInletProfile
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point


@pytest.fixture
def topology():
    return ClusterTopology(server_count=80, servers_per_rack=40)


class TestProfile:
    def test_offsets_shape(self, topology):
        offsets = RackInletProfile().offsets_c(topology)
        assert offsets.shape == (80,)

    def test_vertical_spread_spans_rack(self, topology):
        profile = RackInletProfile(
            vertical_spread_c=4.0, recirculation_c=0.0,
            recirculation_racks=0, jitter_c=0.0,
        )
        offsets = profile.offsets_c(topology)
        rack0 = offsets[:40]
        assert rack0[-1] - rack0[0] == pytest.approx(4.0)
        # Zero-mean vertical term.
        assert float(np.mean(rack0)) == pytest.approx(0.0, abs=1e-9)

    def test_recirculation_hits_end_racks(self):
        topology = ClusterTopology(server_count=160, servers_per_rack=40)
        profile = RackInletProfile(
            vertical_spread_c=0.0, recirculation_c=2.0,
            recirculation_racks=1, jitter_c=0.0,
        )
        offsets = profile.offsets_c(topology)
        assert np.all(offsets[:40] == 2.0)   # first rack
        assert np.all(offsets[-40:] == 2.0)  # last rack
        assert np.all(offsets[40:120] == 0.0)

    def test_jitter_deterministic(self, topology):
        a = RackInletProfile(seed=5).offsets_c(topology)
        b = RackInletProfile(seed=5).offsets_c(topology)
        assert np.array_equal(a, b)

    def test_uniform_control(self, topology):
        control = RackInletProfile().uniform()
        assert np.all(control.offsets_c(topology) == 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RackInletProfile(vertical_spread_c=-1.0)
        with pytest.raises(ConfigurationError):
            RackInletProfile(recirculation_racks=-1)


class TestSimulatorIntegration:
    def test_offsets_diverge_wax_state(
        self, one_u_spec, one_u_characterization, short_diurnal_trace, topology
    ):
        material = commercial_paraffin_with_melting_point(43.0)
        offsets = RackInletProfile(
            vertical_spread_c=6.0, recirculation_c=0.0,
            recirculation_racks=0, jitter_c=0.0,
        ).offsets_c(topology)
        from repro.dcsim.thermal_coupling import ClusterThermalState

        state = ClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            server_count=80,
            inlet_offset_c=offsets,
        )
        for _ in range(6 * 60):
            state.step(60.0, np.full(80, 0.85), 2.4)
        melt = state.melt_fraction
        # The hottest server in a rack melts more than the coolest.
        assert melt[39] > melt[0]

    def test_heterogeneity_erodes_reduction(
        self, one_u_spec, one_u_characterization, google_trace, topology
    ):
        material = commercial_paraffin_with_melting_point(43.0)

        def reduction(offsets):
            peaks = {}
            for wax in (False, True):
                peaks[wax] = (
                    DatacenterSimulator(
                        one_u_characterization,
                        one_u_spec.power_model,
                        material,
                        google_trace.total,
                        topology=topology,
                        inlet_offsets_c=offsets,
                        config=SimulationConfig(wax_enabled=wax),
                    )
                    .run()
                    .peak_cooling_load_w
                )
            return 1.0 - peaks[True] / peaks[False]

        uniform = reduction(None)
        spread = reduction(
            RackInletProfile(
                vertical_spread_c=8.0, recirculation_c=3.0, jitter_c=0.5
            ).offsets_c(topology)
        )
        assert spread < uniform

    def test_wrong_offset_shape_rejected(
        self, one_u_spec, one_u_characterization
    ):
        from repro.dcsim.thermal_coupling import ClusterThermalState

        with pytest.raises(ConfigurationError):
            ClusterThermalState(
                one_u_characterization,
                one_u_spec.power_model,
                commercial_paraffin_with_melting_point(43.0),
                server_count=8,
                inlet_offset_c=np.zeros(5),
            )

    def test_enthalpy_array_roundtrip(self, one_u_spec, one_u_characterization):
        from repro.dcsim.thermal_coupling import BatchedClusterThermalState

        material = commercial_paraffin_with_melting_point(43.0)
        # One cluster per inlet, so the zones span solid, mushy and liquid.
        state = BatchedClusterThermalState(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            cluster_count=41,
            server_count=1,
            inlet_temperature_c=np.linspace(20.0, 60.0, 41),
        )
        temps = state.zone_temperature_c[:, 0]
        h = state.specific_enthalpy_j_per_kg[:, 0]
        assert h.tolist() == [
            material.enthalpy_at_temperature(t) for t in temps.tolist()
        ]
        back = state.wax_temperature_c[:, 0]
        assert np.allclose(back, temps, atol=1e-9)
