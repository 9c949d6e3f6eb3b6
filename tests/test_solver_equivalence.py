"""Equivalence suite across the solver's evaluation paths.

The solver keeps two ways of evaluating the same physics: the readable
dict-based reference (``ThermalNetwork.state_derivative``) and the
compiled vectorized kernel (``_CompiledNetwork.rhs``). These
property-based tests pin them together on randomly generated networks —
with and without PCM and air paths — so a kernel optimization can never
silently drift from the reference physics. ``simulate_transient_batch``
runs each member through ``simulate_transient``, so every member must
equal its solo run byte for byte, whatever its stability bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.materials.pcm import PCMSample
from repro.thermal.airflow import (
    AirPath,
    AirSegment,
    FanBank,
    FanCurve,
    SystemImpedance,
)
from repro.thermal.convection import ConvectiveCoupling
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import (
    TransientResult,
    _CompiledNetwork,
    simulate_transient,
    simulate_transient_batch,
)

#: Matching tolerance the issue pins: vectorized vs reference to 1e-9
#: relative. The kernels typically agree to ~1e-14; the slack is for
#: ill-conditioned random networks.
RTOL = 1e-9


def build_network(
    capacities: list[float],
    powers: list[float],
    conductances: list[float],
    ambient_c: float,
    pcm_mass_kg: float,
    with_air: bool,
    name: str = "random",
) -> ThermalNetwork:
    """A deterministic chain network from drawn parameters.

    ``c0 - c1 - ... - ambient`` with optional PCM hung off the last
    capacitive node and an optional two-segment air path over the chain.
    """
    network = ThermalNetwork(name)
    network.add_boundary_node("ambient", ambient_c)
    names = [f"c{i}" for i in range(len(capacities))]
    for node, capacity, power in zip(names, capacities, powers):
        network.add_capacitive_node(node, capacity, 25.0, power_w=power)
    for (a, b), g in zip(zip(names, names[1:] + ["ambient"]), conductances):
        network.add_conductance(a, b, g)
    if pcm_mass_kg > 0:
        sample = PCMSample(
            material=commercial_paraffin_with_melting_point(43.0),
            mass_kg=pcm_mass_kg,
        )
        sample.set_temperature(25.0)
        network.add_pcm_node("wax", sample)
        network.add_conductance("wax", names[-1], conductances[0])
    if with_air:
        network.add_boundary_node("inlet", ambient_c - 2.0)
        front = AirSegment("front")
        front.couple(ConvectiveCoupling(names[0], 1.5, 0.01))
        rear = AirSegment("rear")
        rear.couple(ConvectiveCoupling(names[-1], 2.0, 0.01))
        if pcm_mass_kg > 0:
            rear.couple(ConvectiveCoupling("wax", 1.0, 0.01))
        network.set_air_path(
            AirPath(
                fans=FanBank(FanCurve(60.0, 0.004), count=4),
                base_impedance=SystemImpedance(400_000.0),
                segments=[front, rear],
                duct_area_m2=0.01,
            )
        )
    return network


network_params = st.fixed_dictionaries(
    {
        "capacities": st.lists(
            st.floats(min_value=50.0, max_value=500.0), min_size=1, max_size=4
        ),
        "power": st.floats(min_value=0.0, max_value=60.0),
        "conductance": st.floats(min_value=0.2, max_value=4.0),
        "ambient_c": st.floats(min_value=15.0, max_value=35.0),
        "pcm_mass_kg": st.sampled_from([0.0, 0.2, 1.0]),
        "with_air": st.booleans(),
    }
)


def network_from(params: dict, name: str = "random") -> ThermalNetwork:
    n = len(params["capacities"])
    return build_network(
        capacities=params["capacities"],
        powers=[params["power"] * (i + 1) / n for i in range(n)],
        conductances=[params["conductance"]] * n,
        ambient_c=params["ambient_c"],
        pcm_mass_kg=params["pcm_mass_kg"],
        with_air=params["with_air"],
        name=name,
    )


def assert_identical(actual: TransientResult, expected: TransientResult) -> None:
    """Every field equal, compared as bytes (so -0.0 and NaN bits count)."""
    assert actual.times_s.tobytes() == expected.times_s.tobytes()
    for field in (
        "temperatures_c",
        "air_temperatures_c",
        "melt_fractions",
        "pcm_enthalpies_j",
    ):
        got, want = getattr(actual, field), getattr(expected, field)
        assert list(got) == list(want), field
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (field, name)
    assert actual.flow_m3_s.tobytes() == expected.flow_m3_s.tobytes()
    assert actual.power_w.tobytes() == expected.power_w.tobytes()


class TestRHSEquivalence:
    @given(params=network_params, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_compiled_matches_reference(self, params, seed):
        """Vectorized kernel == dict reference on random networks."""
        network = network_from(params)
        compiled = _CompiledNetwork(network)
        rng = np.random.default_rng(seed)
        state = network.initial_state()
        state[: len(params["capacities"])] += rng.uniform(
            -5.0, 10.0, size=len(params["capacities"])
        )
        for time_s in (0.0, 137.0, 4321.0):
            reference = network.state_derivative(state, time_s)
            fast = compiled.rhs(state, time_s)
            scale = np.maximum(1.0, np.abs(reference))
            assert np.all(np.abs(fast - reference) <= RTOL * scale)


class TestTrajectoryEquivalence:
    @given(params=network_params)
    @settings(max_examples=15, deadline=None)
    def test_batch_of_one_matches_single(self, params):
        """A one-member batch reproduces the single-network trajectory."""
        single = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0
        )
        batch = simulate_transient_batch(
            [network_from(params)], 120.0, output_interval_s=30.0
        )
        (member,) = batch.require_all()
        assert_identical(member, single)

    @given(params=network_params)
    @settings(max_examples=10, deadline=None)
    def test_heterogeneous_batch_matches_singles(self, params):
        """Members with different powers and capacities each equal their
        own solo run byte for byte. A tenth of the capacity gives a member
        a smaller stability bound than the others', and it steps at its
        own bound."""
        variants = ((0.5, 1.0), (1.0, 0.1), (1.7, 1.0))

        def variant(power_scale: float, capacity_scale: float) -> ThermalNetwork:
            varied = dict(
                params,
                power=params["power"] * power_scale,
                capacities=[c * capacity_scale for c in params["capacities"]],
            )
            return network_from(
                varied, name=f"variant-{power_scale}-{capacity_scale}"
            )

        batch = simulate_transient_batch(
            [variant(*scales) for scales in variants],
            120.0,
            output_interval_s=30.0,
        )
        for scales, member in zip(variants, batch.require_all()):
            solo = simulate_transient(
                variant(*scales), 120.0, output_interval_s=30.0
            )
            assert_identical(member, solo)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestDivergenceIsolation:
    @staticmethod
    def _unstable_network() -> ThermalNetwork:
        """A member whose power goes non-finite partway through the run."""
        network = ThermalNetwork("unstable")
        network.add_boundary_node("ambient", 25.0)
        network.add_capacitive_node(
            "node",
            200.0,
            25.0,
            power_w=lambda t: np.inf if t >= 45.0 else 10.0,
        )
        network.add_conductance("node", "ambient", 0.5)
        return network

    @staticmethod
    def _healthy_network() -> ThermalNetwork:
        network = ThermalNetwork("healthy")
        network.add_boundary_node("ambient", 25.0)
        network.add_capacitive_node("node", 200.0, 25.0, power_w=10.0)
        network.add_conductance("node", "ambient", 0.5)
        return network

    def test_single_path_raises(self):
        with pytest.raises(SolverError, match="non-finite"):
            simulate_transient(
                self._unstable_network(), 120.0, output_interval_s=30.0
            )

    def test_batch_isolates_failing_member(self):
        batch = simulate_transient_batch(
            [self._healthy_network(), self._unstable_network()],
            120.0,
            output_interval_s=30.0,
        )
        assert list(batch.failures) == [1]
        assert "non-finite" in batch.failures[1]
        assert batch[1] is None
        # The healthy member is unaffected by its diverged neighbor.
        solo = simulate_transient(
            self._healthy_network(), 120.0, output_interval_s=30.0
        )
        assert_identical(batch[0], solo)

    def test_require_all_raises_on_failure(self):
        batch = simulate_transient_batch(
            [self._healthy_network(), self._unstable_network()],
            120.0,
            output_interval_s=30.0,
        )
        with pytest.raises(SolverError, match=r"\[1\]"):
            batch.require_all()


class TestSteadyBatchEquivalence:
    @given(params=network_params)
    @settings(max_examples=15, deadline=None)
    def test_batch_bit_identical_to_serial(self, params):
        """Batched steady solve == serial solves, exactly (same sweep
        arithmetic, elementwise over the member axis)."""
        from repro.thermal.steady_state import (
            solve_steady_state,
            solve_steady_state_batch,
        )

        power_scales = (0.6, 1.0, 1.4)

        def variant(scale: float) -> ThermalNetwork:
            varied = dict(params, power=params["power"] * scale)
            return network_from(varied, name=f"steady-{scale}")

        batched = solve_steady_state_batch(
            [variant(scale) for scale in power_scales]
        )
        for scale, member in zip(power_scales, batched):
            serial = solve_steady_state(variant(scale))
            assert member.iterations == serial.iterations
            for node, temp in serial.temperatures_c.items():
                assert member.temperatures_c[node] == temp, (scale, node)

    def test_chassis_blockage_batch_matches_serial(self, one_u_spec):
        from repro.server.chassis import constant_utilization
        from repro.thermal.steady_state import (
            solve_steady_state,
            solve_steady_state_batch,
        )

        fractions = (0.0, 0.45, 0.90)

        def network_at(fraction: float) -> ThermalNetwork:
            return one_u_spec.chassis.with_grille_blockage(
                fraction
            ).build_network(constant_utilization(1.0))

        batched = solve_steady_state_batch(
            [network_at(fraction) for fraction in fractions]
        )
        for fraction, member in zip(fractions, batched):
            serial = solve_steady_state(network_at(fraction))
            for node, temp in serial.temperatures_c.items():
                assert member.temperatures_c[node] == temp, (fraction, node)
