"""Transient runs that stop at a temperature (``stop_at``), and the sprint
outcomes that rely on them matching the full-horizon runs."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.server.chassis import constant_utilization
from repro.sprinting import SprintChip, run_sprint, run_sprint_batch
from repro.sprinting.model import _sprint_outcome
from repro.thermal.solver import simulate_transient, simulate_transient_batch
from tests.test_server_chassis import minimal_chassis
from tests.test_solver_equivalence import assert_identical

CHIP = SprintChip()
LIMIT = ("die", CHIP.junction_limit_c)
INTERVAL = 0.05


def assert_prefix(stopped, full):
    """Every trace of ``stopped`` is the head of ``full``'s."""
    n = len(stopped.times_s)
    assert np.array_equal(stopped.times_s, full.times_s[:n])
    for field in (
        "temperatures_c",
        "air_temperatures_c",
        "melt_fractions",
        "pcm_enthalpies_j",
    ):
        ours, theirs = getattr(stopped, field), getattr(full, field)
        assert ours.keys() == theirs.keys()
        for name, trace in ours.items():
            assert np.array_equal(trace, theirs[name][:n])
    assert np.array_equal(stopped.flow_m3_s, full.flow_m3_s[:n])
    assert np.array_equal(stopped.power_w, full.power_w[:n])


class TestStopAt:
    @pytest.mark.parametrize(
        ("pcm_grams", "horizon_s"), [(0.0, 60.0), (10.0, 300.0)]
    )
    def test_stops_at_first_sample_over_the_limit(self, pcm_grams, horizon_s):
        network = CHIP.build_network(16.0, pcm_grams)
        full = simulate_transient(network, horizon_s, output_interval_s=INTERVAL)
        stopped = simulate_transient(
            network, horizon_s, output_interval_s=INTERVAL, stop_at=LIMIT
        )
        assert len(stopped.times_s) < len(full.times_s)
        assert_prefix(stopped, full)
        die = stopped.temperatures_c["die"]
        assert die[-1] >= CHIP.junction_limit_c
        assert np.all(die[:-1] < CHIP.junction_limit_c)

    def test_initial_sample_over_the_limit_stops_at_once(self):
        network = CHIP.build_network(16.0)
        stopped = simulate_transient(
            network, 60.0, output_interval_s=INTERVAL, stop_at=("die", 0.0)
        )
        assert stopped.times_s.tolist() == [0.0]

    def test_limit_never_reached_runs_to_the_horizon(self):
        network = CHIP.build_network(16.0)
        full = simulate_transient(network, 20.0, output_interval_s=INTERVAL)
        stopped = simulate_transient(
            network, 20.0, output_interval_s=INTERVAL, stop_at=LIMIT
        )
        assert len(stopped.times_s) == len(full.times_s)
        assert_prefix(stopped, full)

    def test_batch_members_stop_at_their_own_limit(self):
        powers = (12.0, 16.0, 20.0)
        networks = [CHIP.build_network(p, 10.0) for p in powers]
        full = simulate_transient_batch(
            networks, 400.0, output_interval_s=INTERVAL
        ).require_all()
        stopped = simulate_transient_batch(
            networks, 400.0, output_interval_s=INTERVAL, stop_at=LIMIT
        ).require_all()
        ends = [ours.times_s[-1] for ours in stopped]
        assert ends == pytest.approx([340.05, 246.3, 191.6])
        for power, ours, theirs in zip(powers, stopped, full):
            assert_prefix(ours, theirs)
            solo = simulate_transient(
                CHIP.build_network(power, 10.0),
                400.0,
                output_interval_s=INTERVAL,
                stop_at=LIMIT,
            )
            assert_identical(ours, solo)

    def test_batch_member_below_the_limit_runs_to_the_horizon(self):
        powers = (0.5, 16.0)
        networks = [CHIP.build_network(p) for p in powers]
        full = simulate_transient_batch(
            networks, 60.0, output_interval_s=INTERVAL
        ).require_all()
        stopped = simulate_transient_batch(
            networks, 60.0, output_interval_s=INTERVAL, stop_at=LIMIT
        ).require_all()
        # The 0.5 W member never reaches the limit; 16 W stops at 29.15 s.
        assert [len(ours.times_s) for ours in stopped] == [1201, 584]
        assert stopped[0].times_s[-1] == 60.0
        assert stopped[1].times_s[-1] == pytest.approx(29.15)
        for power, ours, theirs in zip(powers, stopped, full):
            assert_prefix(ours, theirs)
            solo = simulate_transient(
                CHIP.build_network(power),
                60.0,
                output_interval_s=INTERVAL,
                stop_at=LIMIT,
            )
            assert_identical(ours, solo)

    def test_a_node_comes_before_an_air_segment_of_its_name(self):
        # minimal_chassis names its component and its zone "cpu". The stop
        # watches the node, as TransientResult.temperature reads it; the
        # air segment never gets near the limit.
        network = minimal_chassis().build_network(constant_utilization(1.0))
        full = simulate_transient(network, 3600.0, output_interval_s=60.0)
        stopped = simulate_transient(
            network, 3600.0, output_interval_s=60.0, stop_at=("cpu", 48.4)
        )
        assert len(stopped.times_s) < len(full.times_s)
        assert_prefix(stopped, full)
        cpu = stopped.temperature("cpu")
        assert cpu[-1] >= 48.4
        assert np.all(cpu[:-1] < 48.4)
        assert np.all(full.air_temperatures_c["cpu"] < 48.4)

    def test_unknown_node_rejected(self):
        network = CHIP.build_network(16.0)
        with pytest.raises(ConfigurationError, match="junction"):
            simulate_transient(network, 1.0, stop_at=("junction", 75.0))
        with pytest.raises(ConfigurationError, match="junction"):
            simulate_transient_batch([network], 1.0, stop_at=("junction", 75.0))

    def test_bdf_rejected(self):
        network = CHIP.build_network(16.0)
        with pytest.raises(ConfigurationError, match="RK4"):
            simulate_transient(network, 1.0, method="bdf", stop_at=LIMIT)


def full_outcomes(powers, pcm_grams, horizon_s):
    """Sprint outcomes read from full-horizon runs."""
    networks = [CHIP.build_network(p, pcm_grams) for p in powers]
    if len(networks) == 1:
        results = [
            simulate_transient(networks[0], horizon_s, output_interval_s=INTERVAL)
        ]
    else:
        results = simulate_transient_batch(
            networks, horizon_s, output_interval_s=INTERVAL
        ).require_all()
    return [
        _sprint_outcome(CHIP, result, p, pcm_grams, horizon_s)
        for p, result in zip(powers, results)
    ]


class TestSprintOutcomes:
    """Stopped sprints equal the outcome of the full-horizon run."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        ("power", "pcm_grams", "horizon_s"),
        [
            (16.0, 0.0, 1800.0),  # extensions' bare sprint
            (8.0, 20.0, 3600.0),  # the control tournament's sprint budget
        ],
    )
    def test_paper_sprints(self, power, pcm_grams, horizon_s):
        outcome = run_sprint(CHIP, power, pcm_grams=pcm_grams, horizon_s=horizon_s)
        assert [outcome] == full_outcomes([power], pcm_grams, horizon_s)

    @pytest.mark.slow
    def test_paper_sprint_batch(self):
        powers = [12.0, 16.0, 20.0]  # extensions' 10 g sweep
        outcomes = run_sprint_batch(CHIP, powers, pcm_grams=10.0, horizon_s=1800.0)
        assert outcomes == full_outcomes(powers, 10.0, 1800.0)

    def test_batch_with_a_sustainable_member(self):
        powers = [0.5, 16.0]
        outcomes = run_sprint_batch(CHIP, powers, horizon_s=60.0)
        assert outcomes == full_outcomes(powers, 0.0, 60.0)
        assert not outcomes[0].hit_limit
        assert outcomes[0].duration_s == 60.0
        assert outcomes[1].hit_limit
