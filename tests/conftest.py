"""Shared fixtures.

Expensive artifacts (platform characterizations, the two-day Google
trace) are session-scoped: they are pure functions of the configuration
and deterministic, so sharing them across tests changes nothing but the
wall-clock.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest
from hypothesis import settings

from repro.dcsim.simulator import _Plant
from repro.faults.invariants import check_run
from repro.server.characterization import characterize_platform
from repro.server.configs import (
    open_compute_blade,
    one_u_commodity,
    two_u_commodity,
)
from repro.workload.google import synthesize_google_trace
from repro.workload.trace import LoadTrace
from repro.units import hours

# Property-test draws: "ci" derandomizes them, so a failing PR lane points
# at the change under test rather than at a lucky draw; "fresh" keeps
# Hypothesis's new random draws for the weekly sweep. HYPOTHESIS_PROFILE
# selects one; unset, Hypothesis's own default applies.
settings.register_profile("ci", derandomize=True)
settings.register_profile("fresh", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "regenerate tests/golden/*.json from the current code instead "
            "of comparing against it"
        ),
    )


@pytest.fixture(scope="session")
def update_golden(request):
    """True when the run should rewrite the golden files."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def rng(request):
    """Deterministic per-test RNG for tests that need arbitrary data.

    Seeded from the test's node id, so every test draws a distinct but
    fully reproducible stream, and renaming/moving a test is the only
    way to change its data. Use this instead of ad-hoc
    ``np.random.default_rng(<literal>)`` calls; tests asserting
    *seed-specific* behaviour (e.g. replaying a recorded schedule)
    should keep their explicit seeds.
    """
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


class PlantInvariants:
    """The simulator runs one test made, each checked as it finished."""

    def __init__(self) -> None:
        self.runs = 0
        self.violations: list[str] = []

    def verify(self, simulates: bool = True) -> None:
        """Every checked run held; the test ran the simulator iff
        ``simulates`` (a run that bypassed the check would read 0)."""
        assert not self.violations, "\n".join(self.violations)
        assert (self.runs > 0) == simulates, f"{self.runs} runs checked"


@pytest.fixture
def plant_invariants(monkeypatch):
    """Check every simulator run of the test at the plant.

    ``_Plant.finish`` ends every fluid, event and geo run; wrapping it
    applies :func:`repro.faults.invariants.check_run` (finite traces,
    state of charge in [0, 1], energy closure) to each result, from the
    test side, so the library gains no option. Call
    :meth:`PlantInvariants.verify` after the runs.
    """
    checks = PlantInvariants()
    finish = _Plant.finish

    def checked_finish(plant, initial_power_w):
        result = finish(plant, initial_power_w)
        checks.runs += 1
        checks.violations += [str(v) for v in check_run(plant.sim, result)]
        return result

    monkeypatch.setattr(_Plant, "finish", checked_finish)
    return checks


@pytest.fixture(scope="session")
def one_u_spec():
    """The 1U low-power platform."""
    return one_u_commodity()


@pytest.fixture(scope="session")
def two_u_spec():
    """The 2U high-throughput platform."""
    return two_u_commodity()


@pytest.fixture(scope="session")
def ocp_spec():
    """The Open Compute blade platform."""
    return open_compute_blade()


@pytest.fixture(scope="session")
def all_specs(one_u_spec, two_u_spec, ocp_spec):
    """All three platforms keyed by short name."""
    return {"1u": one_u_spec, "2u": two_u_spec, "ocp": ocp_spec}


@pytest.fixture(scope="session")
def one_u_characterization(one_u_spec):
    """Lumped characterization of the 1U platform."""
    return characterize_platform(one_u_spec)


@pytest.fixture(scope="session")
def google_trace():
    """The full two-day Google-like trace."""
    return synthesize_google_trace()


@pytest.fixture(scope="session")
def short_diurnal_trace():
    """A compact single-day diurnal trace for fast simulator tests."""
    times = np.arange(0, hours(24.0) + 1, 600.0)
    hour = times / 3600.0
    values = 0.5 + 0.45 * np.sin(2 * np.pi * (hour - 7.0) / 24.0)
    return LoadTrace(times, np.clip(values, 0.05, 0.95), name="short-diurnal")
