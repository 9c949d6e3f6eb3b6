"""Tests for load balancing policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dcsim.loadbalancer import LeastLoaded, RoundRobin
from repro.errors import SimulationError


class TestRoundRobin:
    def test_rotates(self):
        balancer = RoundRobin()
        busy = np.zeros(3, dtype=int)
        choices = [balancer.choose(busy, 1) for _ in range(6)]
        assert choices == [0, 1, 2, 0, 1, 2]

    def test_skips_full_servers(self):
        balancer = RoundRobin()
        busy = np.array([1, 0, 1])
        assert balancer.choose(busy, 1) == 1

    def test_returns_none_when_saturated(self):
        balancer = RoundRobin()
        busy = np.array([2, 2])
        assert balancer.choose(busy, 2) is None

    def test_reset_restarts_rotation(self):
        balancer = RoundRobin()
        busy = np.zeros(3, dtype=int)
        balancer.choose(busy, 1)
        balancer.choose(busy, 1)
        balancer.reset()
        assert balancer.choose(busy, 1) == 0

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            RoundRobin().choose(np.array([], dtype=int), 1)

    def test_uniform_distribution_over_many_dispatches(self):
        balancer = RoundRobin()
        counts = np.zeros(4, dtype=int)
        busy = np.zeros(4, dtype=int)
        for _ in range(400):
            counts[balancer.choose(busy, 10)] += 1
        assert np.all(counts == 100)


class TestLeastLoaded:
    def test_picks_emptiest(self):
        balancer = LeastLoaded()
        assert balancer.choose(np.array([3, 1, 2]), 4) == 1

    def test_ties_to_lowest_index(self):
        balancer = LeastLoaded()
        assert balancer.choose(np.array([1, 1, 1]), 4) == 0

    def test_returns_none_when_saturated(self):
        balancer = LeastLoaded()
        assert balancer.choose(np.array([4, 4]), 4) is None

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            LeastLoaded().choose(np.array([], dtype=int), 1)


def _argmin_choice(busy_slots, slots_per_server, offline):
    """``LeastLoaded.choose`` as it was: ``np.argmin`` over the online
    servers."""
    if offline >= len(busy_slots):
        return None
    index = offline + int(np.argmin(busy_slots[offline:]))
    if busy_slots[index] >= slots_per_server:
        return None
    return index


class TestLeastLoadedOnListsAndArrays:
    """The batched event loop passes a Python list, the reference loop an
    array: both pick the first minimum, as ``np.argmin`` does."""

    @given(
        busy=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        slots=st.integers(1, 4),
        offline=st.integers(0, 42),
    )
    @settings(max_examples=300)
    # Ties among the online servers, and a saturated online remainder.
    @example(busy=[0, 0, 1, 1, 1], slots=4, offline=2)
    @example(busy=[0, 0, 4, 4], slots=4, offline=2)
    def test_list_and_array_pick_the_argmin(self, busy, slots, offline):
        balancer = LeastLoaded()
        balancer.set_offline(offline)
        expected = _argmin_choice(np.array(busy), slots, offline)
        assert balancer.choose(list(busy), slots) == expected
        assert balancer.choose(np.array(busy), slots) == expected
