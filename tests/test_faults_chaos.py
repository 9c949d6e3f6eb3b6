"""Chaos-harness regression tests: transparency, replay, bundles.

The fixture bundles under ``tests/fixtures/faults/`` are recorded runs
of two deliberately tricky seeds (three overlapping faults each, mixing
plant, sensor, and thermal kinds). Replaying them must reproduce the
stored trace fingerprint bit for bit — the exact-replay guarantee that
makes a chaos failure bundle a usable bug report. If a deliberate
physics change breaks them, regenerate with::

    PYTHONPATH=src python - <<'REGEN'
    from pathlib import Path
    from repro.faults.chaos import random_schedule, run_schedule, write_bundle
    from tests.test_faults_chaos import FIXTURE_CONFIG
    for seed in (18, 26):
        run = run_schedule(random_schedule(seed, FIXTURE_CONFIG), FIXTURE_CONFIG)
        assert run.ok, run.describe()
        write_bundle(run, Path("tests/fixtures/faults"))
    REGEN
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import FaultError
from repro.faults import FaultInjector, FaultSchedule, pcm_degradation_after
from repro.faults.chaos import (
    BUNDLE_SCHEMA,
    ChaosConfig,
    ChaosRun,
    build_simulator,
    check_engine_agreement,
    check_transparency,
    random_schedule,
    replay_bundle,
    result_fingerprint,
    run_schedule,
    run_seeds,
    write_bundle,
)
from repro.faults.invariants import (
    Violation,
    check_energy_balance,
    check_run,
    identical_results,
)
from repro.materials.library import Stability
from repro.units import hours

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "faults"

#: The configuration the fixture bundles were recorded against (also
#: stored inside each bundle; kept here for regeneration and for the
#: non-fixture tests, which want the same fast scenario).
FIXTURE_CONFIG = ChaosConfig(
    server_count=8,
    duration_s=hours(12.0),
    fault_start_s=hours(1.0),
    fault_end_s=hours(6.0),
    min_fault_s=hours(0.25),
    max_fault_s=hours(2.0),
    quiet_from_s=hours(8.0),
    relax_s=hours(2.0),
)


def fixture_bundles() -> list[Path]:
    return sorted(FIXTURE_DIR.glob("*.json"))


class TestFixtureReplay:
    def test_fixture_bundles_exist(self):
        assert len(fixture_bundles()) == 2

    @pytest.mark.parametrize(
        "path", fixture_bundles(), ids=lambda p: p.stem
    )
    def test_replay_reproduces_stored_fingerprint(self, path):
        stored = json.loads(path.read_text())
        run = replay_bundle(path)
        assert run.ok, run.describe()
        assert run.fingerprint == stored["fingerprint"]

    @pytest.mark.parametrize(
        "path", fixture_bundles(), ids=lambda p: p.stem
    )
    def test_fixture_schedules_are_tricky(self, path):
        """The fixtures must keep earning their keep: several faults of
        several kinds, with at least one overlapping pair."""
        schedule = FaultSchedule.from_dict(
            json.loads(path.read_text())["schedule"]
        )
        assert len(schedule) >= 2
        assert len(schedule.kinds()) >= 2
        assert any(
            a.start_s < b.end_s and b.start_s < a.end_s
            for i, a in enumerate(schedule.faults)
            for b in schedule.faults[i + 1 :]
        )

    def test_fixture_seed_regenerates_identical_schedule(self):
        """The bundle's seed alone reproduces its exact schedule."""
        for path in fixture_bundles():
            data = json.loads(path.read_text())
            config = ChaosConfig(**data["config"])
            regenerated = random_schedule(int(data["seed"]), config)
            assert regenerated == FaultSchedule.from_dict(data["schedule"])


class TestTransparency:
    def test_empty_schedule_is_byte_identical(self):
        """The subsystem's acceptance gate: an installed injector with
        nothing scheduled must leave no trace in any output array."""
        assert check_transparency(FIXTURE_CONFIG)

    def test_same_schedule_replays_bit_identically(self):
        schedule = random_schedule(3, FIXTURE_CONFIG)
        first = build_simulator(
            FIXTURE_CONFIG, FaultInjector(schedule)
        ).run()
        second = build_simulator(
            FIXTURE_CONFIG,
            FaultInjector(FaultSchedule.from_json(schedule.to_json())),
        ).run()
        assert identical_results(first, second)
        assert result_fingerprint(first) == result_fingerprint(second)


class TestEventMode:
    """The event engines under the default
    ``FaultResponsePolicy(RoomTemperaturePolicy)`` stack, on a small
    plant (8 servers, 10 hours, 120 s ticks)."""

    CONFIG = ChaosConfig(
        server_count=8,
        duration_s=hours(10.0),
        tick_interval_s=120.0,
        fault_start_s=hours(1.0),
        fault_end_s=hours(5.0),
        max_fault_s=hours(2.0),
        quiet_from_s=hours(6.0),
        relax_s=hours(2.0),
        mode="event",
    )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engines_agree_and_invariants_hold(self, seed):
        assert check_engine_agreement(self.CONFIG, seed)
        run = run_schedule(random_schedule(seed, self.CONFIG), self.CONFIG)
        assert run.ok, run.describe()


class TestCheckRun:
    def _run(self, schedule: FaultSchedule):
        simulator = build_simulator(FIXTURE_CONFIG, FaultInjector(schedule))
        return simulator, simulator.run()

    def test_closure_skipped_only_under_pcm_degradation(self):
        """A run whose wax degrades mid-run fails the banked-vs-integrated
        closure, so check_run skips it there, and only there."""
        degradation = pcm_degradation_after(
            Stability.GOOD, 6.0, 0.0, FIXTURE_CONFIG.duration_s
        )
        simulator, result = self._run(FaultSchedule((degradation,)))
        assert check_run(simulator, result) == []
        final = simulator.final_state
        closure = check_energy_balance(
            result,
            FIXTURE_CONFIG.tick_interval_s,
            simulator.initial_specific_enthalpy_j_per_kg,
            final,
            final.wax_mass_kg,
        )
        assert [v.invariant for v in closure] == ["energy_balance"]

    def test_closure_checked_without_pcm_degradation(self):
        simulator, result = self._run(FaultSchedule.empty())
        assert check_run(simulator, result) == []
        simulator.initial_specific_enthalpy_j_per_kg += 1000.0
        violations = check_run(simulator, result)
        assert [v.invariant for v in violations] == ["energy_balance"]
        assert "closure" in violations[0].message


class TestBundles:
    def test_write_and_replay_round_trip(self, tmp_path):
        run = run_schedule(
            random_schedule(7, FIXTURE_CONFIG), FIXTURE_CONFIG
        )
        path = write_bundle(run, tmp_path)
        data = json.loads(path.read_text())
        assert data["schema"] == BUNDLE_SCHEMA
        assert data["seed"] == 7
        replayed = replay_bundle(path)
        assert replayed.fingerprint == run.fingerprint
        assert replayed.schedule == run.schedule
        assert replayed.config == run.config

    def test_bundle_records_violations(self, tmp_path):
        run = run_schedule(
            random_schedule(7, FIXTURE_CONFIG), FIXTURE_CONFIG
        )
        failing = ChaosRun(
            config=run.config,
            schedule=run.schedule,
            result=run.result,
            violations=(Violation("finite", "power_w[3] = nan"),),
        )
        assert not failing.ok
        assert "finite" in failing.describe()
        data = json.loads(write_bundle(failing, tmp_path).read_text())
        assert data["violations"] == [
            {"invariant": "finite", "message": "power_w[3] = nan"}
        ]

    def test_run_seeds_bundles_failures_only(self, tmp_path, monkeypatch):
        import repro.faults.chaos as chaos

        real = chaos.run_schedule

        def sabotage(schedule, config=None):
            run = real(schedule, config)
            if schedule.seed == 1:
                return ChaosRun(
                    config=run.config,
                    schedule=run.schedule,
                    result=run.result,
                    violations=(Violation("finite", "injected"),),
                )
            return run

        monkeypatch.setattr(chaos, "run_schedule", sabotage)
        runs = run_seeds((0, 1), FIXTURE_CONFIG, bundle_dir=tmp_path)
        assert [run.ok for run in runs] == [True, False]
        assert [p.name for p in sorted(tmp_path.glob("*.json"))] == [
            "chaos-1.json"
        ]

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(FaultError):
            replay_bundle(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{truncated")
        with pytest.raises(FaultError):
            replay_bundle(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        source = fixture_bundles()[0]
        data = json.loads(source.read_text())
        data["schema"] = "repro.faults.bundle/99"
        path.write_text(json.dumps(data))
        with pytest.raises(FaultError):
            replay_bundle(path)
