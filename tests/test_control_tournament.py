"""Tournament regression tests: scoring, acceptance orderings, bundles.

The fixture bundles under ``tests/fixtures/control/`` are recorded
tournament runs whose scoreboard fingerprints must replay bit-identically
on every future tree. Regenerate them deliberately after a physics or
scoring change with::

    PYTHONPATH=src python - <<'PY'
    from pathlib import Path
    from repro.control.tournament import (
        ControlScenario, pinned_cooling_loss, run_scenario,
        smoke_chaos_config, write_bundle,
    )
    config = smoke_chaos_config()
    for run in (
        run_scenario(
            ControlScenario(
                name="chaos_seed11", chaos=config, fault_seed=11
            ),
            ("greedy", "mpc"),
        ),
        run_scenario(
            ControlScenario(
                name="pinned_cooling_loss_smoke",
                chaos=config,
                pinned=pinned_cooling_loss(config),
            ),
            ("greedy", "scheduled"),
        ),
    ):
        print(write_bundle(run, Path("tests/fixtures/control")))
    PY
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.control.tournament import (
    BUNDLE_SCHEMA,
    ControlScenario,
    PlannerScore,
    Scoreboard,
    build_scenario_simulator,
    default_scenarios,
    main,
    pinned_cooling_loss,
    read_bundle,
    recovery_time_s,
    replay_bundle,
    run_scenario,
    run_tournament,
    smoke_chaos_config,
    write_bundle,
)
from repro.errors import ControlError
from repro.faults.schedule import COOLING_LOSS, Fault, FaultSchedule
from repro.units import hours

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "control"


def fixture_bundles() -> list[Path]:
    return sorted(FIXTURE_DIR.glob("*.json"))


# -- scenarios ---------------------------------------------------------------


class TestControlScenario:
    def test_validation(self):
        config = smoke_chaos_config()
        with pytest.raises(ControlError):
            ControlScenario(name="", chaos=config)
        with pytest.raises(ControlError):
            ControlScenario(name="x", chaos=config, workload="nope")
        with pytest.raises(ControlError):
            ControlScenario(
                name="x",
                chaos=config,
                fault_seed=1,
                pinned=pinned_cooling_loss(config),
            )

    def test_round_trips_through_dict(self):
        config = smoke_chaos_config()
        scenario = ControlScenario(
            name="pinned",
            chaos=config,
            pinned=pinned_cooling_loss(config),
        )
        assert ControlScenario.from_dict(scenario.to_dict()) == scenario
        with pytest.raises(ControlError):
            ControlScenario.from_dict({"name": "broken"})

    def test_workloads_produce_distinct_traces(self):
        config = smoke_chaos_config()
        chaos = ControlScenario(name="a", chaos=config)
        diurnal = ControlScenario(name="b", chaos=config, workload="diurnal")
        double = ControlScenario(
            name="c", chaos=config, workload="double_peak"
        )
        assert chaos.trace() is None
        assert not np.array_equal(
            diurnal.trace().values, double.trace().values
        )

    def test_default_suite_scales_with_seeds(self):
        suite = default_scenarios(quick=True, chaos_seeds=3)
        names = [s.name for s in suite]
        assert names.count("pinned_cooling_loss") == 1
        assert sum(1 for n in names if n.startswith("chaos_")) == 3


# -- scoring -----------------------------------------------------------------


class TestScoring:
    def test_recovery_time_is_zero_without_faults(self):
        config = smoke_chaos_config()
        scenario = ControlScenario(name="clean", chaos=config)
        result = build_scenario_simulator(scenario, "greedy").run()
        assert (
            recovery_time_s(result, scenario.schedule(), room_max_c=35.0)
            == 0.0
        )

    def test_never_recovered_scores_full_horizon(self):
        config = smoke_chaos_config()
        scenario = ControlScenario(name="clean", chaos=config)
        result = build_scenario_simulator(scenario, "greedy").run()
        schedule = FaultSchedule(
            (Fault(COOLING_LOSS, hours(1.0), hours(2.0), 0.4),),
            name="synthetic",
        )
        # An impossible recovery bar: the room can never sit below an
        # absurdly low limit, so the score is the whole remaining horizon.
        worst = recovery_time_s(result, schedule, room_max_c=-1000.0)
        assert worst == pytest.approx(
            float(result.times_s[-1]) - hours(2.0)
        )

    def test_scoreboard_lookup_and_fingerprint(self):
        board = Scoreboard(
            scores=[
                PlannerScore(
                    planner="greedy",
                    scenario="s",
                    energy_kwh=1.0,
                    throttle_ticks=2,
                    shed_ticks=1,
                    recovery_time_s=0.0,
                    fingerprint="abc",
                )
            ]
        )
        assert board.cell("greedy", "s").slo_violations == 3
        with pytest.raises(ControlError):
            board.cell("mpc", "s")
        assert Scoreboard.from_dict(
            board.to_dict()
        ).fingerprint() == board.fingerprint()
        with pytest.raises(ControlError):
            Scoreboard.from_dict({"scores": [{"planner": "x"}]})

    def test_unknown_planner_rejected(self):
        with pytest.raises(ControlError):
            run_tournament(planners=["nonexistent"], quick=True)


# -- fast-lane tournament smoke (satellite: 2 planners x 2 scenarios) -------


class TestTournamentSmoke:
    def test_two_planner_two_scenario_smoke(self):
        config = smoke_chaos_config()
        scenarios = [
            ControlScenario(name="clean", chaos=config),
            ControlScenario(
                name="pinned",
                chaos=config,
                pinned=pinned_cooling_loss(config),
            ),
        ]
        board = run_tournament(
            scenarios=scenarios, planners=["greedy", "mpc"]
        )
        assert len(board.scores) == 4
        assert board.planners() == ["greedy", "mpc"]
        assert board.scenarios() == ["clean", "pinned"]
        for score in board.scores:
            assert np.isfinite(score.energy_kwh) and score.energy_kwh > 0
            assert score.recovery_time_s >= 0.0
            assert len(score.fingerprint) == 64

    def test_tournament_is_deterministic(self):
        config = smoke_chaos_config()
        scenarios = [ControlScenario(name="clean", chaos=config)]
        first = run_tournament(scenarios=scenarios, planners=["greedy"])
        second = run_tournament(scenarios=scenarios, planners=["greedy"])
        assert first.fingerprint() == second.fingerprint()


# -- acceptance orderings (slow lane) ----------------------------------------


@pytest.mark.slow
class TestAcceptanceOrderings:
    """The control claim the tentpole stands on, asserted end to end."""

    @pytest.fixture(scope="class")
    def quick_board(self):
        return run_tournament(quick=True, chaos_seeds=1)

    def test_mpc_beats_scheduled_on_energy(self, quick_board):
        mpc = quick_board.cell("mpc", "pinned_cooling_loss")
        scheduled = quick_board.cell("scheduled", "pinned_cooling_loss")
        assert mpc.energy_kwh < scheduled.energy_kwh

    def test_mpc_beats_greedy_on_recovery(self, quick_board):
        mpc = quick_board.cell("mpc", "pinned_cooling_loss")
        greedy = quick_board.cell("greedy", "pinned_cooling_loss")
        assert mpc.recovery_time_s < greedy.recovery_time_s

    def test_mpc_no_worse_on_slo_than_scheduled(self, quick_board):
        mpc = quick_board.cell("mpc", "pinned_cooling_loss")
        scheduled = quick_board.cell("scheduled", "pinned_cooling_loss")
        assert mpc.slo_violations <= scheduled.slo_violations


# -- replayable bundles (satellite) ------------------------------------------


class TestBundles:
    def test_fixture_bundles_exist(self):
        assert len(fixture_bundles()) == 2

    @pytest.mark.parametrize(
        "path", fixture_bundles(), ids=lambda p: p.stem
    )
    def test_fixture_replays_bit_identically(self, path):
        payload = read_bundle(path)
        run = replay_bundle(path)
        assert run.fingerprint == payload["fingerprint"]

    def test_round_trip(self, tmp_path):
        config = smoke_chaos_config()
        run = run_scenario(
            ControlScenario(name="rt", chaos=config, fault_seed=5),
            ("greedy",),
        )
        path = write_bundle(run, tmp_path)
        replayed = replay_bundle(path)
        assert replayed.fingerprint == run.fingerprint
        assert replayed.scenario == run.scenario

    def test_corrupted_bundles_rejected(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ControlError):
            read_bundle(missing)

        invalid = tmp_path / "invalid.json"
        invalid.write_text("{not json")
        with pytest.raises(ControlError):
            read_bundle(invalid)

        wrong_schema = tmp_path / "wrong.json"
        payload = json.loads(fixture_bundles()[0].read_text())
        payload["schema"] = "repro.faults.bundle/1"
        wrong_schema.write_text(json.dumps(payload))
        with pytest.raises(ControlError):
            read_bundle(wrong_schema)

        truncated = tmp_path / "truncated.json"
        payload = json.loads(fixture_bundles()[0].read_text())
        del payload["scenario"]
        truncated.write_text(json.dumps(payload))
        with pytest.raises(ControlError):
            read_bundle(truncated)

    def test_tampered_scenario_changes_fingerprint(self, tmp_path):
        """A bundle whose scenario was edited no longer verifies."""
        payload = json.loads(fixture_bundles()[0].read_text())
        payload["scenario"]["fault_seed"] = 12345
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        run = replay_bundle(tampered)
        assert run.fingerprint != payload["fingerprint"]


# -- command line ------------------------------------------------------------


class TestCli:
    def test_rejects_negative_seed_count(self, capsys):
        with pytest.raises(SystemExit):
            main(["--chaos-seeds", "-1"])

    def test_smoke_run_writes_scoreboard(self, tmp_path, capsys):
        out = tmp_path / "scoreboard.json"
        code = main(
            [
                "--quick",
                "--chaos-seeds",
                "0",
                "--planners",
                "greedy,scheduled",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == BUNDLE_SCHEMA
        assert {row["planner"] for row in payload["scores"]} == {
            "greedy",
            "scheduled",
        }
        assert "fingerprint:" in capsys.readouterr().out
