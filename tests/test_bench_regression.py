"""Tests for the performance-regression harness (repro.bench)."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import regression
from repro.bench.regression import (
    BENCH_SCHEMA,
    SCENARIOS,
    Gate,
    Scenario,
    _interleaved_best,
    compare_reports,
    main,
    run_scenarios,
    scenario_names,
)
from repro.obs import get_registry

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"


def make_report(results, quick=False, **overrides):
    report = {
        "schema": BENCH_SCHEMA,
        "git_sha": "abc1234",
        "python": "3.11.0",
        "platform": "test",
        "quick": quick,
        "results": results,
    }
    report.update(overrides)
    return report


def scenario(min_s, counters=None):
    return {
        "repeats": 3,
        "times_s": [min_s, min_s * 1.1, min_s * 1.2],
        "min_s": min_s,
        "median_s": min_s * 1.1,
        "counters": counters or {},
    }


class TestCompareReports:
    def test_within_tolerance_passes(self):
        baseline = make_report({"a": scenario(1.0)})
        current = make_report({"a": scenario(1.2)})
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert comparison.regressions == []

    def test_slowdown_beyond_tolerance_fails(self):
        baseline = make_report({"a": scenario(1.0)})
        current = make_report({"a": scenario(1.6)})
        comparison = compare_reports(current, baseline)
        assert not comparison.ok
        assert "a:" in comparison.regressions[0]

    def test_large_speedup_reported_as_improvement(self):
        baseline = make_report({"a": scenario(2.0)})
        current = make_report({"a": scenario(1.0)})
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert comparison.improvements

    def test_missing_scenario_fails(self):
        baseline = make_report({"a": scenario(1.0), "b": scenario(1.0)})
        current = make_report({"a": scenario(1.0)})
        comparison = compare_reports(current, baseline)
        assert not comparison.ok
        assert any("not measured" in entry for entry in comparison.regressions)

    def test_new_scenario_is_a_note_not_a_failure(self):
        baseline = make_report({"a": scenario(1.0)})
        current = make_report({"a": scenario(1.0), "b": scenario(1.0)})
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert any("new scenario" in entry for entry in comparison.notes)

    def test_counter_drift_reported_not_gated_by_default(self):
        baseline = make_report({"a": scenario(1.0, {"solver.rk4_steps": 100})})
        current = make_report({"a": scenario(1.0, {"solver.rk4_steps": 150})})
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert comparison.counter_drift

    def test_strict_counters_gates_on_drift(self):
        baseline = make_report({"a": scenario(1.0, {"solver.rk4_steps": 100})})
        current = make_report({"a": scenario(1.0, {"solver.rk4_steps": 150})})
        comparison = compare_reports(current, baseline, strict_counters=True)
        assert not comparison.ok

    def test_schema_mismatch_fails(self):
        baseline = make_report({"a": scenario(1.0)}, schema="bogus/0")
        current = make_report({"a": scenario(1.0)})
        assert not compare_reports(current, baseline).ok

    def test_quick_mode_mismatch_fails(self):
        baseline = make_report({"a": scenario(1.0)}, quick=True)
        current = make_report({"a": scenario(1.0)})
        assert not compare_reports(current, baseline).ok

    def test_render_mentions_regressions(self):
        baseline = make_report({"a": scenario(1.0)})
        current = make_report({"a": scenario(10.0)})
        text = compare_reports(current, baseline).render()
        assert "REGRESSION" in text

    def test_markdown_renders_the_verdict_rows(self):
        baseline = make_report(
            {"a": scenario(1.0, {"x": 1}), "b": scenario(1.0), "gone": scenario(1.0)}
        )
        current = make_report(
            {"a": scenario(1.0, {"x": 2}), "b": scenario(1.6), "new": scenario(1.0)}
        )
        table = compare_reports(current, baseline).markdown("abc1234", "def5678")
        assert "| a | 1000.0 | 1000.0 | 1.00x | ok |" in table
        assert "| b | 1000.0 | 1600.0 | 1.60x | **REGRESSION** |" in table
        assert "| gone | 1000.0 | — | — | **MISSING** |" in table
        assert "| new | — | 1000.0 | — | new |" in table
        assert "- `a`: `x` 1 → 2" in table


class TestInterleavedBest:
    def test_arms_alternate_and_score_their_best_round(self, monkeypatch):
        clock = SimpleNamespace(now=0.0)
        clock.perf_counter = lambda: clock.now
        monkeypatch.setattr(regression, "time", clock)
        calls = []

        def arm(label, durations):
            def prepare(round_number):
                calls.append(label)
                clock.now += 100.0  # set-up, outside the timed region

                def work():
                    clock.now += durations[round_number]

                return work

            return prepare

        best = _interleaved_best(
            (arm("A", [3.0, 1.0, 2.0]), arm("B", [5.0, 6.0, 4.0])), rounds=3
        )
        assert calls == ["A", "B", "A", "B", "A", "B"]
        assert best == [1.0, 4.0]


class TestGates:
    def counters(self, monkeypatch, gate, value, quick=False):
        fake = Scenario(
            "fake", "a fixed metric", lambda quick: lambda: {"m": value}, gate=gate
        )
        monkeypatch.setattr(regression, "SCENARIOS", (fake,))
        report = run_scenarios(names=["fake"], repeats=1, quick=quick)
        return report["results"]["fake"]["counters"]

    def test_lower_bound_gate_with_floor_counter(self, monkeypatch):
        gate = Gate("m", "fake.ge_3x", 3.0, floor_counter="fake.floor")
        counters = self.counters(monkeypatch, gate, 4.7)
        assert counters == {"fake.floor": 4, "fake.ge_3x": 1}
        assert self.counters(monkeypatch, gate, 4.7, quick=True) == {}

    def test_upper_bound_gate_fails_when_exceeded(self, monkeypatch):
        gate = Gate("m", "fake.le_500us", 500.0, upper=True)
        assert self.counters(monkeypatch, gate, 612.0) == {"fake.le_500us": 0}
        assert self.counters(monkeypatch, gate, 480.0) == {"fake.le_500us": 1}

    def test_baseline_gate_counters_are_the_declared_gates(self):
        # Each baseline gate counter is declared once, by its own
        # scenario, so a rename cannot silently drop a gate from CI.
        results = json.loads(BASELINE.read_text())["results"]
        in_baseline = sorted(
            (name, counter)
            for name, result in results.items()
            for counter in result["counters"]
            if "_ge_" in counter or "_le_" in counter
        )
        gated = [scenario for scenario in SCENARIOS if scenario.gate is not None]
        assert in_baseline == sorted((s.name, s.gate.counter) for s in gated)
        for scenario in gated:
            counters = results[scenario.name]["counters"]
            assert scenario.gate.floor_counter in (None, *counters)


class TestRunScenarios:
    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenarios(names=["no_such_scenario"])

    def test_single_quick_scenario_produces_schema(self):
        report = run_scenarios(
            names=["chassis_steady_state"], repeats=1, quick=True
        )
        assert report["schema"] == BENCH_SCHEMA
        assert report["quick"] is True
        result = report["results"]["chassis_steady_state"]
        assert result["repeats"] == 1
        assert result["min_s"] > 0
        assert result["counters"]["solver.steady_solves"] == 1
        json.dumps(report)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_raise(self, repeats):
        with pytest.raises(ValueError):
            run_scenarios(
                names=["chassis_steady_state"], repeats=repeats, quick=True
            )

    def test_registry_state_restored_after_run(self):
        obs = get_registry()
        was_enabled = obs.enabled
        run_scenarios(names=["chassis_steady_state"], repeats=1, quick=True)
        assert obs.enabled == was_enabled
        assert obs.snapshot().is_empty()

    def test_scenario_names_are_stable(self):
        assert "chassis_transient_hour" in scenario_names()
        assert "fluid_day_1008" in scenario_names()


class TestMainGate:
    def run_main(self, tmp_path, extra, baseline_report=None):
        args = [
            "--scenarios", "chassis_steady_state",
            "--repeats", "1",
            "--quick",
            "--output-dir", str(tmp_path),
        ]
        if baseline_report is not None:
            baseline_path = tmp_path / "baseline.json"
            baseline_path.write_text(json.dumps(baseline_report))
            args += ["--baseline", str(baseline_path)]
        return main(args + extra)

    def test_no_baseline_exits_zero_and_writes_artifact(self, tmp_path):
        assert self.run_main(tmp_path, []) == 0
        artifacts = list(tmp_path.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        report = json.loads(artifacts[0].read_text())
        assert report["schema"] == BENCH_SCHEMA

    def test_update_baseline_writes_file(self, tmp_path):
        target = tmp_path / "new_baseline.json"
        code = self.run_main(tmp_path, ["--update-baseline", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["schema"] == BENCH_SCHEMA

    def test_gate_passes_against_generous_baseline(self, tmp_path):
        baseline = make_report(
            {"chassis_steady_state": scenario(3600.0)}, quick=True
        )
        assert self.run_main(tmp_path, [], baseline) == 0

    def test_gate_fails_against_impossible_baseline(self, tmp_path):
        baseline = make_report(
            {"chassis_steady_state": scenario(1e-9)}, quick=True
        )
        assert self.run_main(tmp_path, [], baseline) == 1

    def test_missing_baseline_file_is_usage_error(self, tmp_path):
        code = self.run_main(
            tmp_path, ["--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_is_usage_error(self, tmp_path, repeats):
        assert self.run_main(tmp_path, ["--repeats", repeats]) == 2
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "chassis_transient_hour" in out
