"""Unit tests of the end-to-end benchmark's own machinery.

Run with ``python -m pytest benchmarks/e2e``; nothing here runs a
workload.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from benchmarks.e2e import checks, child
from benchmarks.e2e.compare import set_disagreements, verdict
from benchmarks.e2e.layers import layer_metrics, missing_layers
from benchmarks.e2e.trace import Target, Tracer, self_times, summarize
from benchmarks.e2e.workloads import METRICS, METRICS_BY_NAME, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past its parent); a has a child [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    own = self_times(start, end, parent)
    assert own == pytest.approx([10 - (5 + 2), 3 - 1, 1, 3, 4])


def test_summary_counts_reentrant_calls_once():
    names = ["policy", "policy", "step", "policy"]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [4.0, 3.0, 2.5, 6.0]
    parent = [-1, 0, 1, -1]
    summary = summarize(names, parent, start, end)
    assert summary["policy"]["calls"] == 2
    assert summary["policy"]["wall_s"] == pytest.approx(4 + 1)
    assert summary["policy"]["self_s"] == pytest.approx((4 - 2) + (2 - 0.5) + 1)
    assert summary["step"] == pytest.approx({"calls": 1, "wall_s": 0.5, "self_s": 0.5})


# -- wrapping ------------------------------------------------------------------


@pytest.fixture
def fake_modules():
    """``lib`` defines f and a class; ``user`` holds f via ``from lib import f``."""
    lib = types.ModuleType("e2e_fake_lib")
    exec(
        "def f(x):\n    return x + 1\n"
        "class Base:\n    def run(self):\n        return f(1)\n"
        "class Child(Base):\n    pass\n",
        lib.__dict__,
    )
    user = types.ModuleType("e2e_fake_user")
    user.f = lib.f
    exec("def g():\n    return f(2)\n", user.__dict__)
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_wrapper_reaches_from_import_call_site(fake_modules):
    lib, user = fake_modules
    original = lib.f
    tracer = Tracer("test")
    tracer.install([Target(lib.__name__, "f", "lib.f")])
    try:
        assert user.g() == 3
        assert user.f is not original
    finally:
        tracer.uninstall()
    assert lib.f is original and user.f is original
    assert tracer.summary()["lib.f"]["calls"] == 1


def test_method_is_wrapped_on_its_class_and_restored(fake_modules):
    lib, _ = fake_modules
    tracer = Tracer("test")
    tracer.install(
        [
            Target(
                lib.__name__, "Child.run", lambda self: f"run.{type(self).__name__}"
            ),
            Target(lib.__name__, "f", "lib.f"),
        ]
    )
    try:
        assert lib.Child().run() == 2
        assert lib.Base().run() == 2
    finally:
        tracer.uninstall()
    assert "run" not in lib.Child.__dict__
    summary = tracer.summary()
    assert summary["run.Child"]["calls"] == 1
    assert "run.Base" not in summary
    assert summary["lib.f"]["calls"] == 2
    # The call through Child.run is the parent of its f span.
    names = [tracer.names[i] for i in tracer.name]
    assert tracer.parent[names.index("lib.f")] == names.index("run.Child")


# -- coverage guard ------------------------------------------------------------


def test_a_layer_that_never_fired_is_reported_missing():
    empty = layer_metrics({}, {})
    assert "dcsim.geo" in missing_layers("paper_extensions", empty)
    assert "experiments.extensions" in missing_layers("paper_extensions", empty)
    fired = layer_metrics(
        {"dcsim.geo": {"calls": 1, "wall_s": 1.0, "self_s": 1.0}}, {"dcsim.events": 5}
    )
    assert "dcsim.geo" not in missing_layers("paper_extensions", fired)
    assert "dcsim.events" not in missing_layers("event_day_1008", fired)


# -- verdicts ------------------------------------------------------------------

WALL = METRICS_BY_NAME["wall_s"]  # lower is better, bound 24%
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_verdict_improved_needs_pair_wins_and_gap_beyond_spread():
    change = [v - 1.0 for v in PARENT]
    assert verdict(WALL, PARENT, change) == "improved"
    # Fewer than ten pairs can never claim a gain.
    assert verdict(WALL, PARENT[:5], change[:5]) == "unchanged"
    # One pair in ten lost is still nine tenths...
    assert verdict(WALL, PARENT, change[:-1] + [11.0]) == "improved"
    # ...two are not.
    assert verdict(WALL, PARENT, change[:-2] + [11.0, 11.0]) == "unchanged"


def test_verdict_regressed_beyond_the_bound():
    assert verdict(WALL, PARENT, [v * 1.3 for v in PARENT]) == "regressed"
    # Worse, but within the bound.
    assert verdict(WALL, PARENT, [v * 1.2 for v in PARENT]) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(WALL, noisy, [v * 0.98 for v in noisy]) == "unresolved"
    # Unless every change run beats every parent run.
    assert verdict(WALL, noisy, [4.0] * 10) != "unresolved"


def test_verdict_absolute_bound():
    err = METRICS_BY_NAME["paper_err_pct"]  # +0.01 percentage points
    assert verdict(err, [12.5] * 3, [12.505] * 3) == "unchanged"
    assert verdict(err, [12.5] * 3, [12.52] * 3) == "regressed"


def test_sets_disagree_when_medians_move_beyond_bound():
    def artifact(walls):
        return {
            "sets": [
                {"w": {"metrics": {"wall_s": {"median": wall}}}} for wall in walls
            ]
        }

    assert set_disagreements(artifact([10.0, 10.5])) == []
    assert len(set_disagreements(artifact([10.0, 13.0]))) == 1


# -- output checks -------------------------------------------------------------


def _fake_result(value: float):
    from repro.experiments.registry import ExperimentResult

    return ExperimentResult(
        experiment_id="ablations",
        title="fake",
        summary={"gain": value},
        paper={"gain": 2.0},
    )


def test_corrupted_reference_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    registry = types.SimpleNamespace(run_experiment=lambda *a, **k: _fake_result(1.5))
    op = child._experiment_op(registry, "ablations", quick=True)

    written = child.execute([op], write_reference=True)
    assert written["calls"][0]["reference_written"] is True
    assert written["failed_ops"] == 0

    path = tmp_path / "ablations-quick.json"
    fingerprint = json.loads(path.read_text())
    fingerprint["summary"]["gain"] = 1.6
    path.write_text(json.dumps(fingerprint))
    failing = child.execute([op])
    assert failing["ops"] == 1 and failing["failed_ops"] == 1
    assert "gain" in failing["calls"][0]["problems"][0]

    path.write_text("{not json")
    assert child.execute([op])["failed_ops"] == 1


def test_a_raising_call_fails_its_op_without_stopping_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    calls = []

    def run_experiment(eid, **kwargs):
        calls.append(eid)
        if eid == "fig1":
            raise RuntimeError("boom")
        return _fake_result(1.5)

    registry = types.SimpleNamespace(run_experiment=run_experiment)
    ops = [child._experiment_op(registry, eid, quick=False) for eid in ("fig1", "fig9")]
    outcome = child.execute(ops, write_reference=True)
    assert calls == ["fig1", "fig9"]
    assert outcome["failed_ops"] == 1
    assert "boom" in outcome["calls"][0]["problems"][0]


def test_paper_error_is_mean_relative_error():
    assert checks.paper_error_pct([_fake_result(1.5), _fake_result(2.5)]) == 25.0


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    everywhere = {m.name: m for m in METRICS if not m.workloads}
    for entry in spec["end_to_end"]:
        metric = everywhere[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit,
            metric.better,
            metric.bound,
        )
    layers = layer_metrics({}, {})
    assert all(entry["name"] in layers for entry in spec["per_layer"])
