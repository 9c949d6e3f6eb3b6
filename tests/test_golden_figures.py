"""Golden-value regression tests for every paper figure and table.

Each ``fig*``/``table*`` experiment runs in quick mode and is compared
against a checked-in fingerprint under ``tests/golden/``: summary and
paper scalars at tight tolerance, table rows verbatim, and per-series
statistics (length, mean, extrema, endpoints) so a drifting curve fails
even when its headline number survives. Every simulator run an
experiment makes must also hold the fault invariants (finite traces,
state of charge, energy closure; the ``plant_invariants`` fixture).

Regenerate deliberately after a physics change with::

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.registry import run_experiment

#: Every test here runs experiments end-to-end; keep the whole module
#: out of the fast lane (``-m "not slow"``).
pytestmark = pytest.mark.slow

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Every paper figure/table experiment (ablations/extensions are
#: exploratory studies, not paper artifacts, and take minutes).
GOLDEN_EXPERIMENTS = (
    "table1",
    "table2",
    "fig1",
    "fig4",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig11_faults",
    "fig12",
    "control_tournament",
)

#: The golden experiments whose quick run drives the datacenter
#: simulator; every run is checked at the plant (``plant_invariants``).
SIMULATING = frozenset(
    {"fig1", "fig9", "fig11", "fig11_faults", "fig12", "control_tournament"}
)

#: Relative tolerance for scalar comparisons. The experiments are
#: deterministic, so this only needs to absorb libm/BLAS variation
#: across platforms — not algorithmic drift.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_results: dict[str, object] = {}


def _result(experiment_id: str):
    """Run (once per session) an experiment in quick mode, cache off."""
    if experiment_id not in _results:
        _results[experiment_id] = run_experiment(
            experiment_id, quick=True, cache=False
        )
    return _results[experiment_id]


def _series_stats(values) -> dict[str, float]:
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return {"len": 0}
    return {
        "len": int(flat.size),
        "mean": float(np.mean(flat)),
        "min": float(np.min(flat)),
        "max": float(np.max(flat)),
        "first": float(flat[0]),
        "last": float(flat[-1]),
    }


def _fingerprint(result) -> dict[str, object]:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "quick": True,
        "summary": {k: float(v) for k, v in result.summary.items()},
        "paper": {k: float(v) for k, v in result.paper.items()},
        "tables": {
            caption: [list(headers), [list(row) for row in rows]]
            for caption, (headers, rows) in result.tables.items()
        },
        "series": {
            name: _series_stats(values)
            for name, values in result.series.items()
        },
    }


def _golden_path(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id}.json"


def _assert_scalars_match(section: str, measured: dict, golden: dict):
    assert set(measured) == set(golden), (
        f"{section}: key set changed "
        f"(added {sorted(set(measured) - set(golden))}, "
        f"removed {sorted(set(golden) - set(measured))})"
    )
    for key, want in golden.items():
        assert measured[key] == pytest.approx(
            want, rel=REL_TOL, abs=ABS_TOL
        ), f"{section}[{key!r}] drifted: {measured[key]!r} != {want!r}"


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_figure_matches_golden(experiment_id, update_golden, plant_invariants):
    fingerprint = _fingerprint(_result(experiment_id))
    plant_invariants.verify(simulates=experiment_id in SIMULATING)
    path = _golden_path(experiment_id)

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(fingerprint, indent=1, sort_keys=True) + "\n"
        )
        return

    assert path.exists(), (
        f"no golden file for {experiment_id!r}; run with --update-golden "
        "to create it"
    )
    golden = json.loads(path.read_text())

    assert fingerprint["title"] == golden["title"]
    _assert_scalars_match(
        "summary", fingerprint["summary"], golden["summary"]
    )
    _assert_scalars_match("paper", fingerprint["paper"], golden["paper"])

    assert set(fingerprint["tables"]) == set(golden["tables"])
    for caption, (headers, rows) in golden["tables"].items():
        got_headers, got_rows = fingerprint["tables"][caption]
        assert got_headers == headers, f"table {caption!r}: headers changed"
        assert got_rows == rows, f"table {caption!r}: rows changed"

    assert set(fingerprint["series"]) == set(golden["series"])
    for name, stats in golden["series"].items():
        got = fingerprint["series"][name]
        assert got["len"] == stats["len"], f"series {name!r}: length changed"
        for stat, want in stats.items():
            if stat == "len":
                continue
            assert got[stat] == pytest.approx(
                want, rel=REL_TOL, abs=ABS_TOL
            ), f"series {name!r}.{stat} drifted: {got[stat]!r} != {want!r}"


def test_every_golden_file_has_a_test():
    """A stray golden file means an experiment was removed but not its pin."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(GOLDEN_EXPERIMENTS)
