"""Tests for experiment result export."""

import csv
import json

import numpy as np
import pytest

from repro.experiments.export import export_result
from repro.experiments.registry import ExperimentResult


@pytest.fixture
def result():
    r = ExperimentResult(experiment_id="demo", title="Demo experiment")
    r.series = {
        "hours": np.array([0.0, 1.0, 2.0]),
        "load": np.array([0.5, 0.9]),  # shorter on purpose
    }
    r.summary = {"metric": 1.5}
    r.paper = {"metric": 2.0}
    r.tables = {"t": (["a"], [["x"]])}
    return r


class TestExport:
    def test_writes_three_files(self, result, tmp_path):
        written = export_result(result, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "demo_series.csv", "demo_summary.json", "demo_tables.txt",
        }

    def test_csv_round_trip(self, result, tmp_path):
        export_result(result, tmp_path)
        with open(tmp_path / "demo_series.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["hours", "load"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[2][1]) == pytest.approx(0.9)
        # Ragged series pad with empty cells.
        assert rows[3][1] == ""

    def test_json_round_trip(self, result, tmp_path):
        export_result(result, tmp_path)
        payload = json.loads((tmp_path / "demo_summary.json").read_text())
        assert payload["summary"]["metric"] == 1.5
        assert payload["paper"]["metric"] == 2.0
        assert payload["experiment_id"] == "demo"

    def test_tables_rendered(self, result, tmp_path):
        export_result(result, tmp_path)
        text = (tmp_path / "demo_tables.txt").read_text()
        assert "Demo experiment" in text

    def test_creates_directory(self, result, tmp_path):
        target = tmp_path / "nested" / "dir"
        export_result(result, target)
        assert target.exists()

    def test_seriesless_result_still_exports_summary(self, tmp_path):
        bare = ExperimentResult(experiment_id="bare", title="t")
        bare.summary = {"x": 1.0}
        written = export_result(bare, tmp_path)
        assert any(p.name == "bare_summary.json" for p in written)

    def test_numpy_scalars_export_as_plain_floats(self, result, tmp_path):
        result.summary = {
            "f64": np.float64(1.25),
            "i32": np.int32(7),
            "flag": np.bool_(True),
            "py_bool": False,
        }
        result.paper = {}
        export_result(result, tmp_path)
        payload = json.loads((tmp_path / "demo_summary.json").read_text())
        assert payload["summary"] == {
            "f64": 1.25, "i32": 7.0, "flag": 1.0, "py_bool": 0.0,
        }
        assert all(
            type(v) is float for v in payload["summary"].values()
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "0.5",
            None,
            complex(1.0, 0.0),
            np.array([1.0, 2.0]),
            {"nested": 1.0},
        ],
        ids=["str", "none", "complex", "array", "dict"],
    )
    def test_non_scalar_summary_value_is_refused(self, result, tmp_path, bad):
        from repro.errors import ExperimentError

        result.summary["broken"] = bad
        with pytest.raises(ExperimentError, match=r"'demo'.*'broken'"):
            export_result(result, tmp_path)

    def test_refusal_names_the_paper_section_too(self, result, tmp_path):
        from repro.errors import ExperimentError

        result.paper["claim"] = "about 9%"
        with pytest.raises(ExperimentError, match=r"paper\['claim'\]"):
            export_result(result, tmp_path)

    def test_cli_integration(self, tmp_path):
        from repro.experiments.registry import main

        main(["table1", "--output-dir", str(tmp_path)])
        assert (tmp_path / "table1_summary.json").exists()

    def test_module_entry_point(self):
        # ``python -m repro.experiments`` is the CLI without installing
        # the package. It must execute the registry once: runpy warns
        # when the package import has already loaded the module it runs.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src if not path else src + os.pathsep + path,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "repro-experiments" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
