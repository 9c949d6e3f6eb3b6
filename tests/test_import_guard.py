"""No runtime path loads SciPy.

SciPy's import costs a fresh process more than half a second and about
40 MB before it computes anything, and only ``simulate_transient(method=
"bdf")`` needs it (imported inside that call). The check runs in a child
interpreter: other tests load SciPy into this one as an oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import importlib
import sys

import repro
import repro.experiments.registry as registry

for module_name in registry._REGISTRY.values():
    importlib.import_module(module_name)
import repro.control.tournament
import repro.faults.chaos
from repro.server.characterization import characterize_platform
from repro.server.configs import open_compute_blade, one_u_commodity, two_u_commodity

two_u_commodity()
open_compute_blade()
characterize_platform(one_u_commodity())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_imports_and_platform_builds_load_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
