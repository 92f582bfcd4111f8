"""Which scipy modules each command loads.

Only ``flow`` needs scipy (``scipy.linalg.lapack.dgtsv``, loaded on the
first tridiagonal solve); every other command must run without importing
any of it, which is most of a cold start's cost.  Each command runs in a fresh interpreter so that modules
already imported by the test run do not leak in.
"""

import json
import subprocess
import sys

import pytest

PROBE = """
import json, sys
from conflictlab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

RUN = "[run]\ncommand = {}\nalpha = 1\nbeta = {}\ngamma = {}\ntheta = -1\nm1 = {}\nm2 = {}\n"

CONFIGS = {
    "classify": RUN.format("classify", 2.0, 0.0, 30.0, 4.0),
    "sweep": RUN.format("sweep", 2.0, 1.0, 10.0, 4.0) + "[sweep]\nresolution = 4\n",
    "steady": RUN.format("steady", 0.0, 0.0, 12.0, 0.0) + "grid_n = 128\n",
    "blowdown": RUN.format("blowdown", 2.0, 0.0, 30.0, 1.0)
    + "grid_n = 512\n[blowdown]\npsis = 4, 8, 16, 32\n",
    "oracle": RUN.format("oracle", 31.5, 1.0, 1.0, 6.0)
    + "grid_n = 1024\n[oracle]\nscales = 1e-3\n",
    "functional": RUN.format("functional", 2.0, 0.0, 30.0, 1.0)
    + "grid_n = 256\n[functional]\npsis = 2, 4, 8\n",
    "flow": RUN.format("flow", 0.5, 1.0, 8.0, 3.0)
    + "grid_n = 32\n[flow]\ncase = single\ndt = 0.01\nt_end = 0.02\n",
}


def loaded_scipy(command, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[command])
    result = subprocess.run(
        [sys.executable, "-c", PROBE, "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert any(tmp_path.glob("*.csv"))
    return set(modules)


@pytest.mark.parametrize("command", sorted(set(CONFIGS) - {"flow"}))
def test_non_flow_command_loads_no_scipy(command, tmp_path):
    assert loaded_scipy(command, tmp_path) == set()


def test_flow_loads_linalg_only(tmp_path):
    modules = loaded_scipy("flow", tmp_path)
    assert "scipy.linalg" in modules
    assert not any(m.startswith("scipy.integrate") for m in modules)
