"""Which modules each command loads.

Importing ``conflictlab.cli`` loads no command module: each command imports
its own part of the package when it runs.  Only ``flow`` needs scipy, and
of it only LAPACK's ``dgtsv``: the first tridiagonal solve loads scipy's
compiled ``scipy.linalg._flapack`` extension from its file and leaves no
``sys.modules`` entry, and neither ``scipy`` nor ``scipy.linalg`` runs its
package init.  Every other command must run without loading any of scipy,
which would be most of a cold start's cost.  Each command runs in a fresh
interpreter so that modules already imported by the test run do not leak
in.
"""

import json
import subprocess
import sys

import pytest

PROBE = """
import json, sys
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
from conflictlab.cli import main
at_import = loaded("conflictlab")
code = main(sys.argv[1:])
print(json.dumps([code, at_import, loaded("conflictlab"), loaded("scipy")]))
"""

AT_IMPORT = {"conflictlab", "conflictlab.cli", "conflictlab.model"}

# The package modules each command adds to those of the import.
OWN_MODULES = {
    "classify": {"phase"},
    "sweep": {"phase"},
    "steady": {"calculus", "errors", "liouville"},
    "oracle": {"annulus_ode"},
    "blowdown": {"blowdown", "calculus", "errors", "functionals", "liouville", "phase"},
    "functional": {"blowdown", "calculus", "errors", "functionals", "liouville", "phase"},
    "flow": {"calculus", "errors", "flow", "functionals", "liouville"},
}

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


def loaded_modules(command, tmp_path):
    """The package modules after importing the CLI, after running the
    command, and the scipy modules after running it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[command])
    result = subprocess.run(
        [sys.executable, "-c", PROBE, "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, *modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert any(tmp_path.glob("*.csv"))
    return [set(names) for names in modules]


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_command_loads_only_its_own_modules(command, tmp_path):
    at_import, after_run, _ = loaded_modules(command, tmp_path)
    assert at_import == AT_IMPORT
    assert after_run - at_import == {f"conflictlab.{m}" for m in OWN_MODULES[command]}


@pytest.mark.parametrize("command", sorted(set(CONFIGS) - {"flow"}))
def test_non_flow_command_loads_no_scipy(command, tmp_path):
    assert loaded_modules(command, tmp_path)[2] == set()


def test_flow_loads_lapack_extension_only(tmp_path):
    assert loaded_modules("flow", tmp_path)[2] == set()
