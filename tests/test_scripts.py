"""The standalone scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conflictlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "theta, census",
    [
        ("-1", {"BoundedBelow": 40, "RadiallyBounded": 21, "UnboundedBelow": 3}),
        ("1", {"NotCovered": 45, "Exists": 19}),
    ],
)
def test_phase_sweep_portrait_and_census(theta, census):
    src = str(Path(conflictlab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_phase_sweep.py"),
         "--resolution", "8", "--theta", theta],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "m1 in (5, 40], m2 in [0, 40], 8x8"
    for line in lines[1:9]:
        assert line.startswith("  m2=") and len(line.split("|")[1]) == 8
    got = {}
    for line in lines[lines.index("verdicts:") + 1:lines.index("curves:")]:
        _, name, count = line.split()
        got[name] = int(count)
    assert got == census
