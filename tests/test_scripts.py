"""The standalone scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conflictlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    """The stdout lines of a script run in a fresh interpreter; asserts exit 0."""
    src = str(Path(conflictlab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize(
    "theta, census",
    [
        ("-1", {"BoundedBelow": 40, "RadiallyBounded": 21, "UnboundedBelow": 3}),
        ("1", {"NotCovered": 45, "Exists": 19}),
    ],
)
def test_phase_sweep_portrait_and_census(theta, census):
    lines = _run("run_phase_sweep.py", "--resolution", "8", "--theta", theta)
    assert lines[0] == "m1 in (5, 40], m2 in [0, 40], 8x8"
    for line in lines[1:9]:
        assert line.startswith("  m2=") and len(line.split("|")[1]) == 8
    got = {}
    for line in lines[lines.index("verdicts:") + 1:lines.index("curves:")]:
        _, name, count = line.split()
        got[name] = int(count)
    assert got == census


def test_critical_mass_scan_table():
    # printed before the Picard entry points were merged: iteration counts
    # and residuals are bits of solve_single
    assert _run("critical_mass_scan.py", "--depth", "3", "--grid-n", "256") == [
        "  k   m/m_crit        sup u        exact    rel gap  iters   residual",
        "  1   0.500000     1.386340     1.386294   3.32e-05     18   4.96e-11",
        "  2   0.750000     2.772769     2.772589   6.50e-05     25   3.88e-13",
        "  3   0.875000     4.159478     4.158883   1.43e-04     25   9.57e-13",
    ]


def test_steady_scan_table():
    lines = _run("steady_scan.py", "--theta", "1", "--grid-n", "64")
    failed = [line for line in lines if line.startswith("failed m1=")]
    table = lines[len(failed):]
    assert table[0].split()[:3] == ["m1", "\\", "m2"] and len(table[0].split()) == 16
    assert [len(row.split()) for row in table[1:-1]] == [14] * 11
    assert table[-1] == f"{len(failed)} of 143 failed"
    assert sum(row.split().count("-") for row in table[1:-1]) == len(failed)


def test_annulus_limit_table():
    lines = _run("annulus_limit.py", "--psis", "1e-2,1e-3", "--grid-n", "1024")
    assert lines[0].startswith("limit (m2/2pi)^2 = ")
    assert lines[1].split() == ["psi", "ratio", "rel", "gap", "drift"]
    assert [float(line.split()[0]) for line in lines[2:]] == [1e-2, 1e-3]
    assert all(len(line.split()) == 4 for line in lines[2:])


def test_blowdown_slopes_table():
    lines = _run("blowdown_slopes.py", "--count", "3", "--grid-n", "256", "--rungs", "4")
    assert lines[0].split() == ["m1", "coef", "slope", "rel", "gap"]
    assert [float(line.split()[0]) for line in lines[1:]] == [10.0, 22.5, 35.0]
    assert all(len(line.split()) == 4 for line in lines[1:])
