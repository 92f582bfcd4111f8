"""Masses whose closed forms overflow exit 3; every accepted mass writes a
finite table.

Each command is run in-process through ``cli.main``, under the suite's
RuntimeWarning-as-error filter, at (alpha, beta, gamma) = (1, 2, 30) on
16-cell grids (1000 for ``oracle``, its minimum).  A refusal is exit 3 with
one ``configuration error`` line on stderr and no CSV.  "Finite" admits the
NaN the README documents: the ``predicted`` of ``blowdown.csv``'s
``log_term`` rows where the log term does not apply, and the branch
separators and out-of-range points of ``sweep_curves.csv``.
"""

import contextlib
import io
import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conflictlab.cli import main

SECTIONS = {
    "classify": "",
    "sweep": "[sweep]\nm1_range = 0, {m1!r}\nm2_range = 0, {m2!r}\nresolution = {res}\n",
    "blowdown": "grid_n = 16\n[blowdown]\npsis = 2, 4, 8, 16\n",
    "functional": "grid_n = 16\n[functional]\npsis = {psis}\n",
    "oracle": "grid_n = 1000\n[oracle]\nscales = 1e-3\n",
}


RUNS = itertools.count()


def run(tmp_path, command, m1, m2, theta=-1, res=4, psis="2, 4, 8"):
    """Exit code, stderr and the written tables (file name to rows) of one run."""
    out = tmp_path / f"run{next(RUNS)}"
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(
        f"[run]\ncommand = {command}\nalpha = 1\nbeta = 2\ngamma = 30\n"
        f"theta = {theta}\nm1 = {m1!r}\nm2 = {m2!r}\n"
        + SECTIONS[command].format(m1=m1, m2=m2, res=res, psis=psis)
    )
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["--config", str(cfg), "--out", str(out)])
    tables = {
        path.name: [line.split(",") for line in path.read_text().splitlines()
                    if not line.startswith("#")]
        for path in out.glob("*.csv")
    }
    return code, err.getvalue(), tables


def nonfinite_cells(tables):
    """The cells of the tables that are inf, or NaN where no NaN is documented."""
    bad = []
    for name, (columns, *rows) in tables.items():
        for row in rows:
            for column, cell in zip(columns, row):
                if cell in ("nan", "inf", "-inf"):
                    documented = cell == "nan" and (
                        name == "sweep_curves.csv"
                        or (name == "blowdown.csv" and row[1] == "log_term"
                            and column == "predicted")
                    )
                    if not documented:
                        bad.append((name, column, row))
    return bad


def assert_refused(code, err, tables, *names):
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("configuration error"), err
    assert all(name in err for name in names), err
    assert tables == {}


@pytest.mark.parametrize(
    "command, m1, m2, names",
    [
        ("functional", 10.0, 1e154, ["m1 = 10.0", "m2 = 1e+154"]),
        ("blowdown", 10.0, 1e154, ["m1 = 10.0", "m2 = 1e+154"]),
        ("blowdown", 1e155, 1.0, ["m1 = 1e+155"]),
        ("functional", 1e155, 1.0, ["m1 = 1e+155"]),
        ("classify", 1e300, 1e200, ["m1 = 1e+300", "m2 = 1e+200"]),
        ("sweep", 1e300, 1e200, ["m1 = 2.5e+299", "m2 = 0.0"]),
        ("oracle", 1e300, 1.0, ["slope limit"]),
        ("oracle", 1e300, 1e300, ["m2 = 1e+300"]),
    ],
)
def test_overflowing_masses_exit_3(tmp_path, command, m1, m2, names):
    assert_refused(*run(tmp_path, command, m1, m2), *names)


def test_ladder_past_its_shift_bound_exit_3(tmp_path):
    """Lambda is finite at m1 = 1e153, but the predicted shifts of a ladder
    up to psi = 16, with their margin, are not."""
    assert_refused(*run(tmp_path, "blowdown", 1e153, 1.0), "psi = 16.0")


def largest_accepted(tmp_path, command):
    """The largest m1 at m2 = 1 that the command accepts, to a relative
    1e-9, by bisection on ln m1 from 100, which every command accepts."""
    lo, hi = math.log(100.0), math.log(sys.float_info.max)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        code = run(tmp_path, command, math.exp(mid), 1.0, res=2)[0]
        assert code in (0, 3)
        lo, hi = (mid, hi) if code == 0 else (lo, mid)
    return math.exp(lo)


@pytest.mark.parametrize("command", sorted(SECTIONS))
def test_largest_accepted_mass_writes_a_finite_table(tmp_path, command):
    m1 = largest_accepted(tmp_path, command)
    code, _, tables = run(tmp_path, command, m1, 1.0, res=2)
    assert code == 0 and tables
    assert nonfinite_cells(tables) == []
    assert run(tmp_path, command, m1 * (1.0 + 1e-8), 1.0, res=2)[0] == 3


masses = st.floats(-3.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@example(command="oracle", m1=6.4, m2=1e-3, theta=-1, res=1, rungs=1)
@given(
    command=st.sampled_from(sorted(SECTIONS)),
    m1=masses,
    m2=masses,
    theta=st.sampled_from([-1, 1]),
    res=st.integers(1, 4),
    rungs=st.integers(1, 3),
)
def test_any_magnitude_exits_0_or_3_with_finite_tables(
    tmp_path_factory, command, m1, m2, theta, res, rungs
):
    """The example is an annulus too thin for its masses, a band of m1 just
    above 15 m2 + 2 pi at these constants: a configuration error, exit 3."""
    psis = ", ".join(str(2.0**k) for k in range(1, rungs + 1))
    code, err, tables = run(tmp_path_factory.mktemp("fuzz"), command, m1, m2, theta, res, psis)
    assert code in (0, 3), err
    if code == 0:
        assert nonfinite_cells(tables) == []
    else:
        assert tables == {}
