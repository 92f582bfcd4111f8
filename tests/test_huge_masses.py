"""Masses and constants whose arithmetic overflows exit 3; every accepted
input writes a finite table.

Each command is run in-process through ``cli.main``, under the suite's
RuntimeWarning-as-error filter, by default at (alpha, beta, gamma) =
(1, 2, 30), on 16-cell grids (1000 for ``oracle``, its minimum) and flows
to t = 0.01.  A refusal is exit 3 with one ``configuration error`` line on
stderr and no CSV.  "Finite" admits the NaN the README documents: the
``predicted`` of ``blowdown.csv``'s ``log_term`` rows where the log term
does not apply, and the branch separators and out-of-range points of
``sweep_curves.csv``; and in ``classify.csv``'s ``strip_mass_gap``, the NaN
where no strip exists (beta <= alpha/2) and the +inf where the strip mass
lies beyond the largest float, as it does at gamma = 0.
"""

import contextlib
import io
import itertools
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conflictlab.cli import main

TWO_PI = 2.0 * math.pi

SECTIONS = {
    "classify": "",
    "sweep": "[sweep]\nm1_range = 0, {m1!r}\nm2_range = 0, {m2!r}\nresolution = {res}\n",
    "blowdown": "grid_n = 16\n[blowdown]\npsis = 2, 4, 8, 16\n",
    "functional": "grid_n = 16\n[functional]\npsis = {psis}\n",
    "oracle": "grid_n = 1000\n[oracle]\nscales = {scale!r}\n",
    "steady": "grid_n = 16\n",
    "flow": "grid_n = 16\n[flow]\ncase = {case}\nt_end = 0.01\n",
}
# the commands whose refusals are closed forms in the masses alone; steady
# refuses past the Pohozaev line, and a flow may fail as a solver
CLOSED_FORMS = ("blowdown", "classify", "functional", "oracle", "sweep")
# the commands that run a solver, and so may fail with exit 2
SOLVERS = ("blowdown", "flow", "functional", "oracle", "steady")


RUNS = itertools.count()


def run(tmp_path, command, m1, m2, theta=-1, res=4, psis="2, 4, 8",
        alpha=1.0, beta=2.0, gamma=30.0, case="single", scale=1e-3):
    """Exit code, stderr and the written tables (file name to rows) of one run."""
    out = tmp_path / f"run{next(RUNS)}"
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(
        f"[run]\ncommand = {command}\nalpha = {alpha!r}\nbeta = {beta!r}\n"
        f"gamma = {gamma!r}\ntheta = {theta}\nm1 = {m1!r}\nm2 = {m2!r}\n"
        + SECTIONS[command].format(m1=m1, m2=m2, res=res, psis=psis, case=case, scale=scale)
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
    """The cells of the tables that are not finite where the README
    documents no such value."""
    bad = []
    for name, (columns, *rows) in tables.items():
        for row in rows:
            for column, cell in zip(columns, row):
                if cell in ("nan", "inf", "-inf"):
                    documented = (
                        (name, column) == ("classify.csv", "strip_mass_gap") and cell != "-inf"
                        or cell == "nan" and name == "sweep_curves.csv"
                        or cell == "nan" and name == "blowdown.csv" and row[1] == "log_term"
                        and column == "predicted"
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
        ("oracle", 6.4, 1e-3, ["the annulus is too thin"]),
    ],
)
def test_overflowing_masses_exit_3(tmp_path, command, m1, m2, names):
    assert_refused(*run(tmp_path, command, m1, m2), *names)


@pytest.mark.parametrize(
    "command, case, m1, m2",
    [
        ("steady", "single", 25.0, 1e200),
        *(("flow", case, m1, m2) for case in ("single", "pair", "potentials")
          for m1, m2 in ((1e300, 1.0), (5.0, 1e300))),
    ],
)
def test_overflowing_green_terms_exit_3(tmp_path, command, case, m1, m2):
    """Masses whose potentials or pairings overflow are refused before a
    solve or a flow starts."""
    code, err, tables = run(tmp_path, command, m1, m2, gamma=1.0, case=case)
    assert_refused(code, err, tables, f"m1 = {m1!r}", f"m2 = {m2!r}", "Green terms")


@pytest.mark.parametrize("command", ["classify", "sweep"])
def test_huge_constants_give_a_finite_onset_mass(tmp_path, command):
    """At theta = +1 the cooperative table's onset mass divides by
    beta^2 + alpha gamma, which overflows at beta = 1e300; the onset,
    near 8 pi / beta, does not."""
    code, err, tables = run(tmp_path, command, 5.0, 1.0, theta=1, beta=1e300, gamma=1.0)
    assert code == 0, err
    assert tables and nonfinite_cells(tables) == []


@pytest.mark.parametrize(
    "command, m1, m2, beta, gamma, message",
    [
        # gamma V rho outweighs the Laplacian in the chemical Newton solve
        ("flow", 1.0, 1.0, 1e17, 1e17, "Sherman-Morrison denominator"),
        # the annulus exponent cancels two terms near 1.6e16 t
        ("oracle", 1e17, 0.9999999999999994, 1.0, 1e17, "integrate_annulus: the profile"),
    ],
)
def test_precision_lost_in_a_solve_exit_2(tmp_path, command, m1, m2, beta, gamma, message):
    code, err, tables = run(tmp_path, command, m1, m2, beta=beta, gamma=gamma)
    assert code == 2 and err.startswith("solver failure: ") and err.count("\n") == 1, err
    assert message in err
    assert tables == {}


def test_a_solver_failure_is_the_only_line_on_stderr(tmp_path):
    """The fuzz's cooperative flow example in a fresh interpreter: exit 2
    with one solver failure line and no trace.  The in-process fuzz would
    not see a line the logging module prints, which the test runner's own
    log handlers take; a bare process prints it to stderr."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\ncommand = flow\nalpha = 0.1005\nbeta = 1.2153\ngamma = 26.737\n"
        "theta = 1\nm1 = 487.5\nm2 = 7.9027e15\n" + SECTIONS["flow"].format(case="single")
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conflictlab.cli",
         "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("solver failure: ") and result.stderr.count("\n") == 1
    assert not (tmp_path / "flow_trace.csv").exists()


@pytest.mark.parametrize("alpha, beta, gamma", [(1.0, 1.0, 1.0), (1e-6, 0.0, 1e-6)])
def test_a_potential_flow_at_exit_0_leaves_stderr_empty(tmp_path, alpha, beta, gamma):
    """A conflict potential flow in a fresh interpreter, where a warning
    would reach stderr: at alpha*gamma = beta^2, and at a definite form
    with alpha*gamma below 1e-12.  Exit 0, the trace, nothing on stderr."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[run]\ncommand = flow\nalpha = {alpha!r}\nbeta = {beta!r}\ngamma = {gamma!r}\n"
        "theta = -1\nm1 = 4.0\nm2 = 2.0\n" + SECTIONS["flow"].format(case="potentials")
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conflictlab.cli",
         "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert (tmp_path / "flow_trace.csv").exists()


def test_oracle_sum_past_its_bound_exit_3(tmp_path):
    """(m2/2pi)^2 is finite at m2 = 8e154, but the ratio's Simpson sum of
    1000 terms up to it is not."""
    code, err, tables = run(tmp_path, "oracle", 1e152, 8e154, beta=1.0, gamma=1e-3)
    assert_refused(code, err, tables, "m2 = 8e+154", "sum of 1000 terms")


def test_ladder_past_its_shift_bound_exit_3(tmp_path):
    """Lambda is finite at m1 = 1e153, but the predicted shifts of a ladder
    up to psi = 16, with their margin, are not."""
    assert_refused(*run(tmp_path, "blowdown", 1e153, 1.0), "psi = 16.0")


def assert_outcome(command, code, err, tables):
    """Exit 0 with finite tables and an empty stderr, or a solver failure
    (exit 2, only for a command that runs one) or a refusal (exit 3) with
    that line alone on stderr and no table."""
    assert code in ((0, 2, 3) if command in SOLVERS else (0, 3)), err
    if code == 0:
        assert err == ""
        assert nonfinite_cells(tables) == []
    else:
        prefix = "solver failure: " if code == 2 else "configuration error: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert tables == {}
    if code == 2 and command == "oracle":
        assert err.startswith("solver failure: integrate_annulus: the profile"), err


def largest_accepted(tmp_path, command):
    """The largest m1 at m2 = 1 that the command accepts, to a relative
    1e-9, by bisection on ln m1 from 100, which each of CLOSED_FORMS accepts."""
    lo, hi = math.log(100.0), math.log(sys.float_info.max)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        code = run(tmp_path, command, math.exp(mid), 1.0, res=2)[0]
        assert code in (0, 3)
        lo, hi = (mid, hi) if code == 0 else (lo, mid)
    return math.exp(lo)


@pytest.mark.parametrize("command", CLOSED_FORMS)
def test_largest_accepted_mass_writes_a_finite_table(tmp_path, command):
    m1 = largest_accepted(tmp_path, command)
    code, _, tables = run(tmp_path, command, m1, 1.0, res=2)
    assert code == 0 and tables
    assert nonfinite_cells(tables) == []
    assert run(tmp_path, command, m1 * (1.0 + 1e-8), 1.0, res=2)[0] == 3


magnitudes = st.floats(-3.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@example(command="oracle", m1=6.4, m2=1e-3, theta=-1, res=1, rungs=1,
         alpha=1.0, beta=2.0, gamma=30.0, case="single", scale=1e-3)
@example(command="flow", m1=487.5, m2=7.9027e15, theta=1, res=1, rungs=1,
         alpha=0.1005, beta=1.2153, gamma=26.737, case="single", scale=1e-3)
@example(command="flow", m1=4.0, m2=2.0, theta=-1, res=1, rungs=1,
         alpha=1.0, beta=1.0, gamma=1.0, case="potentials", scale=1e-3)
@example(command="oracle", m1=20.0, m2=1.0, theta=-1, res=1, rungs=1,
         alpha=1.0, beta=1.0, gamma=1.0, case="single", scale=0.01)
@given(
    command=st.sampled_from(sorted(SECTIONS)),
    m1=magnitudes,
    m2=magnitudes,
    theta=st.sampled_from([-1, 1]),
    res=st.integers(1, 4),
    rungs=st.integers(1, 3),
    alpha=magnitudes,
    beta=magnitudes,
    gamma=magnitudes,
    case=st.sampled_from(["single", "pair", "potentials"]),
    scale=st.floats(-12.0, math.log10(0.999)).map(lambda e: 10.0**e),
)
def test_any_magnitude_exits_0_2_or_3_with_finite_tables(
    tmp_path_factory, command, m1, m2, theta, res, rungs, alpha, beta, gamma, case, scale
):
    """Every command, with every mass and constant drawn over 1e-3 to 1e300,
    succeeds with finite tables, fails as a solver (exit 2, only where it
    runs one) or is refused (exit 3), with that line alone on stderr and no
    table; a success leaves stderr empty.
    The first example is an annulus too thin for its masses, a band of m1
    just above 15 m2 + 2 pi at these constants: a configuration error, exit
    3.  The second is a cooperative flow whose chemical minimizer rounds to
    a w that rises by more than 1e-10 between cells: a solver failure, exit
    2.  The third is a conflict potential flow at alpha*gamma = beta^2,
    which runs unmonitored: exit 0.  The fourth is an oracle scale whose
    profile turns inside its outer window: exit 3.  The oracle's scale is
    drawn log-uniform over [1e-12, 0.999], and it fails as a solver only
    where its profile overflows."""
    psis = ", ".join(str(2.0**k) for k in range(1, rungs + 1))
    code, err, tables = run(tmp_path_factory.mktemp("fuzz"), command, m1, m2, theta, res, psis,
                            alpha, beta, gamma, case, scale)
    assert_outcome(command, code, err, tables)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(-3.0, 150.0).map(lambda e: 10.0**e),
    beta=st.floats(-3.0, 150.0).map(lambda e: 10.0**e),
    load=st.floats(-6.0, 12.0).map(lambda e: 10.0**e),
    excess=st.floats(0.0, 3.0).map(lambda e: 10.0**e),
    scale=st.floats(-12.0, math.log10(0.999)).map(lambda e: 10.0**e),
)
def test_admitted_oracle_magnitudes_reach_the_integration(tmp_path_factory, gamma, beta, load,
                                                          excess, scale):
    """The oracle's stratum: magnitudes that its closed forms admit, so that
    most draws run integrate_annulus, where the draws of the fuzz above
    almost never do: of 5,000 numpy draws from these ranges, 92 % exited 0
    or 2 and the rest 3, as windows the profile turns in.  gamma and beta
    range over 1e-3 to 1e150.  The standing excess
    h = (beta m1 - gamma m2)/2pi - 2 is 2 excess/ln(1/psi), with excess in
    [1, 1000], so no annulus is too thin; gamma m2 is load times 2pi(h + 2),
    with load in [1e-6, 1e12], so beta m1 - gamma m2 keeps its digits.  The
    same outcomes as the fuzz."""
    h = 2.0 * excess / -math.log(scale)
    m2 = load * TWO_PI * (h + 2.0) / gamma
    m1 = TWO_PI * (h + 2.0) * (1.0 + load) / beta
    code, err, tables = run(tmp_path_factory.mktemp("oracle"), "oracle", m1, m2, beta=beta,
                            gamma=gamma, scale=scale)
    assert_outcome("oracle", code, err, tables)
