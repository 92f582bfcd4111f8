"""Call budgets: how many Python and C calls the hot loops make.

A 32-cell flow step costs per call, not per cell, so its wall time drifts
with the host while its call count does not.  These tests count the
``call`` and ``c_call`` events of ``sys.setprofile`` (a Python function
entered or a generator resumed; a builtin function or method called from
Python code) and hold each count to its budget.  A numpy ufunc call raises
no event, whether an operator (``a + b``, ``x *= d``) or a named call
(``np.add``, ``np.exp``, ``np.subtract(..., out=)``); its methods and
numpy's other builtins do (``np.maximum.reduce``, ``np.zeros``,
``ndarray.dot``, ``ndarray.tolist``; checked on numpy 2.4).  So the counts
leave out elementwise arithmetic, and a pass saved there shows in the wall
time but not here.  The budgets:

* one run_flow step of each regime on 32 cells, after a warm-up;
* one Newton step of the chemical solve (liouville._newton_w);
* one Picard iteration of solve_pair on 1024 cells;
* one Anderson iteration of the fine-grid solve of solve_pair's nested
  start on 4096 cells;
* the fine-grid Anderson iterations of solve_pair's nested start on 4096
  and 16384 cells, for the benchmark's five steady pairs.

Numpy's Python wrappers and the interpreter's own call events change from
version to version, so the budgets are recorded per numpy and Python minor
version; elsewhere the tests skip and say so.  A budget is the recorded
count plus BUDGET_MARGIN.  A change that lowers a count lowers its budget.
The iteration counts of a solve repeat exactly, so they are held as they
are, without a margin: a start that gets worse shows as a count.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np
import pytest

from conflictlab import calculus, flow, liouville
from conflictlab.model import FLOW_LIMITS, FlowConfig, Params, RadialField, make_grid, project_density

BUDGET_MARGIN = 0.03

# Events per unit of work, and the fine iteration counts, as recorded, keyed by
# (numpy, Python) minor version.
RECORDED = {
    ("2.4", "3.11"): {
        "step.single": 115.5,
        "step.pair": 66.5,
        "step.potentials": 44.6,
        "newton_step": 17.0,
        "picard_iteration": 42.3,
        "anderson_iteration": 40.2,
        "fine_iterations": {4096: (5, 6, 8, 9, 7), 16384: (4, 5, 7, 8, 6)},
    },
}
# The steady workload's five pairs at their unjittered masses; their
# "fine_iterations" are Solution.iterations, the Anderson iterations on the
# caller's grid (Picard from the closed-form start: 22, 28, 38, 26, 38 on
# both grids)
STEADY_PAIRS = (
    (1.0, 2.0, 1.0, -1, 10.0, 4.0),
    (1.0, 2.0, 1.0, 1, 10.0, 4.0),
    (1.0, 2.0, 0.0, -1, 20.0, 5.0),
    (1.0, 2.0, 1.0, 1, 20.0, 10.0),
    (1.0, 2.0, 1.0, -1, 22.0, 8.0),
)
VERSION = (".".join(np.__version__.split(".")[:2]), f"{sys.version_info[0]}.{sys.version_info[1]}")

# the workload's flow cases: (alpha, beta, gamma, theta) per regime
CASES = {
    "single": (1.0, 2.0, 1.0, -1),
    "pair": (1.0, 0.5, 1.0, 1),
    "potentials": (1.0, 0.5, 1.0, -1),
}
DT = 2.0**-11
STEPS = 40


def events(call):
    """The call's result and its count of Python call and C call events."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = call()
    finally:
        sys.setprofile(previous)
    return out, count - 1  # less the c_call of sys.setprofile that ends the count


def recorded():
    """This numpy and Python's recorded counts; skips elsewhere."""
    if VERSION not in RECORDED:
        pytest.skip(
            f"call budgets are recorded for numpy, Python {sorted(RECORDED)}, "
            f"not for numpy {VERSION[0]}, Python {VERSION[1]}"
        )
    return RECORDED[VERSION]


def budget(name):
    return recorded()[name] * (1.0 + BUDGET_MARGIN)


def densities(grid):
    r = grid.r
    return (
        project_density(RadialField.density(grid, np.exp(-2.0 * r * r)), 10.0),
        project_density(RadialField.density(grid, np.exp(-r * r)), 4.0),
    )


def warm_state(regime):
    """A 32-cell state of the regime ten steps on, the masses fixed at 10
    and 4, and its Params and limits."""
    grid = make_grid(32)
    p = Params(*CASES[regime], 10.0, 4.0)
    rho1, rho2 = densities(grid)
    fields = {
        "single": {"rho1": rho1},
        "pair": {"rho1": rho1, "rho2": rho2},
        "potentials": {"u1": calculus.inv_laplacian(rho1), "u2": calculus.inv_laplacian(rho2)},
    }[regime]
    limits = FLOW_LIMITS[regime]
    warm = FlowConfig(*limits, dt=DT, t_end=10 * DT, adapt=False)
    return flow.run_flow(flow.initial_state(p, warm, **fields), p, warm), p, limits


@pytest.mark.parametrize("regime", sorted(CASES))
def test_flow_step(regime):
    limit = budget(f"step.{regime}")
    s, p, limits = warm_state(regime)
    cfg = FlowConfig(*limits, dt=DT, t_end=s.t + STEPS * DT, adapt=False)
    out, count = events(lambda: flow.run_flow(s, p, cfg))
    assert out._rows - s._rows == STEPS
    assert count / STEPS <= limit


def test_newton_step(monkeypatch):
    limit = budget("newton_step")
    grid = make_grid(32)
    p = Params(*CASES["single"], 10.0, 4.0)
    u = calculus.inv_laplacian(densities(grid)[0]).values
    a_u, a_w = p.coupling[1]
    drive = a_u * u
    w, c = liouville._seeded(grid, drive, p.m2)
    liouville._newton_w(grid, w, c, drive, p)  # warm-up: loads LAPACK, makes the grid's rows
    solve, solves = liouville._solve_tridiag, []

    def counted(ab, b):  # two events per Newton step: this call and the append
        solves.append(ab)
        return solve(ab, b)

    monkeypatch.setattr(liouville, "_solve_tridiag", counted)
    (w_star, rho_star, _), cold = events(lambda: liouville._newton_w(grid, w, c, drive, p))
    steps = len(solves)
    assert steps >= 2
    # the solve from its answer, with the face fluxes of the answer's own
    # density, takes no step: its count is what the cold solve spends
    # outside its steps
    c_star = calculus._face_masses(grid, rho_star)
    converged = events(lambda: liouville._newton_w(grid, w_star, c_star, drive, p))[1]
    assert not solves[steps:]
    assert (cold - 2 * steps - converged) / steps <= limit


def test_picard_iteration():
    limit = budget("picard_iteration")
    grid = make_grid(1024)
    p = Params(1.0, 0.5, 1.0, 1, 10.0, 4.0)
    liouville.solve_pair(p, grid)
    sol, count = events(lambda: liouville.solve_pair(p, grid))
    assert sol.iterations >= 20
    assert count / sol.iterations <= limit


def test_anderson_iteration():
    # the fine-grid solve of a 4096-cell nested start, from its seeds
    limit = budget("anderson_iteration")
    grid = make_grid(4096)
    p = Params(1.0, 0.5, 1.0, 1, 10.0, 4.0)
    a, masses = p.coupling, (p.m1, p.m2)
    seeds = liouville._nested_start(p, grid, a)
    solve = lambda: liouville._anderson_loop(grid, masses, partial(liouville._exponents, a), seeds)
    solve()
    out, count = events(solve)
    assert out[3] >= 4
    assert count / out[3] <= limit


@pytest.mark.parametrize("n", (4096, 16384))
def test_nested_pair_iterations(n):
    expected = recorded()["fine_iterations"][n]
    grid = make_grid(n)
    counts = tuple(liouville.solve_pair(Params(*args), grid).iterations for args in STEADY_PAIRS)
    assert counts == expected
